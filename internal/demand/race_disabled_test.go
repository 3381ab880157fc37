//go:build !race

package demand

const raceEnabled = false
