//go:build race

package main

// raceEnabled reports that this test binary was built with -race;
// buildDaemon then builds the daemon under test with -race too.
const raceEnabled = true
