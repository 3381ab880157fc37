//go:build race

package demand

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation slows the seeding solves about tenfold; the
// differential test runs its reduced instance set under it.
const raceEnabled = true
