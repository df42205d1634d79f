//go:build !race

package wire_test

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates: allocation counts are not meaningful there.
const raceEnabled = false
