//go:build race

package nwsnet

// raceEnabled reports whether the tests run under the race detector, which
// allocates on its own account; allocation gates skip themselves then.
const raceEnabled = true
