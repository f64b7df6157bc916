//go:build race

package relmodel

// raceEnabled makes the allocation pins skip themselves: the race
// detector's instrumentation allocates.
const raceEnabled = true
