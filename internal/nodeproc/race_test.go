//go:build race

package nodeproc

// raceEnabled makes the allocation pins skip themselves: the race
// detector's instrumentation allocates.
const raceEnabled = true
