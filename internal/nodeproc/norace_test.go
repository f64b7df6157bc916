//go:build !race

package nodeproc

const raceEnabled = false
