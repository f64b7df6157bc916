//go:build !race

package relmodel

const raceEnabled = false
