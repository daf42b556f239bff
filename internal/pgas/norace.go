//go:build !race

package pgas

// RaceEnabled is false in builds without the race detector; see race.go.
const RaceEnabled = false
