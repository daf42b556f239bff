//go:build race

package pgas

// RaceEnabled reports whether the race detector is compiled in; the hang
// watchdog scales its wall-clock budget by it (instrumented runs are roughly
// an order of magnitude slower, so a budget tuned for plain builds would
// report large healthy runs as deadlocks).
const RaceEnabled = true
