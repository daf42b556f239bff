package pgas

import (
	"runtime"
	"runtime/debug"
)

// PauseGC collects once and then turns the garbage collector off until the
// returned function restores it. Only tests call it, around an allocation
// ceiling's measured window: a collection inside the window would empty the
// page and scratch pools, so the verdict would read the collector rather than
// the code.
//
//	defer pgas.PauseGC()()
func PauseGC() (restore func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}
