package caf

import (
	"sync/atomic"
	"testing"

	"cafshmem/internal/pgas"
)

func TestCriticalMutualExclusion(t *testing.T) {
	var inCS, violations, total int64
	forEachTransport(t, 6, func(img *Image) {
		crit := NewCritical(img)
		for i := 0; i < 15; i++ {
			crit.Execute(func() {
				if atomic.AddInt64(&inCS, 1) != 1 {
					atomic.AddInt64(&violations, 1)
				}
				atomic.AddInt64(&total, 1)
				atomic.AddInt64(&inCS, -1)
			})
		}
		img.SyncAll()
	})
	if violations != 0 {
		t.Fatalf("%d critical-section violations", violations)
	}
	if total != 3*6*15 { // three transports
		t.Fatalf("executed %d bodies, want %d", total, 3*6*15)
	}
}

func TestCriticalReleasedOnPanic(t *testing.T) {
	// A panic inside the block must not leave the hidden lock held.
	err := Run(2, shmemOpts(), func(img *Image) {
		crit := NewCritical(img)
		if img.ThisImage() == 1 {
			func() {
				defer func() { recover() }()
				crit.Execute(func() { panic("inside critical") })
			}()
		}
		img.SyncAll()
		// Both images must still be able to enter.
		crit.Execute(func() {})
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTwoCriticalConstructsIndependent(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		a := NewCritical(img)
		b := NewCritical(img)
		done := Allocate[int64](img, 1)
		if img.ThisImage() == 1 {
			a.Execute(func() {
				// While holding a, image 2 must still get through b.
				done.WaitLocal(pgas.CmpEQ, 1, 0)
			})
		} else {
			b.Execute(func() {})
			done.PutElem(1, 1, 0)
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}
