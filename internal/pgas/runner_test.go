package pgas

import (
	"fmt"
	"runtime"
	"testing"

	"cafshmem/internal/fabric"
)

// runSum runs a fresh n-PE world in which each PE advances its clock by its
// rank and meets the others at a barrier, and checks what every PE read: the
// work any runner does after an earlier world's ending.
func runSum(t *testing.T, n int) Metrics {
	t.Helper()
	w, err := NewWorld(fabric.Stampede(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := make([]float64, n)
	if err := w.Run(func(p *PE) {
		p.Clock.Advance(float64(p.ID))
		p.Barrier(0)
		got[p.ID] = p.Clock.Now()
	}); err != nil {
		t.Fatalf("fresh %d-PE world: %v", n, err)
	}
	for id, v := range got {
		if v != float64(n-1) {
			t.Errorf("fresh %d-PE world: PE %d left the barrier at %v, want %v", n, id, v, n-1)
		}
	}
	return w.Metrics()
}

// A runner keeps working after every way a PE body ends but one: a return, a
// panic that poisons the world and FAIL IMAGE's unwind park it for the next
// world, and runtime.Goexit (t.FailNow on a PE goroutine) ends its goroutine,
// so it is never handed work again — a world that got it would hang.
func TestRunnerSurvivesEveryEnding(t *testing.T) {
	const n = 4
	for _, c := range []struct {
		name    string
		body    func(*PE)
		failed  bool
		parking bool
	}{
		{"return", func(p *PE) { p.Barrier(0) }, false, true},
		{"panic", func(p *PE) {
			if p.ID == 0 {
				panic("boom")
			}
			p.Barrier(0)
		}, true, true},
		{"fail-image", func(p *PE) { p.Fail() }, false, true},
		{"goexit", func(p *PE) { runtime.Goexit() }, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			trimRunners(1)
			w, err := NewWorld(fabric.Stampede(), n)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(c.body)
			w.Close()
			if (err != nil) != c.failed {
				t.Fatalf("Run: %v, want an error: %v", err, c.failed)
			}
			want := 0
			if c.parking {
				want = n
			}
			if got := idleRunners(); got != want {
				t.Fatalf("%d runners idle after the world, want %d", got, want)
			}
			if m := runSum(t, n); m.Started != int64(n-want) {
				t.Errorf("the fresh world started %d runners, want %d", m.Started, n-want)
			}
		})
	}
}

// Idle runners are bounded without an option: every runner parks, so the
// stack holds the most PEs the process ran at once, and no more. A small world
// run after a large one takes runners from the stack and gives them all back,
// so the next large world starts none, at any GOMAXPROCS.
func TestIdleRunnersBounded(t *testing.T) {
	defer trimRunners(1)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("cpu=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			trimRunners(1)
			runSum(t, 4096)
			if got := idleRunners(); got != 4096 {
				t.Fatalf("%d runners idle after a 4096-PE world, want 4096", got)
			}
			runSum(t, 2)
			if got := idleRunners(); got != 4096 {
				t.Errorf("%d runners idle after a 2-PE world, want 4096: its two park again", got)
			}
			if m := runSum(t, 4096); m.Started != 0 {
				t.Errorf("the next 4096-PE world: %v, want 0 runners started", m)
			}
			if got := idleRunners(); got != 4096 {
				t.Errorf("%d runners idle after the second 4096-PE world, want 4096", got)
			}
		})
	}
}

// A world starts on warm goroutines: of two back-to-back 256-PE worlds the
// second starts no runner, whatever earlier worlds left idle.
func TestWorldReusesRunners(t *testing.T) {
	if m := runSum(t, 256); m.Started > 256 {
		t.Errorf("first world: %v, at most 256 runners started", m)
	}
	if m := runSum(t, 256); m.Started != 0 {
		t.Errorf("second world: %v, want 0 runners started", m)
	}
}

// An idle runner holds nothing of the PE it ran: what a world's body captured
// is garbage once the world is, though the runner lives on.
func TestIdleRunnerKeepsNoWorld(t *testing.T) {
	freed := make(chan struct{})
	func() {
		captured := new([64]byte)
		runtime.SetFinalizer(captured, func(*[64]byte) { close(freed) })
		w, err := NewWorld(fabric.Stampede(), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.Run(func(p *PE) { captured[p.ID]++ }); err != nil {
			t.Fatal(err)
		}
	}()
	if idleRunners() == 0 {
		t.Fatal("no runner idle after the world")
	}
	for range 20 {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
			runtime.Gosched()
		}
	}
	t.Error("what the body captured is still reachable after 20 collections")
}
