package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/gasnet"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// The layer ladder issues the same 8-byte and 64 KiB transfer at every level
// of the stack — fabric cost evaluation, pgas memory, each library's put, the
// caf runtime — inside 2-PE worlds on the Cray XC30 model, from a single
// origin, timing calls into each module's public functions from outside.
// Subtracting adjacent rungs gives each layer's self time.

const (
	smallBytes = 8
	bigBytes   = 64 << 10
	bigElems   = bigBytes / 8
	runCount   = 64 // runs per vectored (64x8B) call
	stridedNX  = 128
	stridedNY  = 64
)

// sink keeps the compiler from discarding pure cost-model evaluations.
var sink float64

type ladder struct {
	sc     *scale
	in     *inputs
	tr     *tracer
	parent int32
	m      metricSet
	checks map[string]string

	big   [ladderSlots][]byte // per-slot 64 KiB payloads
	small [ladderSlots][]byte // per-slot 8-byte payloads
	bigF  [ladderSlots][]float64
	smF   [ladderSlots][]float64
	secB  [ladderSlots]caf.Section // the 64 KiB section of slot s
	secS  [ladderSlots]caf.Section // the one-element section of slot s
	ns    map[string]float64       // rung name (with suffix) -> ns per call, for the self-time rows
}

// runLadder measures every rung and returns the per-layer metrics plus the
// payload checksums that golden.json pins.
func runLadder(sc *scale, in *inputs, tr *tracer, parent int32) (m metricSet, checks map[string]string, err error) {
	l := &ladder{sc: sc, in: in, tr: tr, parent: parent, m: metricSet{}, checks: map[string]string{}, ns: map[string]float64{}}
	for s := 0; s < ladderSlots; s++ {
		l.big[s] = make([]byte, bigBytes)
		for i := range l.big[s] {
			l.big[s][i] = byte(s*37 + i*11 + i>>8)
		}
		l.small[s] = l.big[s][:smallBytes]
		l.bigF[s] = make([]float64, bigElems)
		for i := range l.bigF[s] {
			l.bigF[s][i] = float64(s*bigElems + i)
		}
		l.smF[s] = l.bigF[s][:1]
		l.secB[s] = caf.Section{{Lo: s * bigElems, Hi: (s+1)*bigElems - 1, Step: 1}}
		l.secS[s] = caf.Idx(s)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ladder: %v", r)
		}
	}()
	l.fabricRungs()
	steps := []func() error{
		l.mainWorld, l.deferredWorld,
		func() error { return l.stridedWorld("naive", caf.StridedNaive) },
		func() error { return l.stridedWorld("2dim", caf.Strided2Dim) },
		l.gasnetWorld, l.mpi3World,
		func() error { return l.parkResume("goroutine", pgas.EngineGoroutine) },
		func() error { return l.parkResume("event", pgas.EngineEvent) },
		l.worldSetup, l.barrierRounds,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	for _, sz := range []string{".8B", ".64K"} {
		l.m.put("shmem.putmem_self_ns"+sz, l.ns["shmem.putmem"+sz]-l.ns["pgas.write"+sz]-l.ns["fabric.put_cost"], "ns")
		l.m.put("caf.put_self_ns"+sz, l.ns["caf.put_deferred"+sz]-l.ns["shmem.putmem"+sz], "ns")
		l.m.put("caf.quiet_rule_ns"+sz, l.ns["caf.put"+sz]-l.ns["caf.put_deferred"+sz], "ns")
	}
	return l.m, l.checks, nil
}

// slot is the target slot call i visits: the seed fixes the order, and every
// slot always receives the same payload, so the final memory is seed-free.
func (l *ladder) slot(i int) int { return l.in.ladderOrder[i%ladderSlots] }

// plan splits a rung's calls into the untimed warm-up (caches, pools, the
// target partition) and the per-batch count. Collective rungs use it so the
// peer image makes exactly the calls the timing image does.
func (l *ladder) plan(calls int) (warm, per int) {
	per = calls / l.sc.ladderBatches
	if per < 1 {
		per = 1
	}
	return per/10 + 1, per
}

// rung times calls invocations of f as ladderBatches batches, reports the
// median batch as <base>_ns<suffix> and the allocations per call as
// <base>_allocs<suffix>, and records one span for the whole rung.
func (l *ladder) rung(base, suffix string, calls int, f func(i int)) {
	l.rungUnits(base, suffix, calls, 1, f)
}

// rungUnits is rung for calls that each do units pieces of the work the
// metric is named after (one ping-pong call is two hand-offs).
func (l *ladder) rungUnits(base, suffix string, calls, units int, f func(i int)) {
	warm, per := l.plan(calls)
	for i := 0; i < warm; i++ {
		f(i)
	}
	times := make([]float64, l.sc.ladderBatches)
	n := 0
	s := l.tr.begin(l.parent, base+suffix)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := range times {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f(n)
			n++
		}
		times[b] = float64(time.Since(t0).Nanoseconds()) / float64(per*units)
	}
	runtime.ReadMemStats(&m1)
	l.tr.end(s)
	ns := median(times)
	l.ns[base+suffix] = ns
	l.m.put(base+"_ns"+suffix, ns, "ns")
	l.m.put(base+"_allocs"+suffix, float64(m1.Mallocs-m0.Mallocs)/float64(n*units), "count")
}

// peer makes, on the image that is not timing, the calls a collective rung
// of the given size makes on the image that is.
func (l *ladder) peer(calls int, f func()) {
	warm, per := l.plan(calls)
	for i := 0; i < warm+per*l.sc.ladderBatches; i++ {
		f()
	}
}

func (l *ladder) fabricRungs() {
	prof := fabric.CrayXC30().MustProfile(fabric.ProfCraySHMEM)
	l.rung("fabric.put_cost", "", 10*l.sc.ladderCalls8B, func(i int) {
		sink += prof.PutInjectNs(smallBytes+i&1, false, 1) + prof.DeliveryNs(false, 1)
	})
	var nic fabric.NBINic
	streams := fabric.NewNBIStreams(&nic)
	now := 0.0
	l.rung("fabric.nbi_issue", "", 10*l.sc.ladderCalls8B, func(i int) {
		now = streams.Issue(1, now, 10, 900)
		sink += streams.DrainTarget(1)
	})
}

func checksum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// mainWorld runs the pgas, shmem and conservative-quiet caf rungs inside one
// 2-image world (image 1 is the single origin, image 2 the target).
func (l *ladder) mainWorld() error {
	sc := l.sc
	o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	return caf.Run(2, o, func(img *caf.Image) {
		pe := img.SHMEM()
		p := pe.Pgas()
		pw := p.World()
		symBig := pe.Malloc(ladderSlots * bigBytes)
		symSmall := pe.Malloc(ladderSlots * smallBytes)
		symRuns := pe.Malloc(runCount * 16)
		symCtr := pe.Malloc(4 * 8)
		cBig := caf.Allocate[float64](img, ladderSlots*bigElems)
		cSmall := caf.Allocate[float64](img, ladderSlots)
		sig := caf.NewSignal(img)
		lck := caf.NewLock(img)
		offs := make([]int64, runCount)
		visAt := make([]float64, runCount)
		for k := range offs {
			offs[k] = int64(k) * 16
		}
		runSrc := l.big[0][:runCount*smallBytes]
		dst := make([]byte, bigBytes)
		first := img.ThisImage() == 1
		img.SyncAll()

		if first {
			// Bytes to the raw symmetric regions.
			l.rung("pgas.write", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				pw.Write(1, symSmall.Off+int64(s*smallBytes), l.small[s], p.Clock.Now())
			})
			l.rung("pgas.write", ".64K", sc.ladderCalls64K, func(i int) {
				s := l.slot(i)
				pw.Write(1, symBig.Off+int64(s*bigBytes), l.big[s], p.Clock.Now())
			})
			l.rung("pgas.read", ".8B", sc.ladderCalls8B, func(i int) {
				pw.Read(1, symSmall.Off+int64(l.slot(i)*smallBytes), dst[:smallBytes])
			})
			l.rung("pgas.read", ".64K", sc.ladderCalls64K, func(i int) {
				pw.Read(1, symBig.Off+int64(l.slot(i)*bigBytes), dst)
			})
			l.rung("pgas.writeruns", ".64x8B", sc.ladderCalls8B, func(int) {
				pw.WriteRuns(1, symRuns.Off, offs, smallBytes, runSrc, visAt)
			})
			l.rung("pgas.rmw64", "", sc.ladderCalls8B, func(int) {
				pw.RMW64(1, symCtr.Off, pgas.OpAdd, 1, p.Clock.Now())
			})

			l.rung("shmem.putmem", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				pe.PutMem(1, symSmall, int64(s*smallBytes), l.small[s])
			})
			l.rung("shmem.putmem", ".64K", sc.ladderCalls64K, func(i int) {
				s := l.slot(i)
				pe.PutMem(1, symBig, int64(s*bigBytes), l.big[s])
			})
			pe.Quiet()
			l.rung("shmem.getmem", ".8B", sc.ladderCalls8B, func(i int) {
				pe.GetMem(1, symSmall, int64(l.slot(i)*smallBytes), dst[:smallBytes])
			})
			l.rung("shmem.getmem", ".64K", sc.ladderCalls64K, func(i int) {
				pe.GetMem(1, symBig, int64(l.slot(i)*bigBytes), dst)
			})
			l.rung("shmem.putmemv", ".64x8B", sc.ladderCalls8B, func(int) {
				pe.PutMemV(1, symRuns, offs, smallBytes, runSrc)
			})
			l.rung("shmem.quiet", "", sc.ladderCalls8B, func(int) { pe.Quiet() })
			l.rung("shmem.fetchadd", "", sc.ladderCalls8B, func(int) { pe.FetchAdd(1, symCtr, 1, 1) })
			l.rung("shmem.putmem_nbi", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				pe.PutMemNBI(1, symSmall, int64(s*smallBytes), l.small[s])
				pe.QuietTarget(1)
			})
			l.rung("shmem.put_signal", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				pe.PutSignal(1, symSmall, int64(s*smallBytes), l.small[s], symCtr, 2, 1)
			})
			pe.Quiet()

			// Elements through the runtime: conservative quiet after every put.
			l.rung("caf.put", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				cSmall.Put(2, l.secS[s], l.smF[s])
			})
			l.rung("caf.put", ".64K", sc.ladderCalls64K, func(i int) {
				s := l.slot(i)
				cBig.Put(2, l.secB[s], l.bigF[s])
			})
			l.rung("caf.get", ".8B", sc.ladderCalls8B, func(i int) {
				sink += cSmall.Get(2, l.secS[l.slot(i)])[0]
			})
			l.rung("caf.get", ".64K", sc.ladderCalls64K, func(i int) {
				sink += cBig.Get(2, l.secB[l.slot(i)])[0]
			})
			l.rung("caf.put_signal_async", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				cSmall.PutSignalAsync(2, l.secS[s], l.smF[s], sig)
			})
			img.SyncMemory()
			l.rung("caf.lock_pair", "", sc.ladderCalls8B, func(int) {
				lck.Acquire(2)
				lck.Release(2)
			})
		}
		img.SyncAll()

		// Collective rungs: both images call, image 1 reports.
		collective := func(base, suffix string, f func()) {
			if first {
				l.rung(base, suffix, sc.ladderCallsSlow, func(int) { f() })
			} else {
				l.peer(sc.ladderCallsSlow, f)
			}
		}
		collective("shmem.barrier", ".2", pe.Barrier)
		collective("caf.syncall", ".2", img.SyncAll)

		if !first {
			var raw []byte
			for _, sym := range []shmem.Sym{symBig, symSmall, symRuns, symCtr} {
				raw = append(raw, p.LocalBytes(sym.Off, sym.Size)...)
			}
			l.checks["main_world.symmetric"] = checksum(raw)
			l.checks["main_world.coarrays"] = floatSum(cBig.Slice(), cSmall.Slice())
		}
		img.SyncAll()
	})
}

// deferredWorld repeats the caf put rungs with DeferredQuiet, so that
// caf.put - caf.put_deferred isolates the conservative quiet-after-put rule.
func (l *ladder) deferredWorld() error {
	sc := l.sc
	o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	o.DeferredQuiet = true
	return caf.Run(2, o, func(img *caf.Image) {
		cBig := caf.Allocate[float64](img, ladderSlots*bigElems)
		cSmall := caf.Allocate[float64](img, ladderSlots)
		img.SyncAll()
		if img.ThisImage() == 1 {
			l.rung("caf.put_deferred", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				cSmall.Put(2, l.secS[s], l.smF[s])
			})
			l.rung("caf.put_deferred", ".64K", sc.ladderCalls64K, func(i int) {
				s := l.slot(i)
				cBig.Put(2, l.secB[s], l.bigF[s])
			})
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			l.checks["deferred_world"] = floatSum(cBig.Slice(), cSmall.Slice())
		}
		img.SyncAll()
	})
}

func floatSum(parts ...[]float64) string {
	var sum float64
	for _, p := range parts {
		for _, v := range p {
			sum += v
		}
	}
	return exact(sum)
}

// stridedWorld times the 64x64 stride-2 section put of the legacy
// WallclockStridedPut row under one strided algorithm.
func (l *ladder) stridedWorld(label string, algo caf.StridedAlgo) error {
	o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	o.Strided = algo
	return caf.Run(2, o, func(img *caf.Image) {
		c := caf.Allocate[float64](img, stridedNX, stridedNY)
		sec := caf.Section{{Lo: 0, Hi: stridedNX - 2, Step: 2}, {Lo: 0, Hi: stridedNY - 1, Step: 1}}
		vals := make([]float64, sec.NumElems())
		for i := range vals {
			vals[i] = float64(i)
		}
		img.SyncAll()
		if img.ThisImage() == 1 {
			l.rung("caf.put_strided", "."+label, l.sc.ladderCallsSlow, func(int) { c.Put(2, sec, vals) })
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			l.checks["strided_"+label] = floatSum(c.Slice())
		}
		img.SyncAll()
	})
}

func (l *ladder) gasnetWorld() error {
	sc := l.sc
	cfg := gasnet.Config{Machine: fabric.CrayXC30(), Profile: fabric.ProfGASNetAries}
	return gasnet.Run(cfg, 2, func(ep *gasnet.EP) {
		segBig := ep.Malloc(ladderSlots * bigBytes)
		segSmall := ep.Malloc(ladderSlots * smallBytes)
		ep.Barrier()
		if ep.MyNode() == 0 {
			l.rung("gasnet.put", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				ep.Put(1, segSmall, int64(s*smallBytes), l.small[s])
			})
			l.rung("gasnet.put", ".64K", sc.ladderCalls64K, func(i int) {
				s := l.slot(i)
				ep.Put(1, segBig, int64(s*bigBytes), l.big[s])
			})
			ep.WaitSyncAll()
		}
		ep.Barrier()
		if ep.MyNode() == 1 {
			raw := make([]byte, ladderSlots*(bigBytes+smallBytes))
			ep.Get(1, segBig, 0, raw[:ladderSlots*bigBytes])
			ep.Get(1, segSmall, 0, raw[ladderSlots*bigBytes:])
			l.checks["gasnet_world"] = checksum(raw)
		}
		ep.Barrier()
	})
}

func (l *ladder) mpi3World() error {
	sc := l.sc
	cfg := mpi3.Config{Machine: fabric.CrayXC30(), Profile: fabric.ProfCrayMPICH}
	return mpi3.Run(cfg, 2, func(pr *mpi3.Proc) {
		win := pr.WinAllocate(ladderSlots * (bigBytes + smallBytes))
		const smallBase = ladderSlots * bigBytes
		pr.LockAll(win)
		pr.Barrier()
		if pr.Rank() == 0 {
			l.rung("mpi3.put_flush", ".8B", sc.ladderCalls8B, func(i int) {
				s := l.slot(i)
				pr.Put(win, 1, int64(smallBase+s*smallBytes), l.small[s])
				pr.Flush(1, win)
			})
			l.rung("mpi3.put_flush", ".64K", sc.ladderCalls64K, func(i int) {
				s := l.slot(i)
				pr.Put(win, 1, int64(s*bigBytes), l.big[s])
				pr.Flush(1, win)
			})
		}
		pr.Barrier()
		if pr.Rank() == 1 {
			raw := make([]byte, win.Size())
			pr.Get(win, 1, 0, raw)
			l.checks["mpi3_world"] = checksum(raw)
		}
		pr.UnlockAll(win)
		pr.Barrier()
	})
}

// parkResume is a 2-PE WaitUntil64/WriteUint64 ping-pong on one engine: each
// hand-off parks one PE and resumes the other.
func (l *ladder) parkResume(label string, engine pgas.Engine) error {
	w, err := pgas.NewWorldOpts(fabric.CrayXC30(), 2, pgas.Options{Engine: engine})
	if err != nil {
		return err
	}
	rounds := l.sc.ladderHandoffs / 2
	return w.Run(func(p *pgas.PE) {
		var next uint64 // this PE's turn number; both PEs count in step
		turn := func() {
			next++
			v := next
			if p.ID == 0 {
				w.WriteUint64(1, 0, v, 0)
				p.WaitUntil64(0, func(got uint64) bool { return got >= v })
			} else {
				p.WaitUntil64(0, func(got uint64) bool { return got >= v })
				w.WriteUint64(0, 0, v, 0)
			}
		}
		if p.ID == 0 {
			l.rungUnits("pgas.park_resume", "."+label, rounds, 2, func(int) { turn() })
		} else {
			l.peer(rounds, turn)
		}
	})
}

// worldSetup times NewWorldOpts + Run of an empty body per PE, at the two
// world sizes the workloads use (256 on the default engine, 10240 on the
// event engine).
func (l *ladder) worldSetup() error {
	for _, c := range []struct {
		suffix string
		n, rep int
		engine pgas.Engine
	}{
		{".256", l.sc.worldSmall, l.sc.worldSmallReps, pgas.EngineGoroutine},
		{".10240", l.sc.worldLarge, l.sc.worldLargeReps, pgas.EngineEvent},
	} {
		s := l.tr.begin(l.parent, "pgas.world_setup"+c.suffix)
		times := make([]float64, c.rep)
		for i := range times {
			t0 := time.Now()
			w, err := pgas.NewWorldOpts(fabric.Titan(), c.n, pgas.Options{Engine: c.engine})
			if err != nil {
				return err
			}
			if err := w.Run(func(*pgas.PE) {}); err != nil {
				return err
			}
			times[i] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(c.n)
		}
		l.tr.end(s)
		l.m.put("pgas.world_setup_us_per_pe"+c.suffix, median(times), "us")
	}
	return nil
}

// barrierRounds reads image 1's per-round timestamps out of the barrier_10k
// body: the round time at both world sizes, its p99 at the large one, and the
// ratio of the large world's round time on one core to that on two — the
// first multi-core number for the event engine's shared dispatch lock.
func (l *ladder) barrierRounds() error {
	rounds := func(n, runs int, engine pgas.Engine) ([]float64, error) {
		var us []float64
		stamps := make([]int64, l.sc.barrierRounds)
		for r := 0; r < runs; r++ {
			if _, _, err := barrierBody(n, len(stamps), engine, job{}, stamps); err != nil {
				return nil, err
			}
			for i := 1; i < len(stamps); i++ {
				us = append(us, float64(stamps[i]-stamps[i-1])/1e3)
			}
		}
		return us, nil
	}
	s := l.tr.begin(l.parent, "pgas.barrier_round")
	defer l.tr.end(s)
	small, err := rounds(l.sc.worldSmall, 3, pgas.EngineGoroutine)
	if err != nil {
		return err
	}
	large, err := rounds(l.sc.worldLarge, l.sc.barrierLargeRuns, pgas.EngineEvent)
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(1)
	single, err := rounds(l.sc.worldLarge, 1, pgas.EngineEvent)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	l.m.put("pgas.barrier_round_us.256", median(small), "us")
	l.m.put("pgas.barrier_round_us.10240", median(large), "us")
	l.m.put("pgas.barrier_round_us_p99.10240", percentile(large, 99), "us")
	l.m.put("pgas.barrier_par_ratio.10240", median(single)/median(large), "ratio")
	return nil
}
