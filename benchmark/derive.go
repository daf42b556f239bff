package main

// Turning what the children measured into the named metrics of BENCHMARK.json.

// tracerKinds are the caf.Tracer event kinds reported as caf.count.<kind>.
var tracerKinds = []string{"put", "get", "putv", "getv", "iput", "iget", "amo", "quiet", "barrier", "wait"}

func perOp(xs, ops []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for i, x := range xs {
		if ops[i] > 0 {
			out = append(out, x/ops[i])
		}
	}
	return out
}

// runS is a workload's run_s: the median repetition, or the floor estimate
// where the job times its steady state in chunks (see floor).
func runS(r *workloadResult) float64 {
	if r.FloorS > 0 {
		return r.FloorS
	}
	return median(r.RunS)
}

// endToEndMetrics derives the user-visible metrics from the untraced
// repetitions. Every workload emits every one of them.
func endToEndMetrics(r *workloadResult) metricSet {
	m := metricSet{}
	ns := make([]float64, len(r.RunS))
	for i, s := range r.RunS {
		ns[i] = s * 1e9
	}
	nsPerOp := median(perOp(ns, r.Ops))
	if r.FloorS > 0 {
		nsPerOp = r.FloorS * 1e9 / median(r.Ops)
	}
	m.put("setup_s", median(r.SetupS), "s")
	m.put("run_s", runS(r), "s")
	m.put("host_ns_per_simop", nsPerOp, "ns")
	m.put("allocs_per_simop", median(perOp(r.Allocs, r.Ops)), "count")
	m.put("alloc_bytes_per_simop", median(perOp(r.AllocBytes, r.Ops)), "B")
	m.put("peak_rss_mb", r.PeakRSSMiB, "MiB")
	return m
}

// estLayers are the layers the computed attribution splits CPU time over.
var estLayers = [...]string{"fabric", "pgas", "shmem", "caf"}

// fit is a per-call cost a + b*bytes through the ladder's two sizes.
type fit struct{ a, b float64 }

func fitOf(lad metricSet, base string) fit {
	c8, c64 := lad[base+".8B"].Value, lad[base+".64K"].Value
	b := (c64 - c8) / float64(bigBytes-smallBytes)
	return fit{a: c8 - b*smallBytes, b: b}
}

func (f fit) total(count, bytes int64) float64 {
	if t := f.a*float64(count) + f.b*float64(bytes); t > 0 {
		return t
	}
	return 0
}

// estimate attributes a workload's CPU time to layers: per-kind operation
// counts from the traced repetition times per-call self costs fitted from the
// ladder, as a share of the CPU-seconds one repetition used. It is COMPUTED,
// not measured: the ladder runs in a 2-image world with warm caches, and NBI
// operations bypass caf.Tracer, so "other" absorbs engine park/wake, app
// compute, GC, world build and everything the model misses.
func estimate(r *workloadResult, lad metricSet) [len(estLayers)]float64 {
	cnt := func(kinds ...string) (n, bytes int64) {
		for _, k := range kinds {
			n += r.Counts[k]
			bytes += r.Bytes[k]
		}
		return
	}
	v := func(name string) float64 { return lad[name].Value }
	pos := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}

	puts, putBytes := cnt("put", "iput")
	gets, getBytes := cnt("get", "iget")
	vputs, vputBytes := cnt("putv")
	vgets, vgetBytes := cnt("getv")
	amos, _ := cnt("amo")
	quiets, _ := cnt("quiet")

	cost := v("fabric.put_cost_ns")
	// A vectored call moves bytes/8 of the ladder's 8-byte runs' worth of data;
	// scale the 64x8B rung by payload.
	runScale := func(bytes int64) float64 { return float64(bytes) / float64(runCount*smallBytes) }

	fabricNs := cost * float64(puts+gets+amos+vputs+vgets)
	pgasNs := fitOf(lad, "pgas.write_ns").total(puts, putBytes) +
		fitOf(lad, "pgas.read_ns").total(gets, getBytes) +
		v("pgas.writeruns_ns.64x8B")*runScale(vputBytes+vgetBytes) +
		v("pgas.rmw64_ns")*float64(amos)
	shmemNs := fitOf(lad, "shmem.putmem_self_ns").total(puts, putBytes) +
		pos(fitOf(lad, "shmem.getmem_ns").total(gets, getBytes)-fitOf(lad, "pgas.read_ns").total(gets, getBytes)-cost*float64(gets)) +
		pos(v("shmem.putmemv_ns.64x8B")-v("pgas.writeruns_ns.64x8B"))*runScale(vputBytes+vgetBytes) +
		pos(v("shmem.fetchadd_ns")-v("pgas.rmw64_ns")-cost)*float64(amos) +
		v("shmem.quiet_ns")*float64(quiets)
	cafNs := fitOf(lad, "caf.put_self_ns").total(puts, putBytes) +
		pos(fitOf(lad, "caf.get_ns").total(gets, getBytes)-fitOf(lad, "shmem.getmem_ns").total(gets, getBytes)) +
		pos(v("caf.quiet_rule_ns.8B")-v("shmem.quiet_ns"))*float64(quiets)
	return [...]float64{fabricNs, pgasNs, shmemNs, cafNs}
}

// perLayerMetrics derives the traced run's metrics: the ladder's rungs plus
// this workload's counts, computed attribution and host-side numbers. A
// metric that does not apply to the workload reads 0.
func perLayerMetrics(r *workloadResult, ladder *ladderResult) metricSet {
	m := metricSet{}
	lad := ladder.Metrics
	for name, v := range lad {
		m.put(name, v.Value, v.Unit)
	}
	for _, k := range tracerKinds {
		m.put("caf.count."+k, float64(r.Counts[k]), "count")
	}
	m.put("caf.bytes.put", float64(r.Bytes["put"]+r.Bytes["putv"]+r.Bytes["iput"]), "B")
	m.put("caf.bytes.get", float64(r.Bytes["get"]+r.Bytes["getv"]+r.Bytes["iget"]), "B")
	amoPerLock := 0.0
	if r.LocksAcquired > 0 {
		amoPerLock = float64(r.Atomics) / float64(r.LocksAcquired)
	}
	m.put("caf.amo_per_lock", amoPerLock, "ratio")
	m.put("himeno.comm_ops_per_image_iter", r.Extra["himeno.comm_ops_per_image_iter"], "count")
	m.put("dht.updates_per_s_virtual", r.Extra["dht.updates_per_s_virtual"], "1/s")
	m.put("model.virtual_ms", r.VirtualMs, "ms")
	m.put("model.paper_err_pct", r.Extra["model.paper_err_pct"], "%")

	// Shares of the CPU-seconds one repetition used. Where the two-size fit
	// over-predicts, keep the proportions and leave nothing for "other".
	layers := estimate(r, lad)
	total := 0.0
	for i := range layers {
		if r.CPUSPerRep > 0 {
			layers[i] *= 100 / (r.CPUSPerRep * 1e9)
		} else {
			layers[i] = 0
		}
		total += layers[i]
	}
	if total > 100 {
		for i := range layers {
			layers[i] *= 100 / total
		}
		total = 100
	}
	for i, name := range estLayers {
		m.put("est."+name+"_pct", layers[i], "%")
	}
	m.put("est.other_pct", 100-total, "%")

	medianS, setupS := median(r.RunS), median(r.SetupS)
	ops := median(r.Ops)
	steadyNs, steadyAllocs := 0.0, 0.0
	if steadyOps := ops - float64(r.SetupOps); steadyOps > 0 {
		steadyNs = (runS(r) - setupS) * 1e9 / steadyOps
		if steadyAllocs = (median(r.Allocs) - median(r.SetupAllocs)) / steadyOps; steadyAllocs < 0 {
			steadyAllocs = 0 // a probe that happened to allocate more than a repetition
		}
	}
	tailV, tailQ := tail(r.RunS)
	overhead := 0.0
	if medianS > 0 {
		overhead = 100 * (r.TracedRunS - medianS) / medianS
	}
	m.put("host.gc_cpu_pct", r.GCCPUPct, "%")
	m.put("host.gc_cycles", r.GCCycles, "count")
	m.put("host.peak_goroutines", r.PeakGoroutines, "count")
	m.put("host.steady_ns_per_simop", steadyNs, "ns")
	m.put("host.steady_allocs_per_simop", steadyAllocs, "count")
	m.put("host.run_s_median", medianS, "s")
	m.put("host.run_s_tail", tailV, "s")
	m.put("host.run_s_tail_q", tailQ, "%")
	m.put("host.run_s_iqr_pct", 100*iqrShare(r.RunS), "%")
	m.put("host.trace_overhead_pct", overhead, "%")
	m.put("host.watchdog_reruns", float64(len(r.Reruns)+len(ladder.Reruns)), "count")
	return m
}
