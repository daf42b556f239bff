package pgasbench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cafshmem/internal/fabric"
)

func TestPutLatencyShape(t *testing.T) {
	cfg := RawPutConfig{
		Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM,
		Library: LibSHMEM, Pairs: 1, Sizes: []int{8, 1024, 65536}, Iters: 10,
	}
	s, err := PutLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 {
		t.Fatalf("rows: %d", len(s.Rows))
	}
	if !(s.Rows[0].Value < s.Rows[2].Value) {
		t.Fatal("latency must grow with message size")
	}
	if s.Rows[0].Value < 0.5 || s.Rows[0].Value > 20 {
		t.Fatalf("8-byte put latency %v µs implausible", s.Rows[0].Value)
	}
}

func TestPutBandwidthSaturates(t *testing.T) {
	cfg := RawPutConfig{
		Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM,
		Library: LibSHMEM, Pairs: 1, Sizes: []int{4096, 4194304}, Iters: 10,
	}
	s, err := PutBandwidth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := s.Rows[1].Value
	// The MV2X-SHMEM profile models ~6 GB/s: the 4 MiB point must approach it.
	if big < 4500 || big > 6100 {
		t.Fatalf("4 MiB bandwidth %v MB/s should approach the 6 GB/s model", big)
	}
	if s.Rows[0].Value >= big {
		t.Fatal("bandwidth should improve with message size")
	}
}

func TestContentionReducesPerPairBandwidth(t *testing.T) {
	mk := func(pairs int) float64 {
		cfg := RawPutConfig{
			Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM,
			Library: LibSHMEM, Pairs: pairs, Sizes: []int{1048576}, Iters: 5,
		}
		s, err := PutBandwidth(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Rows[0].Value
	}
	one, sixteen := mk(1), mk(16)
	if sixteen >= one/8 {
		t.Fatalf("16 pairs (%v MB/s) should see far less per-pair bandwidth than 1 pair (%v)", sixteen, one)
	}
}

func TestRenderContainsSeries(t *testing.T) {
	f := Figure{
		ID: "T", Title: "test",
		Panels: []Panel{{
			Title: "p", XLabel: "x", YLabel: "y",
			Series: []Series{{Label: "s1", Rows: []Row{{X: 1, Value: 2.5}}}},
		}},
	}
	out := f.Render()
	for _, want := range []string{"T", "test", "s1", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestGeoMeanRatio(t *testing.T) {
	a := Series{Rows: []Row{{1, 2}, {2, 8}}}
	b := Series{Rows: []Row{{1, 1}, {2, 2}}}
	// ratios 2 and 4 -> geomean sqrt(8) ~ 2.828
	if r := GeoMeanRatio(a, b); r < 2.82 || r > 2.84 {
		t.Fatalf("geomean = %v", r)
	}
	if r := GeoMeanRatio(Series{}, Series{}); r != 1 {
		t.Fatalf("empty geomean = %v, want 1", r)
	}
}

// The overlap microbenchmark must show the defining property of nonblocking
// RMA in the virtual-time model: with compute equal to the wire time, the
// overlapped total is max-like (compute + fixed overheads), not sum-like
// (2x wire) — and never slower than blocking.
func TestOverlapMicroHidesTransfer(t *testing.T) {
	panel, err := OverlapMicro(OverlapConfig{
		Machine: fabric.Stampede(),
		Profile: fabric.ProfMV2XSHMEM,
		Sizes:   []int{4 << 10, 64 << 10, 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	blocking := panel.FindSeries("blocking put")
	overlap := panel.FindSeries("put_nbi overlap")
	if blocking == nil || overlap == nil {
		t.Fatal("missing series")
	}
	for i := range blocking.Rows {
		b, o := blocking.Rows[i].Value, overlap.Rows[i].Value
		if o >= b {
			t.Errorf("size %v: overlap %v µs not faster than blocking %v µs", blocking.Rows[i].X, o, b)
		}
		// blocking = wire + compute = 2x wire; ideal overlap = wire + o(1).
		// Demand at least 80% of the hideable half actually hidden at the
		// larger sizes (fixed overheads dominate the smallest).
		if blocking.Rows[i].X >= 64<<10 {
			if hidden := b - o; hidden < 0.8*(b/2) {
				t.Errorf("size %v: only %v of %v µs hidden", blocking.Rows[i].X, hidden, b/2)
			}
		}
	}
}

// The chaos flags ask for no plan when unset, draw the same plan from the same
// seed, and read back from a file the plan was written to as JSON.
func TestChaosPlan(t *testing.T) {
	plan := func(args ...string) *fabric.FaultPlan {
		fs := flag.NewFlagSet("bench", flag.ContinueOnError)
		c := ChaosFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		p, err := c.Plan(4, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seeded, again := plan("-faultseed", "7"), plan("-faultseed", "7")
	if none := plan(); none != nil || seeded == nil || !reflect.DeepEqual(seeded, again) {
		t.Fatalf("unset flags drew %v; seed 7 drew %v, then %v", none, seeded, again)
	}
	data, err := json.Marshal(seeded)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if read := plan("-faultplan", file); !reflect.DeepEqual(seeded, read) {
		t.Errorf("plan file read back as %v, wrote %v", read, seeded)
	}
}

// The profile flags write a profile each when set, and are inert when
// not: no file, nothing started.
func TestProfileFlags(t *testing.T) {
	parse := func(args ...string) *Profiles {
		fs := flag.NewFlagSet("cli", flag.ContinueOnError)
		p := ProfileFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return p
	}
	stop, err := parse().Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err = parse("-cpuprofile", cpu, "-memprofile", mem).Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, name := range []string{cpu, mem} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", filepath.Base(name), err)
		}
	}
	if _, err := parse("-cpuprofile", filepath.Join(dir, "no", "such", "dir")).Start(); err == nil {
		t.Error("a CPU profile that cannot be created starts without an error")
	}
}
