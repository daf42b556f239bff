package pgasbench

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// Chaos holds the flags that ask for a chaos replay under a lossy-fabric
// fault plan instead of a figure.
type Chaos struct {
	planFile string
	seed     uint64
}

// ChaosFlags declares -faultplan and -faultseed on fs.
func ChaosFlags(fs *flag.FlagSet) *Chaos {
	c := &Chaos{}
	fs.StringVar(&c.planFile, "faultplan", "", "JSON fault-plan file: run one chaos replay of each selected application figure under the plan")
	fs.Uint64Var(&c.seed, "faultseed", 0, "nonzero: chaos replay under a seeded lossy plan (drops, delay jitter, dups, one kill)")
	return c
}

// Set reports whether either flag asks for a replay.
func (c *Chaos) Set() bool { return c.planFile != "" || c.seed != 0 }

// Plan resolves the replay's fault plan for images images: the JSON file when
// one is given, otherwise a plan drawn from the seed (one kill plus
// drop/jitter/dup rules on every link, over the virtual window [fromNs, 2 ms)).
// It returns nil when neither flag asks for a replay.
func (c *Chaos) Plan(images int, fromNs float64) (*fabric.FaultPlan, error) {
	switch {
	case c.planFile != "":
		data, err := os.ReadFile(c.planFile)
		if err != nil {
			return nil, err
		}
		return fabric.DecodeFaultPlan(data)
	case c.seed != 0:
		return fabric.RandomLossPlan(c.seed, images, 1, fromNs, 2_000_000), nil
	}
	return nil, nil
}

// ChaosReplay runs app once on images images under opts, whose FaultPlan is
// the replay's — on any transport: the failed-image model is one below the
// libraries — and prints what the fault machinery observed: the application's
// summary, then the per-link reliability forensics (retransmits, drops,
// given-up links). A legacy (non-STAT) operation that hits an exhausted link
// error-terminates the job. That is the designed escalation and a
// deterministic outcome of the plan, so it is printed as the replay's outcome,
// not returned as a failure.
//
// Whether the same plan replays bit-identically depends on the application:
// runs whose images meet only at barriers do (Himeno's), runs with contended
// locks do not (the DHT's; see dht.Replay).
func ChaosReplay(w io.Writer, app *App, opts caf.Options, images int) {
	fmt.Fprintf(w, "chaos replay: %d images, plan %v\n", images, opts.FaultPlan)
	summary, forensics, err := app.Replay(opts, images)
	if err != nil {
		fmt.Fprintf(w, "outcome: error termination — %v\n", err)
		return
	}
	fmt.Fprint(w, summary)
	if len(forensics) == 0 {
		fmt.Fprintln(w, "forensics: no lossy links exercised")
		return
	}
	fmt.Fprintln(w, "forensics (per directed link):")
	for _, r := range forensics {
		fmt.Fprintf(w, "  %v\n", r)
	}
}
