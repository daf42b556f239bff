package pgasbench

import (
	"flag"
	"os"

	"cafshmem/internal/fabric"
)

// Chaos holds the flags the application bench CLIs share for a chaos replay
// under a lossy-fabric fault plan.
type Chaos struct {
	planFile string
	seed     uint64
	Images   int
}

// ChaosFlags declares -faultplan, -faultseed and -chaos-images on fs; instead
// names what the tool runs without them.
func ChaosFlags(fs *flag.FlagSet, instead string) *Chaos {
	c := &Chaos{}
	fs.StringVar(&c.planFile, "faultplan", "", "JSON fault-plan file: run one chaos replay under the plan instead of "+instead)
	fs.Uint64Var(&c.seed, "faultseed", 0, "nonzero: chaos replay under a seeded lossy plan (drops, delay jitter, dups, one kill)")
	fs.IntVar(&c.Images, "chaos-images", 8, "image count for the chaos replay")
	return c
}

// Plan resolves the replay's fault plan: the JSON file when one is given,
// otherwise a plan drawn from the seed (one kill plus drop/jitter/dup rules on
// every link, over the virtual window [fromNs, 2 ms)). It returns nil when
// neither flag asks for a replay.
func (c *Chaos) Plan(fromNs float64) (*fabric.FaultPlan, error) {
	switch {
	case c.planFile != "":
		data, err := os.ReadFile(c.planFile)
		if err != nil {
			return nil, err
		}
		return fabric.DecodeFaultPlan(data)
	case c.seed != 0:
		return fabric.RandomLossPlan(c.seed, c.Images, 1, fromNs, 2_000_000), nil
	}
	return nil, nil
}
