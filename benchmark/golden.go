package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json pins, per scale and workload, every value a repetition must
// reproduce exactly: virtual_ms and Gosa float bits, op counts, the DHT grand
// total, received-payload checksums, the paper_figures headline numbers, and
// (under "ladder") the ladder's target-memory checksums. None of them depends
// on -seed: the seed only reorders work whose result is order-free, and the
// DHT key streams are additionally checked against the generated inputs.
// `go run ./benchmark golden` regenerates the file; measuring never writes it.
//
//go:embed golden.json
var goldenJSON []byte

// goldenFile maps scale -> workload (or "ladder") -> check name -> exact value.
type goldenFile map[string]map[string]map[string]string

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (g goldenFile) want(sc *scale, name string) map[string]string { return g[sc.name][name] }

// generateGolden runs every workload and the ladder once per scale and writes
// what they produced as the new pinned values.
func generateGolden(path string) error {
	g := goldenFile{}
	for _, sc := range []*scale{&fullScale, &toyScale} {
		in := makeInputs(sc, 1)
		g[sc.name] = map[string]map[string]string{}
		for _, w := range workloads {
			out, err := w.run(job{sc: sc, in: in})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", sc.name, w.name, err)
			}
			if len(out.problems) > 0 {
				return fmt.Errorf("%s/%s: %v", sc.name, w.name, out.problems)
			}
			g[sc.name][w.name] = out.checks
			fmt.Fprintf(os.Stderr, "golden: %s/%s pinned (%d values)\n", sc.name, w.name, len(out.checks))
		}
		_, checks, err := runLadder(sc, in, nil, -1)
		if err != nil {
			return fmt.Errorf("%s/ladder: %w", sc.name, err)
		}
		g[sc.name]["ladder"] = checks
		fmt.Fprintf(os.Stderr, "golden: %s/ladder pinned (%d values)\n", sc.name, len(checks))
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
