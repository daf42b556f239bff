package pgas_test

import (
	"strings"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/gasnet"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// TestMalformedGeometryPanicsInPgas: a vectored or strided descriptor whose
// geometry is malformed is refused by the one check every library runs,
// pgas.RMA.Span, before any library looks at its region — on all three, with
// the same words.
func TestMalformedGeometryPanicsInPgas(t *testing.T) {
	bad := map[string]struct {
		d    pgas.RMA
		want string
	}{
		"runs of no bytes":    {pgas.RMA{Shape: pgas.Runs, Target: 1, Offs: []int64{0}, Unit: 0}, "do not match 1 runs of 0 bytes"},
		"runs short of local": {pgas.RMA{Shape: pgas.Runs, Target: 1, Offs: []int64{0, 16}, Unit: 8, Local: make([]byte, 8)}, "do not match 2 runs"},
		"partial element":     {pgas.RMA{Shape: pgas.Strided, Target: 1, Stride: 16, Unit: 8, Local: make([]byte, 12)}, "not whole 8-byte elements"},
		"tight stride":        {pgas.RMA{Get: true, Shape: pgas.Strided, Target: 1, Stride: 4, Unit: 8, Local: make([]byte, 16)}, "stride 4 is smaller than the 8-byte element"},
	}
	st := fabric.Stampede()
	libs := map[string]func(d pgas.RMA) error{
		"shmem": func(d pgas.RMA) error {
			return shmem.Run(shmem.Config{Machine: st, Profile: fabric.ProfMV2XSHMEM}, 2, func(pe *shmem.PE) {
				sym := pe.Malloc(64)
				if pe.MyPE() == 0 {
					pe.RMA(&d, sym, false)
				}
			})
		},
		"gasnet": func(d pgas.RMA) error {
			return gasnet.Run(gasnet.Config{Machine: st, Profile: fabric.ProfGASNetIBV}, 2, func(ep *gasnet.EP) {
				seg := ep.Malloc(64)
				if ep.MyNode() == 0 {
					ep.RMA(&d, seg, false)
				}
			})
		},
		"mpi3": func(d pgas.RMA) error {
			return mpi3.Run(mpi3.Config{Machine: st, Profile: fabric.ProfMV2XMPI3}, 2, func(pr *mpi3.Proc) {
				win := pr.WinAllocate(64)
				if pr.Rank() == 0 {
					pr.LockAll(win)
					pr.RMA(win, &d)
				}
			})
		},
	}
	for lib, issue := range libs {
		for name, tc := range bad {
			err := issue(tc.d)
			if err == nil || !strings.Contains(err.Error(), "pgas: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s: got %v, want the pgas geometry panic %q", lib, name, err, tc.want)
			}
		}
	}
}
