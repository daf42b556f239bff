package caf_test

import (
	"fmt"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/caf/conformance"
	"cafshmem/internal/pgas"
)

// A collCall is one CO_* call of a fuzzed sequence.
type collCall struct {
	kind int  // collSum, collMin, collMax, collReduce or collBroadcast
	team bool // over the image's parity team instead of the whole job
	typ  int  // element type: int64, float64, int32 or byte
	n    int  // elements
	sel  int  // picks the source image, or the result image (or all images)
}

const (
	collSum = iota
	collMin
	collMax
	collReduce
	collBroadcast
	collKinds
)

var collTypes = []string{"int64", "float64", "int32", "byte"}

// decodeCalls turns fuzz bytes into 3 to 12 calls, three bytes each; bytes
// past the end read as zero.
func decodeCalls(data []byte) []collCall {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	calls := make([]collCall, 3+at(0)%10)
	for i := range calls {
		a, b, c := at(1+3*i), at(2+3*i), at(3+3*i)
		calls[i] = collCall{kind: a % collKinds, team: a/collKinds%2 == 1, typ: a / 10 % len(collTypes), n: 1 + b%16, sel: c}
		if b >= 240 { // large enough to grow the whole-job staging at 16 images
			calls[i].n = 200
		}
	}
	return calls
}

func (c collCall) String() string {
	where := "world"
	if c.team {
		where = "team"
	}
	return fmt.Sprintf("%s %s %s[%d] sel=%d", []string{"sum", "min", "max", "reduce", "broadcast"}[c.kind], where, collTypes[c.typ], c.n, c.sel)
}

// FuzzCollectiveSequence: any CO_* call may follow any other with no
// synchronisation between them (Fortran 2018). A sequence of whole-job and
// team calls of every kind, element type, length, source and result image
// runs back to back on every transport at several image counts, and every
// image's array after each call must equal the serial fold of the members'
// contributions — a result image's peers included, since they hold the
// result too.
func FuzzCollectiveSequence(f *testing.F) {
	f.Add([]byte{2, collSum, 1, 0, collBroadcast, 1, 1, collSum, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		calls := decodeCalls(data)
		for _, tc := range conformance.Cases() {
			for _, n := range []int{1, 2, 3, 4, 7, 16} {
				err := caf.Run(n, tc.Opts(), func(img *caf.Image) {
					tm := img.FormTeam(int64(img.ThisImage() % 2))
					for i, c := range calls {
						var bad string
						switch c.typ {
						case 0:
							bad = runCall[int64](img, tm, i, c)
						case 1:
							bad = runCall[float64](img, tm, i, c)
						case 2:
							bad = runCall[int32](img, tm, i, c)
						default:
							bad = runCall[byte](img, tm, i, c)
						}
						if bad != "" {
							t.Errorf("%s, %d images, image %d, call %d (%v): %s", tc.Name, n, img.ThisImage(), i, c, bad)
						}
					}
					img.SyncAll()
				})
				if err != nil {
					t.Fatalf("%s, %d images, calls %v: %v", tc.Name, n, calls, err)
				}
			}
		}
	})
}

// runCall makes call i on this image and returns what differs from the serial
// fold, or "".
func runCall[T pgas.Elem](img *caf.Image, tm *caf.Team, i int, c collCall) string {
	size, member := img.NumImages(), func(k int) int { return k }
	if c.team {
		size, member = tm.NumImages(), tm.GlobalImage
	}
	contrib := func(image, j int) T { return T((image*7+i*13+j*3)%11 + 1) }
	vals := make([]T, c.n)
	for j := range vals {
		vals[j] = contrib(img.ThisImage(), j)
	}
	op := func(a, b T) T { return a + b }
	switch c.kind {
	case collMin:
		op = func(a, b T) T { return min(a, b) }
	case collMax:
		op = func(a, b T) T { return max(a, b) }
	case collReduce:
		op = func(a, b T) T { return a + b + 1 }
	}
	want := make([]T, c.n)
	for j := range want {
		if c.kind == collBroadcast {
			want[j] = contrib(member(1+c.sel%size), j)
			continue
		}
		want[j] = contrib(member(1), j)
		for k := 2; k <= size; k++ {
			want[j] = op(want[j], contrib(member(k), j))
		}
	}
	result := 0
	if c.sel%2 == 1 {
		result = 1 + c.sel/2%size
	}
	switch {
	case c.kind == collBroadcast && c.team:
		caf.CoBroadcastTeam(tm, vals, 1+c.sel%size)
	case c.kind == collBroadcast:
		caf.CoBroadcast(img, vals, 1+c.sel%size)
	case c.kind == collSum && c.team:
		caf.CoSumTeam(tm, vals, result)
	case c.kind == collSum:
		caf.CoSum(img, vals, result)
	case c.kind == collMin && c.team:
		caf.CoMinTeam(tm, vals, result)
	case c.kind == collMin:
		caf.CoMin(img, vals, result)
	case c.kind == collMax && c.team:
		caf.CoMaxTeam(tm, vals, result)
	case c.kind == collMax:
		caf.CoMax(img, vals, result)
	case c.team:
		caf.CoReduceTeam(tm, vals, op, result)
	default:
		caf.CoReduce(img, vals, op, result)
	}
	for j := range want {
		if vals[j] != want[j] {
			return fmt.Sprintf("element %d = %v, want %v", j, vals[j], want[j])
		}
	}
	return ""
}
