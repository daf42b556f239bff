package main

import (
	"bytes"
	"cmp"
	"regexp"
	"strings"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/pgasbench"
)

// reproduce runs the command in process and returns its exit status and
// both output streams.
func reproduce(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// A selected figure is printed as its builder renders it.
func TestFigureIsRenderedVerbatim(t *testing.T) {
	code, out, errOut := reproduce("-fig", "8", "-images", "256")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	fig := pgasbench.Fig8(256)
	if want := fig.Render(); !strings.Contains(out, want) {
		t.Errorf("output does not carry Fig8(256).Render():\n%s\nwant:\n%s", out, want)
	}
}

// A bad selection is a usage error that names what was wrong: an unknown
// figure, an application flag on a figure with no application behind it,
// which must not quietly print the plain figure instead, or a negative image
// count.
func TestBadSelectionExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "8,nosuchfig"},
		{"-fig", "2", "-transport", "gasnet"},
		{"-fig", "matrix", "-faultseed", "42"},
		{"-images", "-4"},
	} {
		code, out, errOut := reproduce(args...)
		name := args[1][strings.LastIndex(args[1], ",")+1:]
		if code != 2 || !strings.Contains(errOut, name) || strings.Contains(out, "==") {
			t.Errorf("%q: exit %d, stderr %q, %d bytes of stdout; want exit 2 naming %q and no figure",
				args, code, errOut, len(out), name)
		}
	}
}

// hostCounters matches what follows the host rather than the model: goroutine
// sleeps, fresh and cleared memory, wall time.
var hostCounters = regexp.MustCompile(`\d+ sleeps|\d+ KiB of it new memory|\d+ KiB cleared on hand-out|took [^\]]*\]`)

// A barrier-mediated chaos replay is the same run twice, apart from the host
// counters: on the Cray XC30 over Cray SHMEM, and with -transport on each
// other Stampede backend.
func TestHimenoChaosReplayRepeats(t *testing.T) {
	for _, transport := range []string{"", "gasnet", "mpi3"} {
		t.Run(cmp.Or(transport, "xc30"), func(t *testing.T) {
			args := []string{"-fig", "10", "-faultseed", "42", "-images", "4"}
			if transport != "" {
				args = append(args, "-transport", transport)
			}
			var outs [2]string
			for i := range outs {
				code, out, errOut := reproduce(args...)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut)
				}
				outs[i] = hostCounters.ReplaceAllString(out, "#")
			}
			if !strings.Contains(outs[0], "chaos replay: 4 images") || !strings.Contains(outs[0], "stat=") {
				t.Fatalf("no replay printed:\n%s", outs[0])
			}
			if outs[0] != outs[1] {
				t.Errorf("two replays of seed 42 differ:\n%s\n---\n%s", outs[0], outs[1])
			}
		})
	}
}

// -tables prints Table II whole.
func TestTablesPrintEveryProperty(t *testing.T) {
	code, out, errOut := reproduce("-tables")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, r := range caf.TableII() {
		if !strings.Contains(out, r.Property) {
			t.Errorf("Table II property %q not printed", r.Property)
		}
	}
	if strings.Contains(out, "################") {
		t.Error("-tables alone ran figures too")
	}
}
