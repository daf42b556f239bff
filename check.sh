#!/bin/sh
# Extended tier-1 gate (see ROADMAP.md): build-and-test plus the gates that need
# a toolchain flag or a run, race and shuffled tests, fuzz smokes and the claims
# gate. The layering rules are rows of the root TestStructure, which go test
# ./... runs too. Run from the module root. `./check.sh fast` stops after the
# fast tier: build, vet, the gofmt gate, the structure rows, the inline and
# bounds-check gates, the write path, 5 s of every fuzz target and the deadlock
# loop (about a minute).
#
# `go test -race` and `-shuffle=on` run every test once; every other go test
# step adds a flag and selects by name, so a test joins it by its name alone:
#   TestDeadlock*       internal/pgas: -short -count=500 -cpu 1,2,8
#   TestDeterminism*    any package: -cpu 1,2,8
#   Fuzz*               any package: fuzzed 5 s (fast tier) or 10 s each
#   *SteadyStateAllocs  internal/caf: the write path, beside every test of
#                       internal/pgas and internal/fabric under -short
# The stress loop's three names and the two root benchmarks are the only
# lists. A selection that go test -list finds empty fails the gate.
set -eu

# selected PKG NAME: "package test" for each top-level test, fuzz target and
# benchmark in $listing (go test -list) whose import path matches the regular
# expression PKG and whose name matches NAME; exit, naming both, when there is
# none, so that renaming a test cannot empty a step.
selected() {
    found=$(printf '%s\n' "$listing" | awk -v pkg="$1" -v name="$2" '
        /^(Test|Fuzz|Benchmark|Example)/ { names[n++] = $1; next }
        $1 == "ok" { for (i = 0; i < n; i++) if ($2 ~ pkg && names[i] ~ name) print $2, names[i]; n = 0 }')
    if [ -z "$found" ]; then
        echo "check.sh: no test of the packages matching $1 matches $2; the naming conventions are in this file's header" >&2
        exit 1
    fi
    printf '%s\n' "$found"
}

# gate PKG NAME FLAGS...: go test FLAGS -run NAME over the packages where
# selected finds NAME.
gate() {
    found=$(selected "$1" "$2")
    name=$2
    shift 2
    go test "$@" -run "$name" $(printf '%s\n' "$found" | cut -d' ' -f1 | uniq)
}

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt gate (every Go file outside .bench_build/ is gofmt-clean)"
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "check.sh: the files below are not gofmt-clean; run gofmt -w on them:" >&2
    printf '%s\n' "$unformatted" >&2
    exit 1
fi

echo "==> structure rows (TestStructure in structure_test.go: the layering rules, one row each, over the syntax tree; DESIGN.md names each row's section)"
go test -count=1 -run '^TestStructure' .

echo "==> inline gate (the checks and clock steps on every operation's path stay inlinable: their panics and slow paths are kept out of line for that)"
inl=$(go build -gcflags=-m ./internal/caf ./internal/shmem ./internal/pgas ./internal/fabric 2>&1 | grep ': can inline ' || true)
while read -r dir fn; do
    if ! printf '%s\n' "$inl" | awk -v d="internal/$dir/" -v n=": can inline $fn" \
        'index($0, d) == 1 && length($0) >= length(n) && substr($0, length($0) - length(n) + 1) == n { found = 1 } END { exit !found }'; then
        echo "check.sh: internal/$dir: $fn is no longer reported \"can inline\" by go build -gcflags=-m" >&2
        exit 1
    fi
done <<'EOF_INLINE'
caf Range.Count
caf (*Image).checkImage
caf (*Image).xfer
caf (*Image).traceStart
caf (*Image).trace
shmem (*PE).checkTarget
shmem (*PE).RMA
shmem Sym.span
pgas (*PE).CheckHandle
pgas (*PE).linkPenalty
pgas checkRange
pgas (*World).ActivePairs
pgas (*tsPacked).rank
pgas (*tsPacked).raiseWord
pgas (*segBytes).window
pgas (*segBytes).holds
pgas (*RMA).Span
pgas reliable
fabric (*Clock).Advance
fabric (*Clock).MergeAtLeast
EOF_INLINE

echo "==> bounds-check gate (Himeno's row kernel, himeno.sweepRow, keeps the one bounds check it has, c[i+1]: no per-point index arithmetic)"
# -d=ssa/check_bce reports every check left after elimination, by line; the
# kernel's lines run from its func line to the first closing brace in column 1.
bce=$(go build -gcflags=-d=ssa/check_bce ./internal/himeno 2>&1 | grep '^internal/himeno/himeno\.go:.*Found IsInBounds' || true)
kernel=$(awk '/^func sweepRow\(/ { lo = NR } lo && !hi && /^}/ { hi = NR } END { print lo + 0, hi + 0 }' internal/himeno/himeno.go)
left=$(printf '%s\n' "$bce" | awk -F: -v range="$kernel" 'BEGIN { split(range, r, " ") } $2 > r[1] && $2 < r[2] { n++ } END { print n + 0 }')
if [ "${kernel% *}" = 0 ] || [ "$left" -gt 1 ]; then
    echo "check.sh: internal/himeno: sweepRow (lines $kernel of himeno.go) has $left bounds checks in its loop, at most 1 allowed (0 0 = kernel not found):" >&2
    printf '%s\n' "$bce" >&2
    exit 1
fi

echo "==> write path (every internal/pgas and internal/fabric test under -short: the cursor vs the Write sequence vs a flat model, the tabled gap vs math.Pow, range panics; every steady-state malloc ceiling of internal/caf, the strided put's included)"
listing=$(go test -list . ./...) # every go test step below selects from it
gate 'internal/(pgas|fabric)$' . -short -count=1
gate 'internal/caf$' 'SteadyStateAllocs$' -count=1

fuzztime=10s
[ "${1:-}" != fast ] || fuzztime=5s
echo "==> fuzz smoke (every fuzz target for $fuzztime: the paged store vs flat references on recycled pages, the typed byte view vs the element-wise oracle, two runs of a random program over seed x GOMAXPROCS x fault plan)"
fuzz=$(selected . '^Fuzz')
printf '%s\n' "$fuzz" | while read -r pkg target; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime" "$pkg"
done

echo "==> deadlock loop (every deterministic deadlock, the gated departure fan-out and a panicking PE's unwinding from under a partition lock, 500x at GOMAXPROCS 1, 2 and 8: the verdict is exact, so one miss, lost wake or lock left held hangs and one false alarm fails)"
# -short skips the 100k-image one, which the suite runs once.
gate 'internal/pgas$' '^TestDeadlock' -short -count=500 -cpu 1,2,8 -timeout 300s

if [ "${1:-}" = fast ]; then
    echo "check.sh: fast tier passed"
    exit 0
fi

echo "==> claims gate (every figure of pgasbench.Catalog rebuilt at default scale and held to pgasbench.Claims; exit status only)"
go run ./cmd/reproduce > /dev/null

echo "==> go test -race -count=1 ./..."
go test -race -count=1 ./...

echo "==> go test -shuffle=on -count=1 ./... (order-independence)"
go test -shuffle=on -count=1 ./...

echo "==> determinism gate (the same programs over barrier shard layouts or GOMAXPROCS of their own x two runs x GOMAXPROCS 1, 2 and 8: bit-identical virtual times and outcomes)"
gate . '^TestDeterminism' -count=1 -cpu 1,2,8

echo "==> no-false-deadlock stress (ping-pong, barrier storm, chaos DHT and the spin-lock hand-off at GOMAXPROCS 1, 2 and 8, plain and -race: any poison of a healthy world is a counting bug)"
stress='TestNoFalseDeadlock TestChaosDHT TestSpinLockSleepsUntilRelease'
for name in $stress; do
    selected 'internal/(pgas|caf|shmem)$' "^$name\$" > /dev/null
done
stress="^($(echo $stress | tr ' ' '|'))\$"
gate 'internal/(pgas|caf|shmem)$' "$stress" -count=10 -cpu 1,2,8 -timeout 300s
gate 'internal/(pgas|caf|shmem)$' "$stress" -race -count=2 -cpu 1,2,8 -timeout 600s

echo "==> 100k-image smoke (sharded-barrier panel, 1 iteration: completes, or the timeout fails it; ~5s on the reference machine)"
go test -run '^$' -bench '^BenchmarkWallclockScale/barrier/n=102400$' -benchtime 1x -timeout 180s .

echo "==> transport-matrix smoke (the root bench file's other panel, one iteration per backend, so it cannot rot unbuilt)"
go test -run '^$' -bench '^BenchmarkWallclockHimenoTransport$' -benchtime 1x -timeout 180s .

echo "check.sh: all gates passed"
