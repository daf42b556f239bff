#!/bin/sh
# Extended tier-1 gate (see ROADMAP.md): build-and-test plus the repo's
# structural gates, race and shuffled tests, fuzz smokes and the claims gate.
# Run from the module root. `./check.sh fast` stops after the fast tier: build,
# vet, the gofmt, unsafe, host-clock, one-command, one-pool, one-issue-core,
# one-fault-model, one-heap, one-funnel, one-checker, one-copy, one-lock,
# word-offset, one-engine, per-rank-table, inline and bounds-check gates, the
# write path, 5 s of every fuzz target and the deadlock loop (about a minute).
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

echo "==> unsafe gate (the one reinterpretation site is internal/pgas/codec.go; DESIGN.md \"Memory representation\")"
if grep -rl --include='*.go' --exclude='*_test.go' '"unsafe"' . | grep -vx './internal/pgas/codec.go'; then
    echo "check.sh: the files above import unsafe; only internal/pgas/codec.go may" >&2
    exit 1
fi

echo "==> host-clock gate (no verdict, cost or schedule under internal/ may depend on host time: virtual time is the only clock)"
if grep -rl --include='*.go' --exclude='*_test.go' '"time"' internal; then
    echo "check.sh: the files above import time; nothing under internal/ may, outside tests" >&2
    exit 1
fi

echo "==> one-command gate (the evaluation has one driver: cmd/ holds only cmd/reproduce, and outside benchmark/ only it and internal/pgasbench import flag)"
cmds=$(ls -A cmd)
flags=$(grep -rlE --include='*.go' --exclude='*_test.go' '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"flag"[[:space:]]*$' . |
    grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' -e '^\./cmd/reproduce/' -e '^\./internal/pgasbench/' || true)
if [ "$cmds" != reproduce ] || [ -n "$flags" ]; then
    echo "check.sh: cmd/ must hold one directory, reproduce (holds: $(echo $cmds)); a figure, sweep or replay is a pgasbench.Catalog entry, not a command. Files importing flag outside cmd/reproduce, internal/pgasbench and benchmark/:" >&2
    printf '%s\n' "$flags" >&2
    exit 1
fi

echo "==> one-pool gate (the figures run their independent worlds through one helper, pgasbench's parallel: no go statement in non-test internal/pgasbench outside parallel.go; DESIGN.md \"Host-performance model\")"
if grep -nE '(^|[{;])[[:space:]]*go[[:space:]]+[A-Za-z_(]' $(ls internal/pgasbench/*.go | grep -v -e '_test\.go$' -e '/parallel\.go$'); then
    echo "check.sh: the lines above start goroutines in internal/pgasbench; a builder runs its worlds through parallel (parallel.go), which bounds them by GOMAXPROCS and keeps panels in order" >&2
    exit 1
fi

echo "==> one-issue-core gate (a put or get of any library is priced by the library and sent, booked and landed by pgas.PE.Issue; how its messages cross a link is decided in pgas.World.Transmit; DESIGN.md \"Fault model\")"
# Outside internal/fabric, non-test code may consult FaultPlan.LossyPair and
# FaultPlan.Deliver in exactly one function, the same one for both, and may
# call that function, Transmit, from exactly one other, in internal/pgas.
sites=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/fabric/*' ! -path './.bench_build/*' -exec awk '
    FNR == 1 { fn = "" }
    /^func / { fn = $0 }
    /^[[:space:]]*\/\// { next }
    /LossyPair\(/ { print FILENAME ": " fn " [LossyPair]" }
    /\.Deliver\(/ { print FILENAME ": " fn " [Deliver]" }
    /\.Transmit\(/ { print FILENAME ": " fn " [Transmit]" }' {} +)
delivery=$(printf '%s\n' "$sites" | grep -v ' \[Transmit\]$' || true)
if [ "$(printf '%s\n' "$delivery" | sed 's/ \[[A-Za-z]*\]$//' | sort -u | grep -c .)" != 1 ] ||
    [ "$(printf '%s\n' "$delivery" | grep -c .)" != 2 ]; then
    echo "check.sh: LossyPair and Deliver must each be consulted once, in one function, outside internal/fabric; found:" >&2
    printf '%s\n' "$delivery" >&2
    exit 1
fi
callers=$(printf '%s\n' "$sites" | grep ' \[Transmit\]$' || true)
if [ "$(printf '%s\n' "$callers" | grep -c '^\./internal/pgas/')" != 1 ] || [ "$(printf '%s\n' "$callers" | grep -c .)" != 1 ]; then
    echo "check.sh: Transmit must be called from exactly one function, the issue core's in internal/pgas; found:" >&2
    printf '%s\n' "$callers" >&2
    exit 1
fi
# The libraries move no put's or get's bytes themselves. The sites that stay
# outside the core are not puts and gets: GASNet's AM Token accessors
# (internal/gasnet/am.go), the atomics of all three libraries, and shmem's
# reads and writes of the caller's own partition (collectives.go, Ptr).
if grep -n -e 'pw\.Write(' -e 'pw\.WriteUint64(' -e 'pw\.Read(' internal/gasnet/extended.go internal/mpi3/rma.go ||
    grep -rn --include='*.go' --exclude='*_test.go' -E '\.(WriteRuns|WriteV|RepairWrite|ReadRuns|ReadV|ReadUint64Ts)\(' internal/shmem internal/gasnet internal/mpi3 internal/caf; then
    echo "check.sh: the lines above move a put's or get's bytes outside pgas.PE.Issue; a library fills a pgas.RMA, prices it and issues it (exempt: gasnet/am.go's Token accessors and the atomics)" >&2
    exit 1
fi
# shmem's issue.go keeps the library's half only, and the closure-driven lossy
# fork that used to sit beside every shmem put and get (func(at float64)
# inside func(wire float64)) must not come back.
if grep -n -E '^func \([a-z]+ \*?[A-Za-z]+\) (send|land|fetch)\(' internal/shmem/issue.go ||
    grep -rn --include='*.go' -e 'func(at float64)' -e 'func(wire float64)' internal/shmem; then
    echo "check.sh: the lines above bring a second issue path back into internal/shmem; send, land and fetch live in internal/pgas/issue.go and every put and get goes through Ctx.issue" >&2
    exit 1
fi

echo "==> one-fault-model gate (the fault plan belongs to the pgas world and the STAT ladder lives below the libraries, so no library keeps a plan of its own and no transport is without fault support; DESIGN.md \"Fault model\")"
# A library that names FaultPlan outside its tests holds a second plan beside
# pgas.Options'; a FaultStat anywhere is the capability split coming back.
faultplan=$(grep -rn --include='*.go' --exclude='*_test.go' -w 'FaultPlan' internal/shmem internal/gasnet internal/mpi3 || true)
faultstat=$(grep -rn --include='*.go' -w 'FaultStat' . | grep -v -e '^\./\.bench_build/' || true)
if [ -n "$faultplan" ] || [ -n "$faultstat" ]; then
    echo "check.sh: the fault plan is pgas.Options' alone and every transport reports failed images; found:" >&2
    printf '%s\n' "$faultplan" "$faultstat" >&2
    exit 1
fi

echo "==> one-heap gate (every library allocates and frees through its world's one symmetric heap, pgas.World.Alloc and Free, whose live set the sanitizer reads; DESIGN.md \"Correctness tooling\")"
# An allocator break, a library's own heap type or a second live-allocation
# record outside internal/pgas is a second allocator coming back, and
# World.Shared was the slot a library kept one in.
heaps=$(grep -rnw --include='*.go' --exclude='*_test.go' -E 'brk|symHeap|winHeap|NoteAlloc|NoteFree' . | grep -v -e '^\./internal/pgas/' -e '^\./\.bench_build/' || true)
shared=$(grep -rn --include='*.go' -E '^func \(w \*World\) Shared\(' . | grep -v -e '^\./\.bench_build/' || true)
if [ -n "$heaps" ] || [ -n "$shared" ]; then
    echo "check.sh: symmetric memory has one allocator, pgas.World.Alloc/Free; found:" >&2
    printf '%s\n' "$heaps" "$shared" >&2
    exit 1
fi

echo "==> one-funnel gate (every library takes every transfer shape: the runtime hands each transfer to its backend at one site, and caf.Caps has no shape bits; DESIGN.md \"Shared fallback\")"
# A per-run or per-element loop in the funnel would be a second call site, and
# the bits it was keyed on would be Caps fields.
rma=$(grep -rn --include='*.go' --exclude='*_test.go' -F 'img.be.rma(' internal/caf || true)
caps=$(awk '/^type Caps struct/ { body = 1 } body && /^}/ { body = 0 } body' internal/caf/transport.go | grep -n -E '\b(Vectored|Strided)\b' || true)
if [ "$(printf '%s\n' "$rma" | grep -c .)" != 1 ] || [ -n "$caps" ]; then
    echo "check.sh: img.be.rma( must appear exactly once in internal/caf and caf.Caps must declare no Vectored or Strided; found:" >&2
    printf '%s\n' "$rma" "$caps" >&2
    exit 1
fi

echo "==> one-checker gate (every library completes through pgas.PE.Drain/DrainTarget, which discharge the sanitizer's records, and caf.Caps has no Sanitizer bit: the sanitizer runs on every transport; DESIGN.md \"Correctness tooling\")"
# A stream set's own Drain() or DrainTarget(t) outside internal/pgas and
# internal/fabric would complete puts the sanitizer still holds outstanding.
drains=$(grep -rn --include='*.go' --exclude='*_test.go' -E '\.(Drain\(\)|DrainTarget\([^,()]*\))' . | grep -v -e '^\./internal/pgas/' -e '^\./internal/fabric/' -e '^\./benchmark/' -e '^\./\.bench_build/' || true)
caps=$(awk '/^type Caps struct/ { body = 1 } body && /^}/ { body = 0 } body' internal/caf/transport.go | grep -n -w 'Sanitizer' || true)
if [ -n "$drains" ] || [ -n "$caps" ]; then
    echo "check.sh: no library drains a stream set itself and caf.Caps declares no Sanitizer; found:" >&2
    printf '%s\n' "$drains" "$caps" >&2
    exit 1
fi

echo "==> one-copy gate (a put's bytes are copied once, into the target partition, by the issue core; a nonblocking put has landed when it returns, so internal/caf copies no payload; DESIGN.md \"Who copies when\")"
# caf used to snapshot every nonblocking put into a fresh buffer through a
# payload(vals, nbi) helper; neither the copy nor the helper's nbi may return.
copies=$(grep -rn --include='*.go' --exclude='*_test.go' -E 'append\(\[\]byte\(nil\)|\b(bytes|slices)\.Clone\(|func payload[^(]*\([^)]*\bnbi\b' internal/caf || true)
if [ -n "$copies" ]; then
    echo "check.sh: internal/caf copies a payload; hand the funnel the caller's bytes (pgas.Bytes), which the issue core lands before it returns:" >&2
    printf '%s\n' "$copies" >&2
    exit 1
fi

echo "==> one-lock gate (the repairable MCS lock is the only MCS lock and the failed-image machinery has no switch: no second lock file, no mode knob, one tracer kind per operation; DESIGN.md \"Fault model\")"
# get_stat is the lock repair's forensic read, an operation of its own; every
# other STAT form records its plain twin's kind.
knob='\b(FaultTolerant|ftMode|ftQnodeBytes)\b|"[A-Za-z0-9_]*_stat"'
onelock=$(grep -rn --include='*.go' --exclude='*_test.go' -E "$knob" . | grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' | sed 's/"get_stat"//g' | grep -E "$knob" || true)
if [ -n "$onelock" ] || [ -e internal/caf/lockstat.go ]; then
    echo "check.sh: one MCS lock, always repairable, and no fault-tolerance switch; found (or internal/caf/lockstat.go exists):" >&2
    printf '%s\n' "$onelock" >&2
    exit 1
fi

echo "==> word-offset gate (every atomic, wait, lock and signal word of internal/shmem is addressed by PE.wordOff, which bounds-checks all 8 bytes and checks the handle under the sanitizer)"
words=$(grep -rn --include='*.go' --exclude='*_test.go' -E '\.At\(int64\([^()]*(\([^()]*\))?[^()]*\) *\* *8\)' internal/shmem || true)
if [ -n "$words" ]; then
    echo "check.sh: these lines compute a word's offset with Sym.At, which checks one byte; use PE.wordOff:" >&2
    printf '%s\n' "$words" >&2
    exit 1
fi

echo "==> one-engine gate (a goroutine per image and one sleep, PE.block on the PE's own condition variable, a remote spin's included: nothing outside benchmark/ yields instead of sleeping; DESIGN.md \"Execution engine\")"
# The names benchmark/ still spells are declared once, deprecated and ignored,
# and read by nothing else outside tests; and the machinery of a second
# scheduler (a wake channel on PE, a sched, a condition variable that is not
# PE.cond) must not come back into internal/pgas.
names=$(grep -rn --include='*.go' --exclude='*_test.go' -E 'EngineEvent|EngineGoroutine' . | grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' || true)
if [ "$(printf '%s\n' "$names" | grep -c '^\./internal/pgas/engine\.go:')" != 2 ] || [ "$(printf '%s\n' "$names" | grep -c .)" != 2 ]; then
    echo "check.sh: EngineEvent and EngineGoroutine may appear only in their deprecated declaration (internal/pgas/engine.go), outside benchmark/ and tests; found:" >&2
    printf '%s\n' "$names" >&2
    exit 1
fi
second=$(grep -n -E 'chan struct\{\}|\bsched\b|sync\.NewCond|sync\.Cond' $(ls internal/pgas/*.go | grep -v '_test\.go$') | grep -v -E '^internal/pgas/world\.go:[0-9]+:[[:space:]]+cond sync\.Cond ' || true)
if [ -n "$second" ]; then
    echo "check.sh: internal/pgas has one way to sleep, PE.cond; the lines above bring back a second scheduler's machinery:" >&2
    printf '%s\n' "$second" >&2
    exit 1
fi
yields=$(grep -rn --include='*.go' --exclude='*_test.go' -E '\bGosched\b|\.Yield\(' . | grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' || true)
if [ -n "$yields" ]; then
    echo "check.sh: a PE that waits sleeps in PE.block (a remote spin through pgas.PE.Spin), it does not yield; the lines above name Gosched or Yield:" >&2
    printf '%s\n' "$yields" >&2
    exit 1
fi

echo "==> per-rank-table gate (every layer's per-rank handle is an element of one table per world, built by the world's constructor and initialised in place: no handle is allocated on its own; DESIGN.md \"Host-performance model\")"
perrank=$(grep -rn --include='*.go' --exclude='*_test.go' -E '&([a-z0-9]+\.)?(PE|EP|Proc|Image|shmemBackend|gasnetBackend|mpi3Backend|nsAlloc)\{' internal || true)
if [ -n "$perrank" ]; then
    echo "check.sh: these lines allocate a per-rank handle on its own; make it an element of its world's table:" >&2
    printf '%s\n' "$perrank" >&2
    exit 1
fi

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
pgas (*tsPacked).rank
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

echo "==> deadlock loop (every deterministic deadlock and the gated departure fan-out, 500x at GOMAXPROCS 1, 2 and 8: the verdict is exact, so one miss or lost wake hangs and one false alarm fails)"
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
