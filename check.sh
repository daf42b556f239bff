#!/bin/sh
# Extended tier-1 gate (see ROADMAP.md): build-and-test plus the repo's
# correctness tooling. Run from the module root. `./check.sh fast` stops after
# the fast tier: build, vet, the unsafe, host-clock, one-issue-core,
# one-engine, inline and bounds-check gates, the gates on the write path and
# the deadlock loop (about half a minute).
set -eu

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

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

echo "==> one-engine gate (a goroutine per image and one sleep, PE.block on the PE's own condition variable; DESIGN.md \"Execution engine\")"
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
pgas (*segStore).block
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

echo "==> write-path gates (cursor vs Write sequence vs flat model; tabled gap vs math.Pow; strided put allocates nothing; range panics)"
go test -count=1 -run '^(TestVectoredWritesMatchWriteSequence|TestWriteNegativeOffsetPanics)$' ./internal/pgas
go test -count=1 -run '^TestTabledGapIsBitIdentical$' ./internal/fabric
go test -count=1 -run '^TestStridedPutSteadyStateAllocs$' ./internal/caf

echo "==> fuzz smoke, fast tier (the one paged store, bytes and timestamps, vs flat references on recycled pages; 5s each)"
go test -run '^$' -fuzz '^FuzzSegStore$' -fuzztime 5s ./internal/pgas
go test -run '^$' -fuzz '^FuzzTsIndex$' -fuzztime 5s ./internal/pgas

echo "==> deadlock loop (every deterministic deadlock and the gated departure fan-out, 500x at GOMAXPROCS 1, 2 and 8: the verdict is exact, so one miss or lost wake hangs and one false alarm fails)"
# -short skips the 100k-image one, which the suite runs once.
timeout 300 go test -short -count=500 -cpu 1,2,8 -run '^TestDeadlock' ./internal/pgas

if [ "${1:-}" = fast ]; then
    echo "check.sh: fast tier passed"
    exit 0
fi

echo "==> claims gate (every figure of pgasbench.Catalog rebuilt at default scale and held to pgasbench.Claims; exit status only)"
go run ./cmd/reproduce > /dev/null

echo "==> shmemvet (PGAS static analysis; exit code gates, JSON artifact kept)"
# The run is budgeted: the interprocedural pass over the whole module must
# stay interactive (the baseline is ~2s; 60s leaves headroom for cold
# build caches) or the gate fails even if no findings are reported.
san_start=$(date +%s)
go run ./cmd/shmemvet -json ./... > shmemvet.json
san_elapsed=$(( $(date +%s) - san_start ))
echo "    shmemvet clean in ${san_elapsed}s (artifact: shmemvet.json)"
if [ "$san_elapsed" -gt 60 ]; then
    echo "check.sh: shmemvet took ${san_elapsed}s, budget is 60s" >&2
    exit 1
fi

echo "==> analyzer self-tests (all fixtures incl. interprocedural, shuffled)"
go test -shuffle=on -count=1 ./internal/analysis

echo "==> go test -race -count=1 ./..."
go test -race -count=1 ./...

echo "==> go test -shuffle=on -count=1 ./... (order-independence)"
go test -shuffle=on -count=1 ./...

echo "==> fuzz smoke (typed byte view vs the element-wise oracle, 10s; the paged store's two targets ran in the fast tier)"
go test -run '^$' -fuzz '^FuzzBytesView$' -fuzztime 10s ./internal/pgas

echo "==> fuzz smoke (random program, two runs over seed x barrier shard layout x fault plan: equal outcomes, no deadlock verdict; 10s)"
go test -run '^$' -fuzz '^FuzzEngineDifferential$' -fuzztime 10s ./internal/caf

echo "==> no-false-deadlock stress (ping-pong, barrier storm, chaos DHT and the spin-lock hand-off at GOMAXPROCS 1, 2 and 8, plain and -race: any poison of a healthy world is a counting bug)"
timeout 300 go test -count=10 -cpu 1,2,8 -run '^(TestNoFalseDeadlock|TestChaosDHT|TestSpinLockYieldsWorkerSlot)$' ./internal/pgas ./internal/caf ./internal/shmem
timeout 600 go test -race -count=2 -cpu 1,2,8 -run '^(TestNoFalseDeadlock|TestChaosDHT|TestSpinLockYieldsWorkerSlot)$' ./internal/pgas ./internal/caf ./internal/shmem

echo "==> overlap smoke (put_nbi hides transfer; Himeno overlap beats blocking)"
go test -run 'TestOverlapMicroHidesTransfer' -count=1 ./internal/pgasbench
go test -run 'TestOverlapFasterOnAllMachines' -count=1 ./internal/himeno

echo "==> signal smoke (barrier-free Himeno beats the barrier-paced overlap)"
go test -run 'TestSignalOverlapFasterThanBarrierOverlap' -count=1 ./internal/himeno

echo "==> transport conformance (shared battery, per-transport, bounded wall time)"
# Every transport runs the full semantic battery on its own budget, so a
# hang in one backend names that backend instead of stalling the gate. The
# transports are TestConformance's first-level subtests (conformance.Cases):
# a new backend is gated by being listed there, not here.
transports=$(timeout 120 go test -run '^TestConformance$' -v -count=1 ./internal/caf/conformance |
    sed -n 's|^=== RUN   TestConformance/\([^/]*\)$|\1|p')
[ -n "$transports" ] || { echo "check.sh: TestConformance has no per-transport subtests" >&2; exit 1; }
for tr in $transports; do
    timeout 120 go test -run "^TestConformance/${tr}$" -count=1 ./internal/caf/conformance
done

echo "==> transport differential gate (bit-exact blocking paths, pinned divergences: every Test...Exact)"
timeout 120 go test -run 'Exact$' -count=1 ./internal/caf/conformance

echo "==> chaos-loss smoke (lossy fabric: retransmit/dup/kill replays, bounded wall time)"
# A retry-exhaustion bug would show up as a hang; the timeout turns that
# into a failure instead of a stuck gate.
timeout 120 go test -race -run 'TestChaosLoss|TestRetryExhaustion|TestLossyReplayIdentical' -count=1 ./internal/caf ./internal/shmem

echo "==> loss-free golden gate (nil plan vs loss-free plan: bit-identical virtual times; every put/get shape of all three libraries vs the clocks captured before the one issue core, shmem's also under lossy, exhausting and degraded-link plans; one link penalty per message)"
go test -run 'TestLossFreePlanBitIdentical|TestLossyGolden|TestGASNetShapesGolden|TestMPI3ShapesGolden|TestLinkPenaltyEveryShape|TestIssueAtMatchesIssue|TestLinkPenaltyWindowBackCompat' -count=1 ./internal/shmem ./internal/gasnet ./internal/mpi3 ./internal/fabric

echo "==> determinism gate (the same program over barrier shard layouts x two runs x GOMAXPROCS 1, 2 and 8: bit-identical virtual times and outcomes)"
go test -run 'TestEventEngineMatchesGoroutine' -count=1 -cpu 1,2,8 ./internal/pgas
go test -run 'TestEngineDifferential' -count=1 -cpu 1,2,8 ./internal/caf
go test -run 'TestHimenoGoldensOnEventEngine' -count=1 -cpu 1,2,8 ./internal/himeno

echo "==> allocation gate (steady-state malloc ceilings: Himeno iteration, waits, co_sum, lock pair, DHT update, typed RMA incl. the zero-alloc contiguous put on all three transports (TestTypedRMASteadyStateAllocs, \"contiguous Put\"), figure series; world churn on recycled pages)"
go test -run 'SteadyStateAllocs|WorldChurn' -count=1 ./internal/...

echo "==> scale smoke (4096 images, a goroutine each, bounded wall time)"
timeout 120 go test -run 'TestEventEngineHimeno4k' -count=1 ./internal/himeno

echo "==> 100k-image smoke (sharded-barrier panel, 1 iteration, bounded wall time)"
# One 100k barrier row end-to-end: completes, or the timeout turns a hang
# into a failure. ~5s on the reference machine.
timeout 180 go test -run '^$' -bench '^BenchmarkWallclockScale/barrier/n=102400$' -benchtime 1x .

echo "==> transport-matrix smoke (the root bench file's other panel, one iteration per backend, so it cannot rot unbuilt)"
timeout 180 go test -run '^$' -bench '^BenchmarkWallclockHimenoTransport$' -benchtime 1x .

echo "check.sh: all gates passed"
