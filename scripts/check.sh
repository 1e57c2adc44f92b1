#!/bin/sh
# check.sh — the repo's tier-1 gate: formatting, vet, build, the full
# test suite under the race detector, netvet (the in-tree concurrency
# and resource-lifecycle analyzer), a fixed-seed chaos pass of the
# protocol torture harness, and short fuzz smokes over the wire-facing
# parsers. Everything must pass for a PR to land.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== netvet ./..."
go run ./cmd/netvet ./...

echo "== block discipline: AllocsPerRun gates (race off)"
# The race detector's instrumentation allocates, so these self-skip
# under -race above and run here without it: a copy or pool bypass
# creeping back into the hot paths fails the gate.
go test -run '^TestAllocs' -count=1 ./internal/streams ./internal/ninep ./internal/cs

echo "== chaos: real-clock torture pass (fixed seed)"
go run ./cmd/netsim -chaos -seed 1 -msgs 40

echo "== chaos: 32-seed virtual-time sweep"
# The discrete-event clock makes a whole seed sweep affordable: every
# protocol crosses the impairment cocktail under 32 different
# schedules in wall-clock seconds. A failure ddmin-shrinks to its
# minimal scenario exactly as in the real-clock pass.
go run ./cmd/netsim -chaos -virtual -seed 1 -seeds 32 -msgs 40

echo "== chaos: line-discipline sweep (batch+compress pushed both ends)"
# The same matrix with the §2.4 modules dressed on every conversation:
# the disciplines must survive loss, duplication, reordering and
# corruption on all five protocols without breaking the byte streams
# they carry. (Same-seed byte-determinism of the dressed runs is pinned
# separately by TestChaosDeterminismModules under go test above.)
go run ./cmd/netsim -chaos -virtual -seed 1 -seeds 8 -msgs 40 -mods 'compress,batch 1024 2ms'

echo "== stats conformance: /net files vs wire ground truth"
# The conformance suite balances every /net/*/stats file against the
# impairment engine's own books (drops, dups, corrupted emissions) —
# the observability layer must never disagree with the wire.
go test -run '^TestStatsConformance' -count=1 ./internal/torture

# floor <pkg> <pct>: fail unless the package's statement coverage is
# at least pct percent.
floor() {
    echo "== $1 coverage floor (>= $2%)"
    cov=$(go test -cover "./$1" | awk '{ for (i = 1; i <= NF; i++) if ($i == "coverage:") print $(i+1) }' | tr -d '%')
    if [ -z "$cov" ] || [ "$(printf '%.0f' "$cov")" -lt "$2" ]; then
        echo "$1 coverage ${cov:-unknown}% < $2%" >&2
        exit 1
    fi
    echo "$1 coverage ${cov}%"
}

floor internal/obs 80
# The analyzer is itself load-bearing (check.sh trusts its verdicts),
# so its CFG builder, solver, and checks are held to the same floor.
floor internal/analysis 80
# The multi-tenant gateway is the serving stack's front door; its
# attach/serve/stats plumbing stays above the same floor.
floor internal/exportfs 80
# The shared block cache sits on the gateway's hot path and hands out
# refcounted memory; every branch of its invalidation and refcount
# logic is load-bearing.
floor internal/ccache 80
# The line disciplines rewrite every byte a dressed conversation
# carries; the stream plumbing, both modules, and their wire parsers
# hold the higher floor.
floor internal/streams 85
# The connection server answers every symbolic dial in the system; its
# sharded cache, singleflight, and stats plumbing carry a higher floor
# than the rest because a silent miscount there skews every experiment.
floor internal/cs 85
# The transport core carries every IL and TCP conversation: its table,
# transmitter, and round-trip estimator hold the higher floor.
floor internal/rexmit 85

echo "== gateway storm smoke (60 tenants on the virtual clock)"
# A fixed-seed run of the multi-tenant import storm: one exporter,
# sixty machines importing through the shared gateway server and its
# cache, on the discrete-event clock so the pass is deterministic.
go run ./cmd/netsim -virtual -gateway -machines 60 -simtime 10s -seed 1

echo "== registry storm smoke (determinism of the t=0 dial storm)"
# Two same-seed runs of the no-stagger dial storm must agree byte for
# byte — calls, retries, CS books, latency quantiles — once the
# wall-clock tail of the report is stripped.
run1=$(go run ./cmd/netsim -virtual -registry -machines 60 -simtime 4s -seed 1 | sed 's/ in [^ ]* wall$//')
run2=$(go run ./cmd/netsim -virtual -registry -machines 60 -simtime 4s -seed 1 | sed 's/ in [^ ]* wall$//')
if [ "$run1" != "$run2" ]; then
    echo "registry storm diverged across same-seed runs:" >&2
    echo "  $run1" >&2
    echo "  $run2" >&2
    exit 1
fi
echo "$run1"

echo "== bench smoke (benchmarks still run)"
sh scripts/bench.sh -smoke

echo "== fuzz smoke (10s per parser)"
# -fuzzminimizetime 5x: a crasher found during a smoke should minimize
# in a handful of runs, not stall the gate for the default 60s.
go test -run '^$' -fuzz '^FuzzParseHeader$' -fuzztime 10s -fuzzminimizetime 5x ./internal/il
go test -run '^$' -fuzz '^FuzzTCPHeader$' -fuzztime 10s -fuzzminimizetime 5x ./internal/tcp
go test -run '^$' -fuzz '^Fuzz9PMessage$' -fuzztime 10s -fuzzminimizetime 5x ./internal/ninep
go test -run '^$' -fuzz '^FuzzCompressFrame$' -fuzztime 10s -fuzzminimizetime 5x ./internal/streams
go test -run '^$' -fuzz '^FuzzBatchReassembly$' -fuzztime 10s -fuzzminimizetime 5x ./internal/streams

echo "check.sh: all gates passed"
