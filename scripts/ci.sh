#!/usr/bin/env bash
# CI gate, split into individually callable stages so workflow failures
# are attributable to one step and local iteration can run just what it
# needs:
#
#   ./scripts/ci.sh                 # all = fmt vet lint build test benchmod examples chaos fuzz trace sweep serve
#   ./scripts/ci.sh fmt vet         # any subset, in the order given
#   ./scripts/ci.sh quick           # fmt vet lint(fast six) build + tests WITHOUT -race
#   ./scripts/ci.sh bench           # lpmembench -check against committed baselines
#   ./scripts/ci.sh benchmod        # the benchmark/ module's own test
#   ./scripts/ci.sh examples        # run every program under examples/
#   ./scripts/ci.sh chaos           # seeded fault-injection sweep of the registry
#   ./scripts/ci.sh fuzz            # short smoke of every native fuzz target
#   ./scripts/ci.sh trace           # binary/text trace round-trip + replay gate
#   ./scripts/ci.sh sweep           # design-space sweep resume/determinism gate
#   ./scripts/ci.sh serve           # lpmemd + loadgen end-to-end smoke
#
# `build` also vets the nested benchmark/ module, which ./... skips: it is
# the one caller of internal/ API that neither the compiler run nor the
# testonly analyzer sees from the root.
# The race run is the correctness backstop for the concurrent experiment
# runner (internal/runner) and the lpmemd HTTP service; `quick` trades it
# (and the chaos/fuzz stages) away for local edit-compile-test speed.
# `benchmod` runs the nested benchmark/ module's test, which ./... skips:
# it drives every probe once and checks each against the goldens, among
# them core.Optimize on E1's composites as concatenated traces, the one
# check that E1's phase-by-phase profile agrees with the whole trace.
# `bench` is the regression gate: it re-runs every experiment and compares
# tables against testdata/golden/ and costs against the committed BENCH
# file (see scripts/README.md). `examples` runs each program under
# examples/ to completion, so a change that makes one fail or hang fails
# CI, where `build` only compiles them. `chaos` runs `lpmem chaos` under a fixed
# seed so the robustness invariants (no deadlocks, no goroutine leaks,
# well-formed partial reports, deterministic fault placement) gate every
# change to the runner/service stack. `fuzz` runs each fuzz target for a
# few seconds on top of its checked-in corpus — a smoke, not a campaign.
# `trace` is the binary-format gate: every testdata/traces/*.txt file
# and a few kernel dumps are converted text -> binary -> text and must
# come back byte-identical, and both formats must replay through the
# cache to identical statistics under two geometries.
# `sweep` runs every design space (banks, bus, cache, memhier, memtech,
# nuca) twice against one result store each and fails unless the second
# run re-executes zero points and prints a byte-identical Pareto
# frontier — the incremental-sweep contract.
# `serve` boots a real lpmemd (shared result store, admission control,
# access log), drives a short `lpmem loadgen` burst against it with
# -verify, and requires zero failed requests, shed accounting that
# matches the server's own counters, a clean SIGINT shutdown, and a
# result store holding exactly one line per requested experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=bin
mkdir -p "$BIN"

# Leave the tree as we found it: helper binaries and the bench report are
# build products, not sources. CI jobs that upload them as artifacts set
# KEEP_ARTIFACTS=1 to skip the cleanup.
cleanup() {
    if [ "${KEEP_ARTIFACTS:-0}" != "1" ]; then
        rm -rf "$BIN" bench-check.json lint-report.json
    fi
}
trap cleanup EXIT

stage_fmt() {
    echo "== gofmt"
    local unformatted
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

stage_vet() {
    echo "== go vet"
    go vet ./...
}

stage_lint() {
    echo "== lpmemlint (full suite, escape evidence)"
    # Build once; `go run` would relink the analyzer on every invocation.
    go build -o "$BIN/lpmemlint" ./cmd/lpmemlint
    # Full ten-analyzer run with compiler corroboration; keep the JSON
    # report as a CI artifact while the exit code still gates. `tee`
    # would mask the exit status without pipefail (set above).
    "$BIN/lpmemlint" -escape-evidence -json ./... | tee lint-report.json
}

stage_lint_quick() {
    echo "== lpmemlint (fast six)"
    go build -o "$BIN/lpmemlint" ./cmd/lpmemlint
    # The API-hygiene wave plus testonly: no escape-evidence compile, no
    # deep expression walking — the local edit-compile-test loop.
    "$BIN/lpmemlint" -enable determinism,errwrap,floatcompare,panicfree,registry,testonly ./...
}

stage_build() {
    echo "== go build"
    go build ./...
    echo "== go vet (benchmark module)"
    (cd benchmark && go vet ./...)
}

stage_test() {
    echo "== go test -race -vet=all"
    go test -race -vet=all ./...
}

stage_benchmod() {
    echo "== go test (benchmark module)"
    (cd benchmark && go test .)
}

stage_test_norace() {
    echo "== go test (no race; quick mode)"
    go test -vet=all ./...
}

stage_examples() {
    echo "== examples"
    local dir name
    for dir in examples/*/; do
        name=$(basename "$dir")
        go build -o "$BIN/example-$name" "./$dir"
        # Each one finishes in well under a second; the limit only turns
        # a hang into a failure.
        if ! timeout 120 "$BIN/example-$name" >/dev/null; then
            echo "example $name failed or timed out" >&2
            exit 1
        fi
        echo "  $name: ok"
    done
}

stage_bench() {
    echo "== lpmembench -check"
    go build -o "$BIN/lpmembench" ./cmd/lpmembench
    # Keep the JSON report as a CI artifact; the exit code still gates.
    "$BIN/lpmembench" -check -json -v | tee bench-check.json
}

stage_chaos() {
    echo "== lpmem chaos (seeded fault-injection sweep)"
    go build -o "$BIN/lpmem" ./cmd/lpmem
    "$BIN/lpmem" chaos -seed 1 -plan all
    # A second seed targeted at the technology experiments, so the
    # memtech stack (gating machine, banked DRAM) sees its own fault
    # placements rather than only whatever seed 1 lands on it.
    "$BIN/lpmem" chaos -seed 23 -plan all E21 E22 E23
    # And one aimed at the CMP suite, so E24-E26 get runner-fault
    # placements of their own. Chaos runs the default model and checks
    # the runner (no deadlock, zero goroutine delta, well-formed ordered
    # reports, deterministic placement); the NUCA model's conservation
    # invariants are internal/nuca's property tests.
    "$BIN/lpmem" chaos -seed 24 -plan all E24 E25 E26
}

stage_fuzz() {
    echo "== fuzz smoke"
    # One target per invocation: go test only allows a single -fuzz
    # pattern to actually fuzz at a time.
    go test -run='^$' -fuzz='^FuzzReadText$' -fuzztime=10s ./internal/trace/
    go test -run='^$' -fuzz='^FuzzReadBinary$' -fuzztime=10s ./internal/trace/
    go test -run='^$' -fuzz='^FuzzDifferentialRoundTrip$' -fuzztime=10s ./internal/compress/
    go test -run='^$' -fuzz='^FuzzDecompress$' -fuzztime=10s ./internal/compress/
}

stage_trace() {
    echo "== trace format gate (lossless interconversion + replay equivalence)"
    go build -o "$BIN/lpmem" ./cmd/lpmem
    local dir name txt
    dir=$(mktemp -d)
    # Gate inputs: every checked-in text trace, plus a few kernel dumps
    # so the binary path is also exercised on real generated traces.
    cp testdata/traces/*.txt "$dir/"
    for kernel in dct matmul hashlookup; do
        "$BIN/lpmem" trace "$kernel" >"$dir/kernel-$kernel.txt"
    done
    for txt in "$dir"/*.txt; do
        name=$(basename "$txt" .txt)
        # Canonical text form: comments/whitespace dropped, one access
        # per line. Round-trips are compared against this, not the raw
        # file, so hand-written traces may carry comments.
        "$BIN/lpmem" trace convert -i "$txt" -to text >"$dir/$name.canon"
        # text -> binary -> text must be byte-identical to the canon.
        "$BIN/lpmem" trace convert -i "$txt" -o "$dir/$name.lpmt"
        "$BIN/lpmem" trace convert -i "$dir/$name.lpmt" -o "$dir/$name.rt"
        if ! cmp -s "$dir/$name.canon" "$dir/$name.rt"; then
            echo "trace $name: text->binary->text round-trip not byte-identical" >&2
            diff -u "$dir/$name.canon" "$dir/$name.rt" >&2 || true
            rm -rf "$dir"
            exit 1
        fi
        # Both formats must replay to identical cache statistics, under
        # the default geometry and a deliberately different one.
        for flags in "" "-sets 16 -ways 2 -line 16 -write-through"; do
            # shellcheck disable=SC2086
            "$BIN/lpmem" trace replay $flags "$txt" >"$dir/$name.stats.txt"
            # shellcheck disable=SC2086
            "$BIN/lpmem" trace replay $flags "$dir/$name.lpmt" >"$dir/$name.stats.bin"
            if ! cmp -s "$dir/$name.stats.txt" "$dir/$name.stats.bin"; then
                echo "trace $name: replay stats diverged between formats (flags: ${flags:-default})" >&2
                diff -u "$dir/$name.stats.txt" "$dir/$name.stats.bin" >&2 || true
                rm -rf "$dir"
                exit 1
            fi
        done
        echo "  $name: round-trip identical, replay identical"
    done
    rm -rf "$dir"
}

stage_serve() {
    echo "== serve smoke (lpmemd + loadgen + graceful shutdown)"
    go build -o "$BIN/lpmemd" ./cmd/lpmemd
    go build -o "$BIN/lpmem" ./cmd/lpmem
    local dir port pid ids lines keys
    dir=$(mktemp -d)
    ids=E17,E22,E4
    port="${LPMEMD_SMOKE_PORT:-18903}"
    "$BIN/lpmemd" -addr "127.0.0.1:$port" \
        -store "$dir/results.jsonl" \
        -admit 4 -admit-queue 8 \
        -access-log "$dir/access.log" \
        >"$dir/lpmemd.log" 2>&1 &
    pid=$!
    # A short burst over every request kind. loadgen exits non-zero on
    # any failed request or on shed accounting that disagrees with the
    # server's admission counters (-verify), so the stage inherits the
    # ISSUE's "zero failed, consistent sheds" gate from its exit code.
    if ! "$BIN/lpmem" loadgen -addr "http://127.0.0.1:$port" \
        -clients 4 -requests 300 -duration 30s \
        -mix one=8,batch=1,list=1 -ids "$ids" \
        -probe 10s -verify; then
        echo "serve smoke: loadgen failed" >&2
        kill "$pid" 2>/dev/null || true
        cat "$dir/lpmemd.log" >&2
        rm -rf "$dir"
        exit 1
    fi
    # Graceful shutdown: SIGINT must drain and exit 0.
    kill -INT "$pid"
    if ! wait "$pid"; then
        echo "serve smoke: lpmemd did not exit cleanly on SIGINT" >&2
        cat "$dir/lpmemd.log" >&2
        rm -rf "$dir"
        exit 1
    fi
    if ! grep -q "lpmemd: done" "$dir/lpmemd.log"; then
        echo "serve smoke: shutdown summary missing from server log" >&2
        cat "$dir/lpmemd.log" >&2
        rm -rf "$dir"
        exit 1
    fi
    # The loadgen-minted request IDs must land in the access log: the
    # request-ID middleware and structured logging are part of the gate.
    if ! grep -q '"request_id":"lg-' "$dir/access.log"; then
        echo "serve smoke: loadgen request IDs missing from access log" >&2
        rm -rf "$dir"
        exit 1
    fi
    # The shared store holds exactly one line per distinct key: every
    # requested experiment was computed and appended once, however many
    # concurrent requests asked for it.
    lines=$(wc -l <"$dir/results.jsonl")
    keys=$(grep -o '"key":"[^"]*"' "$dir/results.jsonl" | sort -u | wc -l || true)
    if [ "$lines" -ne "$keys" ] || [ "$keys" -ne "$(echo "$ids" | tr ',' '\n' | wc -l)" ]; then
        echo "serve smoke: result store has $lines lines for $keys keys, want one line per id in $ids" >&2
        rm -rf "$dir"
        exit 1
    fi
    rm -rf "$dir"
}

stage_sweep() {
    echo "== lpmem sweep (resume determinism gate)"
    go build -o "$BIN/lpmem" ./cmd/lpmem
    local dir space evaluated lines
    dir=$(mktemp -d)
    # Cold run populates each store; the resumed run must re-execute
    # nothing and reproduce the frontier byte-for-byte.
    for space in banks bus cache memhier memtech nuca; do
        "$BIN/lpmem" sweep -space "$space" -resume "$dir/$space.jsonl" -pareto \
            >"$dir/front1.txt" 2>"$dir/sum1.txt"
        # Each batch lands in one append: the cold store must hold one
        # line per evaluated point, none lost or duplicated.
        evaluated=$(sed -n 's/.*(evaluated \([0-9]*\),.*/\1/p' "$dir/sum1.txt")
        lines=$(wc -l <"$dir/$space.jsonl")
        if [ -z "$evaluated" ] || [ "$lines" -ne "$evaluated" ]; then
            cat "$dir/sum1.txt" >&2
            echo "sweep $space store holds $lines lines for ${evaluated:-no} evaluated points" >&2
            rm -rf "$dir"
            exit 1
        fi
        "$BIN/lpmem" sweep -space "$space" -resume "$dir/$space.jsonl" -pareto \
            >"$dir/front2.txt" 2>"$dir/sum2.txt"
        cat "$dir/sum1.txt" "$dir/sum2.txt"
        if ! grep -q "evaluated 0," "$dir/sum2.txt"; then
            echo "sweep $space resume re-executed points" >&2
            rm -rf "$dir"
            exit 1
        fi
        if ! diff -u "$dir/front1.txt" "$dir/front2.txt"; then
            echo "sweep $space frontier not byte-identical across resume" >&2
            rm -rf "$dir"
            exit 1
        fi
    done
    rm -rf "$dir"
}

run_stage() {
    case "$1" in
        fmt)   stage_fmt ;;
        vet)   stage_vet ;;
        lint)  stage_lint ;;
        build) stage_build ;;
        test)  stage_test ;;
        benchmod) stage_benchmod ;;
        examples) stage_examples ;;
        bench) stage_bench ;;
        chaos) stage_chaos ;;
        fuzz)  stage_fuzz ;;
        trace) stage_trace ;;
        sweep) stage_sweep ;;
        serve) stage_serve ;;
        quick) stage_fmt; stage_vet; stage_lint_quick; stage_build; stage_test_norace ;;
        all)   stage_fmt; stage_vet; stage_lint; stage_build; stage_test; stage_benchmod; stage_examples; stage_chaos; stage_fuzz; stage_trace; stage_sweep; stage_serve ;;
        *)
            echo "usage: $0 [fmt|vet|lint|build|test|benchmod|examples|bench|chaos|fuzz|trace|sweep|serve|quick|all] ..." >&2
            exit 2
            ;;
    esac
}

if [ "$#" -eq 0 ]; then
    run_stage all
else
    for stage in "$@"; do
        run_stage "$stage"
    done
fi

echo "CI OK"
