#!/bin/sh
# Offline CI: format check, lints, release build, the full test suite
# (property tests included), and the deterministic request-budget gate.
# Everything here works without network access: the workspace has no
# external crates. `--locked` keeps every invocation on the committed
# Cargo.lock.
#
# Usage: sh scripts/ci.sh [STAGE]
# With no argument every stage runs, in the order of $STAGES. With a
# stage name only that stage runs (the CI workflow runs each stage as
# its own named step).
set -eu

cd "$(dirname "$0")/.."

STAGES="fmt clippy doc build test rtkbench golden budgets table1 table2 wire_equivalence
oracle_suite wire_stress oracle_budgets compile_equivalence trace_integrity
trace chaos storm byte_chaos fleet"

# rtkbench is its own workspace, so the format and lint stages check
# its manifest too.
stage_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all --check
    cargo fmt --manifest-path rtkbench/Cargo.toml --check
}

stage_clippy() {
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy -D warnings"
        cargo clippy --workspace --all-targets --offline --locked -- -D warnings
        cargo clippy --manifest-path rtkbench/Cargo.toml --all-targets --offline --locked -- -D warnings
    else
        echo "==> clippy not installed; skipping lints"
    fi
}

# The API docs build with every rustdoc warning an error: an intra-doc
# link to a deleted or private item fails here, not in a reader's browser.
stage_doc() {
    echo "==> cargo doc -D warnings"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked
}

stage_build() {
    echo "==> cargo build --release"
    cargo build --release --workspace --offline --locked
}

stage_test() {
    echo "==> cargo test -q"
    cargo test -q --workspace --offline --locked
}

# The benchmark's own checks: replay every rtkbench workload on the
# in-process transport and compare screenshot digests, in a debug build
# so arithmetic overflow panics instead of wrapping.
stage_rtkbench() {
    echo "==> rtkbench checks (debug)"
    cargo test -q --offline --locked --manifest-path rtkbench/Cargo.toml
}

# The golden-frame suite must be deterministic run to run, not just
# within a process: render twice, in two separate invocations.
stage_golden() {
    echo "==> golden frames (twice, for determinism)"
    cargo test -q --offline --locked --test golden_frames
    cargo test -q --offline --locked --test golden_frames
}

stage_budgets() {
    echo "==> bench --check-budgets"
    cargo run -p tk-bench --release --offline --locked --bin bench -- --check-budgets
}

# Economy gate: no Table I row may grow past its code-line ceiling in
# BUDGETS.json's `table1` object (the paper's Table I claim, pinned).
# EXPERIMENTS.md's Table I must also be the Markdown `table1` prints
# now: the table lines of its "## Table I " section, compared verbatim.
stage_table1() {
    echo "==> table1 --check-budgets"
    cargo run -p tk-bench --release --offline --locked --bin table1 -- --check-budgets
    echo "==> EXPERIMENTS.md Table I is table1's output"
    tmp=$(mktemp -d)
    cargo run -q -p tk-bench --release --offline --locked --bin table1 >"$tmp/table1.md"
    sed -n '/^## Table I /,/^## /p' EXPERIMENTS.md | grep '^|' >"$tmp/experiments.md" || true
    if ! diff -u "$tmp/experiments.md" "$tmp/table1.md"; then
        rm -rf "$tmp"
        echo "EXPERIMENTS.md's Table I is stale: paste in the output of" >&2
        echo "  cargo run -p tk-bench --bin table1" >&2
        return 1
    fi
    rm -rf "$tmp"
}

# Table II smoke: the release `wish` runs scripts/table2.tcl, and rows 1
# and 3 must each print a positive mean. This checks the output's shape
# only; no timing is compared with anything.
stage_table2() {
    echo "==> wish -f scripts/table2.tcl"
    out=$(cargo run -q -p wish --release --offline --locked -- -f scripts/table2.tcl)
    echo "$out"
    for row in 1 3; do
        if ! echo "$out" | awk -v row="$row:" '$1 == "row" && $2 == row && $3 > 0 &&
            $4 == "microseconds" { ok = 1 } END { exit !ok }'; then
            echo "scripts/table2.tcl printed no positive figure for row $row" >&2
            return 1
        fi
    done
}

# Transport-equivalence gate: the framed wire transport must be
# invisible. The full run already exercised the wire side — the framed
# byte transport is the default unless RTK_NO_WIRE says otherwise. Here
# the differential suite replays both chaos corpora and a seeded
# random-script sweep wire-on vs wire-off, asserting byte-identical
# results, error messages, request streams, fault firings, and final
# screens; then (`oracle_suite`) the whole tier-1 suite runs a second
# time on the in-process oracle transport, so both sides of the
# differential stay green. See docs/PROTOCOL.md.
stage_wire_equivalence() {
    echo "==> wire-equivalence gate (both transports, both corpora)"
    cargo test -q --offline --locked --test wire_equivalence
}

stage_oracle_suite() {
    echo "==> full suite on the oracle transport (RTK_NO_WIRE=1)"
    RTK_NO_WIRE=1 cargo test -q --workspace --offline --locked
}

# Threaded stress in an optimised build: a sender spinning on the
# shared transport lock can starve the peer thread it waits on, and
# that race only shows with optimisations on. Ten runs, because one
# green run proves little about a race.
stage_wire_stress() {
    echo "==> wire_stress in release (10 runs)"
    for i in 1 2 3 4 5 6 7 8 9 10; do
        echo "    run $i"
        cargo test -q --release --offline --locked --test wire_stress
    done
}

# The wire budgets must hold on the oracle run too: the wire_send
# workload forces the framed transport regardless of RTK_NO_WIRE, so
# its frame/byte counters are pinned in both CI transport runs.
stage_oracle_budgets() {
    echo "==> bench --check-budgets (oracle transport)"
    RTK_NO_WIRE=1 cargo run -p tk-bench --release --offline --locked --bin bench -- --check-budgets
}

# Compile-equivalence gate: the Tcl program cache must be invisible.
# Replay both chaos corpora and a seeded random-script sweep with the
# compiler on vs off (what RTK_NO_COMPILE=1 selects), asserting
# byte-identical results, error messages, and request streams; then run
# the interpreter's own suite with the compiler disabled outright, so
# the direct-eval oracle path stays green too. See docs/TCL.md.
stage_compile_equivalence() {
    echo "==> compile-equivalence gate (both modes, both corpora)"
    cargo test -q --offline --locked --test compile_equivalence
    RTK_NO_COMPILE=1 cargo test -q -p tcl --offline --locked
}

# Trace-integrity gate: replay both chaos corpora with the causal span
# tracer recording, asserting every run's span tree stays well formed
# (no orphaned parents, nothing left open at quiescence) even while
# faults drop, duplicate, reorder, and kill traffic. See
# docs/OBSERVABILITY.md.
stage_trace_integrity() {
    echo "==> trace-integrity replay (both chaos corpora)"
    cargo test -q --offline --locked --test trace_integrity
}

# Span export smoke: the traced workload suite must produce a Chrome
# trace-event file that parses as JSON (the file CI uploads as an
# artifact for Perfetto).
stage_trace() {
    echo "==> bench --trace"
    cargo run -p tk-bench --release --offline --locked --bin bench -- --trace target/trace.json
}

# The `chaos` arguments that replay a corpus file's first entry:
# `--replay S F`, after `--apps N` when the entry names an app count.
# Call sites leave `$(first_replay FILE)` unquoted so it splits into
# words.
first_replay() {
    sed 's/#.*//' "$1" | awk 'NF {
        printf "%s--replay %s %s\n", (NF > 2 ? "--apps " $3 " " : ""), $1, $2
        exit
    }'
}

# Bounded chaos gate: replay the checked-in fault corpus, then a fixed
# batch of fresh seed pairs. Any panic fails CI and prints the
# (script_seed, fault_seed) pair plus a shrunk reproducer to check in.
# Each chaos stage also replays its corpus's first pair through
# `--replay`, so every mode's replay path runs too.
stage_chaos() {
    echo "==> chaos gate (corpus + 200 fresh seeds)"
    cargo run -p tk-bench --release --offline --locked --bin chaos -- \
        --corpus tests/chaos_corpus.txt --seeds 200
    echo "==> chaos replay (the corpus's first pair)"
    cargo run -p tk-bench --release --offline --locked --bin chaos -- \
        $(first_replay tests/chaos_corpus.txt)
}

# Send-storm gate: N apps exchanging seeded nested/concurrent sends
# under fault plans, checked against the exactly-once-or-clean-error
# invariant (docs/SEND.md). The corpus carries its own per-entry app
# counts (3-, 8-, and 16-app storms); the fresh pairs run at the
# classic three apps, then a smaller fleet-sized sweep at 16.
stage_storm() {
    echo "==> send-storm gate (corpus + 120 fresh seeds, 3 apps)"
    cargo run -p tk-bench --release --offline --locked --bin chaos -- \
        --storm --corpus tests/chaos_storm_corpus.txt --seeds 120
    echo "==> fleet-storm sweep (40 fresh seeds, 16 apps)"
    cargo run -p tk-bench --release --offline --locked --bin chaos -- \
        --storm --apps 16 --seeds 40
    echo "==> send-storm replay (the corpus's first pair)"
    cargo run -p tk-bench --release --offline --locked --bin chaos -- \
        --storm $(first_replay tests/chaos_storm_corpus.txt)
}

# Byte-chaos gate: seed-deterministic byte-layer faults (corrupted
# bytes, truncated frames, injected garbage, split writes, stalled
# dispatch) applied inside the wire transport, checked differentially
# against a fault-free wire run: identical outcomes or clean-death
# evidence (checksum/watchdog counters), with an intact span tree and
# a clean tk::send::audit resource reckoning either way (docs/FAULTS.md,
# "Byte-chaos mode"). Corpus replay first, then fresh pairs.
stage_byte_chaos() {
    echo "==> byte-chaos gate (corpus + 1000 fresh seeds)"
    cargo run -p tk-bench --release --offline --locked --bin chaos -- \
        --bytes --corpus tests/chaos_bytes_corpus.txt --seeds 1000
    echo "==> byte-chaos replay (the corpus's first pair)"
    cargo run -p tk-bench --release --offline --locked --bin chaos -- \
        --bytes $(first_replay tests/chaos_bytes_corpus.txt)
}

# Fleet gate: 64 applications in a send ring under the framed wire
# transport, with a quota-throttled hot client and a deterministic
# faulted tail round. The p50/p95/p99 send-latency percentiles,
# backpressure stalls, and clean-error counts are pinned in
# BUDGETS.json's `fleet` section. The harness already runs the
# deterministic fleet twice per invocation and diffs the reports; the
# gate invokes it twice so the percentiles must also reproduce across
# processes.
stage_fleet() {
    echo "==> fleet gate (bench --fleet 64 --check-budgets, twice)"
    cargo run -p tk-bench --release --offline --locked --bin bench -- --fleet 64 --check-budgets
    cargo run -p tk-bench --release --offline --locked --bin bench -- --fleet 64 --check-budgets
}

run_stage() {
    case " $(echo $STAGES) " in
        *" $1 "*) "stage_$1" ;;
        *)
            echo "unknown stage '$1'; stages:" $STAGES >&2
            exit 2
            ;;
    esac
}

if [ $# -eq 0 ]; then
    for stage in $STAGES; do
        run_stage "$stage"
    done
    echo "==> ci OK"
else
    run_stage "$1"
fi
