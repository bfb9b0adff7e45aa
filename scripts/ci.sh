#!/usr/bin/env bash
# Repository CI gate: build, tests, lint and formatting over every
# workspace crate, then end-to-end smoke runs.
#
#   scripts/ci.sh              # workspace build, workspace tests,
#                              # the benchmark's build and tests
#                              # (perfbench/), ones-lint, workspace
#                              # clippy, fmt, trace-replay and daemon
#                              # smoke
#   RUN_LOOM=1 scripts/ci.sh   # also model-check the loom tests in
#                              # crates/{evo,obs,oned}/tests/loom_*.rs
#                              # under RUSTFLAGS="--cfg ones_loom"
#   RUN_TSAN=1 scripts/ci.sh   # also run ThreadSanitizer over the
#                              # concurrent test suites (needs a nightly
#                              # toolchain with rust-src; skipped with a
#                              # notice otherwise)
#   RUN_MIRI=1 scripts/ci.sh   # also run Miri over the sync-facade and
#                              # cache tests (needs `cargo +nightly miri`;
#                              # skipped with a notice otherwise)
#   RUN_BENCH=1 scripts/ci.sh  # also run the observability overhead
#                              # bench (full-level tracing must cost
#                              # < 5 %), rewriting
#                              # BENCH_observability.json at the repo
#                              # root. Performance is otherwise measured
#                              # by perfbench/ (see perfbench/README.md)
#
# Everything runs offline against the in-repo shim crates (shims/); no
# network access or external dependencies are required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test --release --manifest-path perfbench/Cargo.toml (the benchmark)"
# perfbench is a workspace of its own that builds the crates by path, so a
# program API change that breaks the benchmark fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> ones-lint (concurrency & determinism rules; lint.allow for exceptions)"
cargo run -q --release -p ones-lint

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> trace-replay smoke (every scheduler on a Philly-style trace)"
for sched in ones drl tiresias optimus fifo; do
    out="$(./target/release/ones-sim --scheduler "$sched" \
        --trace-source philly --jobs 12 --gpus 16 --rate-secs 20 --seed 7 \
        --json)"
    if echo "$out" | grep -q '"completed_jobs": 0,'; then
        echo "FAIL: $sched completed no jobs on the philly trace" >&2
        exit 1
    fi
    if ! echo "$out" | grep -qE '"killed_jobs": [1-9]'; then
        echo "FAIL: $sched reported no killed jobs on a trace with kills" >&2
        exit 1
    fi
    echo "    $sched OK ($(echo "$out" | grep -o '"completed_jobs": [0-9]*') \
$(echo "$out" | grep -o '"killed_jobs": [0-9]*'))"
done

echo "==> daemon smoke (ones-d API round trip over loopback)"
DLOG="$(mktemp)"
./target/release/ones-d --port 0 --gpus 16 --scheduler ones >"$DLOG" 2>&1 &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q 'listening on' "$DLOG" && break
    sleep 0.1
done
ADDR="$(sed -n 's/.*listening on //p' "$DLOG" | head -1)"
if [[ -z "$ADDR" ]]; then
    echo "FAIL: ones-d never reported a listen address" >&2
    cat "$DLOG" >&2
    exit 1
fi
CTL="./target/release/ones-ctl --addr $ADDR"
$CTL health >/dev/null
$CTL submit --model ResNet18 --dataset CIFAR10 --dataset-size 20000 \
    --batch 256 --gpus 2 --name smoke | grep -q '"id"'
$CTL jobs | grep -q '"smoke"'
$CTL cluster | grep -q '"scheduler":"ONES"'
for _ in $(seq 1 100); do
    $CTL metrics | grep -q 'simulator_engine_events' && break
    sleep 0.1
done
$CTL metrics | grep -q 'evo_search_generations'
$CTL drain | grep -q '"draining":true'
kill -TERM "$DPID"
if ! wait "$DPID"; then
    echo "FAIL: ones-d did not exit cleanly on SIGTERM" >&2
    cat "$DLOG" >&2
    exit 1
fi
trap - EXIT
rm -f "$DLOG"
echo "    ones-d OK ($ADDR)"

echo "==> crash-recovery smoke (SIGKILL ones-d mid-replay, restart from --state-file)"
CRASH_DIR="$(mktemp -d)"
CLOG="$CRASH_DIR/ones-d.log"
STATE="$CRASH_DIR/state.json"
run_replay() { # extra args...
    ./target/release/ones-d --port 0 --gpus 16 --scheduler ones \
        --trace-source philly --jobs 12 --rate-secs 10 --seed 7 --sched-seed 1 \
        --state-file "$STATE" "$@" >"$CLOG" 2>&1 &
    DPID=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$CLOG" && break
        sleep 0.1
    done
    ADDR="$(sed -n 's/.*listening on //p' "$CLOG" | head -1)"
    if [[ -z "$ADDR" ]]; then
        echo "FAIL: ones-d never reported a listen address" >&2
        cat "$CLOG" >&2
        exit 1
    fi
    CTL="./target/release/ones-ctl --addr $ADDR"
}
# Throttled victim: let a few events land, then SIGKILL mid-replay.
run_replay --step-delay-ms 25 --events-per-batch 4
trap 'kill -9 "$DPID" 2>/dev/null || true; rm -rf "$CRASH_DIR"' EXIT
for _ in $(seq 1 200); do
    $CTL cluster 2>/dev/null | grep -qE '"events_next_seq":[1-9]' && break
    sleep 0.05
done
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true
if [[ ! -s "$STATE" ]]; then
    echo "FAIL: no persisted state file after SIGKILL" >&2
    exit 1
fi
# Restart from the snapshot and replay to the fixpoint.
run_replay
trap 'kill -9 "$DPID" 2>/dev/null || true; rm -rf "$CRASH_DIR"' EXIT
grep -q 'recovering 12 job(s)' "$CLOG" || {
    echo "FAIL: restart did not recover from the state file" >&2
    cat "$CLOG" >&2
    exit 1
}
DONE=0
for _ in $(seq 1 600); do
    C="$($CTL cluster 2>/dev/null || true)"
    COMPLETED="$(echo "$C" | grep -o '"completed":[0-9]*' | grep -o '[0-9]*$' || echo 0)"
    KILLED="$(echo "$C" | grep -o '"killed":[0-9]*' | grep -o '[0-9]*$' || echo 0)"
    if [[ $((COMPLETED + KILLED)) -eq 12 ]]; then
        DONE=1
        break
    fi
    sleep 0.1
done
if [[ "$DONE" != "1" ]]; then
    echo "FAIL: recovered replay never reached the fixpoint" >&2
    exit 1
fi
kill -9 "$DPID" 2>/dev/null || true
wait "$DPID" 2>/dev/null || true
trap - EXIT
rm -rf "$CRASH_DIR"
echo "    crash recovery OK ($COMPLETED completed, $KILLED killed after restart)"

if [[ "${RUN_LOOM:-0}" == "1" ]]; then
    echo "==> loom model checking (RUSTFLAGS=--cfg ones_loom)"
    # Each test explores every thread interleaving of its protocol up to
    # the preemption bound (ONES_LOOM_* env knobs override the defaults;
    # see shims/loom). A counterexample panics with the failing schedule.
    RUSTFLAGS="--cfg ones_loom" cargo test -q -p ones-evo --test loom_cache
    RUSTFLAGS="--cfg ones_loom" cargo test -q -p ones-obs --test loom_metrics
    RUSTFLAGS="--cfg ones_loom" cargo test -q -p ones-d --test loom_state
    echo "    loom OK"
fi

if [[ "${RUN_TSAN:-0}" == "1" ]]; then
    echo "==> ThreadSanitizer (concurrent suites)"
    # -Z sanitizer needs nightly plus rust-src for -Z build-std; this box
    # may have neither, so detect and skip rather than fail.
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && [[ -d "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library" ]]; then
        RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test -Z build-std \
            --target "$(rustc -vV | sed -n 's/^host: //p')" \
            -p ones-sync -p ones-evo -p ones-obs -p ones-d
        echo "    tsan OK"
    else
        echo "    SKIP: nightly toolchain with rust-src not available"
    fi
fi

if [[ "${RUN_MIRI:-0}" == "1" ]]; then
    echo "==> Miri (sync facade + cache)"
    if cargo +nightly miri --version >/dev/null 2>&1; then
        cargo +nightly miri test -p ones-sync -p ones-evo cache
        echo "    miri OK"
    else
        echo "    SKIP: cargo +nightly miri not available"
    fi
fi

if [[ "${RUN_BENCH:-0}" == "1" ]]; then
    echo "==> observability overhead bench (BENCH_observability.json)"
    BENCH_JSON="$PWD/BENCH_observability.json" cargo bench -p ones-bench --bench observability
fi

echo "CI OK"
