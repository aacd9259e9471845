#!/usr/bin/env bash
# CI gate: build, test, format, lint, repo-specific static analysis. Run
# locally before pushing; .github/workflows/ci.yml runs the same sequence
# plus the hardening lane (Miri) with the tools installed.
set -euo pipefail
cd "$(dirname "$0")"

# The workspace has no registry dependencies; everything below must pass
# with the network off.
export CARGO_NET_OFFLINE=true

echo "==> registry-free gate (every package is a path package)"
cargo metadata --offline --format-version 1 | python3 -c '
import json, sys
bad = [p["id"] for p in json.load(sys.stdin)["packages"] if p["source"] is not None]
sys.exit("registry packages in the workspace: %s" % bad if bad else 0)'

# `EnginePool::global()` survives only for the frozen benchmark/ (ROADMAP
# item 1): a library must not share scratch between unrelated engines.
echo "==> process-global pool gate (no EnginePool::global() caller in the workspace)"
if grep -rn --include='*.rs' 'EnginePool::global()' crates src examples tests \
    | grep -v '^crates/graph/src/pool.rs:'; then
    echo "use an engine-owned or local EnginePool"
    exit 1
fi

# Configuration travels as a value: the environment is read once, by
# `cache_dir()`, and only a binary's `main` calls that.
echo "==> environment gate (cache_dir() only in the two mains, env::var only in datasets/cache.rs)"
if grep -rn --include='*.rs' 'cache_dir()' crates src examples tests \
    | grep -vE '^crates/(cli/src/main|bench/src/bin/repro|datasets/src/cache)\.rs:'; then
    echo "take the cache directory as an Option<&Path>"
    exit 1
fi
if grep -rn --include='*.rs' 'env::var' crates src examples tests \
    | grep -v '^crates/datasets/src/cache.rs:'; then
    echo "read the environment in fn main, through comm_datasets::cache"
    exit 1
fi

# The projection sweeps on `DijkstraEngine` like everything else: it must
# not grow a queue of its own, and no new file may start keeping one (the
# certifier's independent sweep in core/verify.rs stays independent). The
# engine itself runs one queue: no second kernel, and no knob to pick one.
echo "==> one-Dijkstra gate (BinaryHeap stays in its four files, none under projection; no kernel knob)"
if grep -rn 'BinaryHeap' crates/core/src/projection.rs crates/core/src/projection; then
    echo "the projection sweeps on DijkstraEngine"
    exit 1
fi
HEAP_FILES=$(grep -rl --include='*.rs' 'BinaryHeap' crates src | sort | tr '\n' ' ')
if [ "$HEAP_FILES" != "crates/core/src/comm_k.rs crates/core/src/trees.rs crates/core/src/verify.rs crates/graph/src/dijkstra.rs " ]; then
    echo "BinaryHeap is named in: $HEAP_FILES"
    exit 1
fi
if grep -rnE --include='*.rs' 'Kernel|with_kernel|BucketQueue|BucketPlan' crates src examples tests; then
    echo "DijkstraEngine has one queue: sweep on DijkstraEngine::new"
    exit 1
fi

# The sink-bounded sweeps are exact only as far as their certifier is an
# unpruned sweep of its own: `comm_core::verify` may mention the engine in
# its docs and nowhere else, and the engine keeps one settle loop for the
# admission predicate to live in.
echo "==> oracle gate (core/verify.rs shares nothing with DijkstraEngine; one fn sweep)"
if grep -nE 'DijkstraEngine|run_rows_guarded|admit' crates/core/src/verify.rs \
    | grep -vE '^[0-9]+:[[:space:]]*//[/!]'; then
    echo "comm_core::verify certifies the engine: it must not call it or prune like it"
    exit 1
fi
if [ "$(grep -c 'fn sweep[<(]' crates/graph/src/dijkstra.rs)" != 1 ]; then
    echo "crates/graph/src/dijkstra.rs must define exactly one fn sweep"
    exit 1
fi

# A neighbor-table dimension is filled in one file: all three fills (the
# sweep, the pin copied from its memo and the copy-and-repair from a kept
# Neighbor(V_i)) live in core/neighbor.rs, next to the certification that
# compares them; the enumerators only say which seeds a dimension should hold.
echo "==> one-fill gate (no run_guarded( / run_rows in shell.rs, comm_k.rs, comm_all.rs, lawler.rs; pins through the memo)"
if grep -nE 'run_guarded\(|run_rows' crates/core/src/shell.rs crates/core/src/comm_k.rs \
    crates/core/src/comm_all.rs crates/core/src/lawler.rs; then
    echo "fill a dimension through NeighborSets (recompute_dim_guarded / refill_guarded)"
    exit 1
fi
# A pin reaches the memo through NeighborSets::pin_guarded: the only
# from-scratch sweep the enumerators name is the ablation's repin_dim.
if awk '
    FNR == 1 { f = "" }
    /^[[:space:]]*(pub(\(crate\))?[[:space:]]+)?fn[[:space:]]/ {
        match($0, /fn[[:space:]]+[A-Za-z0-9_]+/); f = substr($0, RSTART, RLENGTH); sub(/fn[[:space:]]+/, "", f)
    }
    /recompute_dim_guarded\(/ && !/^[[:space:]]*\/\// && !(FILENAME ~ /shell\.rs$/ && f == "repin_dim") {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    END { exit !bad }' crates/core/src/shell.rs crates/core/src/comm_k.rs \
    crates/core/src/comm_all.rs crates/core/src/lawler.rs; then
    echo "pin through Shell::pin_dim (NeighborSets::pin_guarded); only repin_dim sweeps from scratch"
    exit 1
fi

# One build path for the projection index: a keyword is swept in one place
# (`KeywordRun::sweep`), and the daemon reaches sweeps only through its run
# cache, never through the one-shot `build_par_guarded`.
echo "==> one-build-path gate (one run_guarded( in projection.rs, no build_par_guarded under serve/src)"
if grep -rn 'build_par_guarded' crates/serve/src; then
    echo "the daemon assembles indexes from cached runs (QueryEngine::index_for)"
    exit 1
fi
if [ "$(grep -c 'run_guarded(' crates/core/src/projection.rs)" != 1 ]; then
    echo "crates/core/src/projection.rs must sweep keywords in exactly one place"
    exit 1
fi

# Path sums are exact: `Weight` counts 10⁻⁹ units, so every fold of a
# path is one integer and no tolerance may creep back into the engines.
# Test modules (from the first column-0 `#[cfg(test)]` on) may still name
# `f64` behaviour to show what the integer type fixes.
echo "==> exact-weight gate (no f64::EPSILON, total_cmp, fn slack or ulp in non-test graph/core code)"
if awk '
    FNR == 1 { live = 1 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live && /f64::EPSILON|total_cmp|fn slack|(^|[^A-Za-z0-9_])ulps?([^A-Za-z0-9_]|$)/ {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    END { exit !bad }' $(find crates/graph/src crates/core/src -name '*.rs' | sort); then
    echo "weights are fixed-point: compare them exactly"
    exit 1
fi

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# --release so debug_assertions are off and the validators run purely via
# the feature gate (the debug profile exercises them for free above).
echo "==> cargo test (verify feature: deep structural validators)"
cargo test -q --workspace --release --features verify

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Serve smoke lane: chaos-load the daemon (fault injection armed), then a
# CLI round trip. chaos_load exits non-zero unless every request
# terminated in a declared state with zero protocol errors and sheds got
# explicit Overloaded replies.
echo "==> serve smoke (chaos load + CLI round trip)"
cargo run --quiet --release -p comm-serve --example chaos_load -- /tmp/chaos_load_ci.json
EXPLORE=(cargo run --quiet --release -p comm-cli --bin comm-explore --)
"${EXPLORE[@]}" serve --addr 127.0.0.1:0 --side 8 >/tmp/serve_smoke.out 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" /tmp/serve_smoke.out && break
    sleep 0.1
done
SERVE_ADDR=$(sed -n 's/listening on //p' /tmp/serve_smoke.out)
test -n "$SERVE_ADDR" || { echo "daemon never bound"; kill "$SERVE_PID"; exit 1; }
"${EXPLORE[@]}" client --addr "$SERVE_ADDR" ping >/dev/null
"${EXPLORE[@]}" client --addr "$SERVE_ADDR" query alpha beta >/dev/null
"${EXPLORE[@]}" client --addr "$SERVE_ADDR" query alpha no-such-keyword >/dev/null 2>&1 \
    && { echo "bad keyword must exit non-zero"; exit 1; }
"${EXPLORE[@]}" client --addr "$SERVE_ADDR" shutdown >/dev/null
wait "$SERVE_PID"

# Warm-start lane: persist the engine as a CGPH v3 container, restart the
# daemon against it (no rebuild — the container's keyword map becomes the
# vocabulary), and query it.
echo "==> warm-start lane (save container, serve from it, query)"
cargo run --quiet --release -p comm-serve --example warm_bundle -- 8 /tmp/warm_ci.cgph
"${EXPLORE[@]}" serve --addr 127.0.0.1:0 --graph /tmp/warm_ci.cgph >/tmp/serve_warm.out 2>/dev/null &
WARM_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" /tmp/serve_warm.out && break
    sleep 0.1
done
WARM_ADDR=$(sed -n 's/listening on //p' /tmp/serve_warm.out)
test -n "$WARM_ADDR" || { echo "warm daemon never bound"; kill "$WARM_PID"; exit 1; }
"${EXPLORE[@]}" client --addr "$WARM_ADDR" query alpha beta >/dev/null
"${EXPLORE[@]}" client --addr "$WARM_ADDR" shutdown >/dev/null
wait "$WARM_PID"

# Benchmark lane: the end-to-end ledger's own tests, then one smoke round
# of every workload (answers are verified inside the command).
echo "==> benchmark lane (benchmark/ tests + smoke run)"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

echo "==> xtask self-tests"
cargo test -q --release --manifest-path xtask/Cargo.toml

echo "==> cargo xtask lint (with stale-waiver audit)"
cargo run --quiet --release --manifest-path xtask/Cargo.toml -- lint --stale-waivers

echo "==> cargo xtask analyze (concurrency discipline)"
cargo run --quiet --release --manifest-path xtask/Cargo.toml -- analyze

# Concurrency lane: the exhaustive admission-gate interleaving model runs
# everywhere (std-only); ThreadSanitizer needs nightly + rust-src and is
# skipped gracefully where absent, like the hardening tools.
echo "==> admission-gate interleaving model"
cargo test -q --release -p comm-serve --test admission_model

echo "==> wire-protocol property tests"
cargo test -q --release --test protocol_roundtrip

echo "==> ThreadSanitizer (parallel equivalence + serve tests)"
if rustc +nightly --version >/dev/null 2>&1 \
    && rustc +nightly --print sysroot 2>/dev/null \
        | xargs -I{} test -d {}/lib/rustlib/src/rust/library; then
    HOST_TARGET=$(rustc -vV | sed -n 's/^host: //p')
    # -Zbuild-std (like Miri's sysroot build below) may fetch std's own
    # dependencies, so these two lanes run with the network allowed.
    CARGO_NET_OFFLINE=false RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q --release -Zbuild-std \
        --target "$HOST_TARGET" -p comm-serve --lib
    CARGO_NET_OFFLINE=false RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q --release -Zbuild-std \
        --target "$HOST_TARGET" --test parallel_equivalence
else
    echo "    nightly rust-src not installed; skipped (CI concurrency lane runs it)"
fi

# Hardening lane: skipped gracefully where the tool is absent; the
# GitHub workflow installs and runs it unconditionally.
echo "==> miri (graph unit tests)"
if cargo miri --version >/dev/null 2>&1; then
    CARGO_NET_OFFLINE=false MIRIFLAGS="-Zmiri-strict-provenance" cargo miri test -p comm-graph --lib
else
    echo "    miri not installed; skipped (CI hardening lane runs it)"
fi

# For the next re-anchor: the size ROADMAP tracks, counted, not estimated.
echo "==> *.rs lines outside benchmark/: $(git ls-files '*.rs' ':!benchmark' | xargs cat | wc -l)"

echo "==> ci OK"
