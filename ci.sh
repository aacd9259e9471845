#!/usr/bin/env bash
# CI, one shell function per lane: gates, test, bench, serve, concurrency,
# hardening. `./ci.sh` runs every lane, skipping TSan and Miri where their
# toolchains are absent; `./ci.sh LANE...` runs the named lanes and fails
# if a tool one of them needs is missing. .github/workflows/ci.yml runs
# one lane per job and holds no checks of its own.
set -euo pipefail
cd "$(dirname "$0")"

# The workspace has no registry dependencies; everything below must pass
# with the network off.
export CARGO_NET_OFFLINE=true
LANES=(gates test bench serve concurrency hardening)

# A tool lane `$1` needs is missing: a failure when the lane was named,
# a skip when `./ci.sh` runs everything.
missing() {
    if [ "$NAMED" = 1 ]; then
        echo "$2 is not installed: the $1 lane cannot run"
        exit 1
    fi
    echo "    $2 not installed; skipped (./ci.sh $1 requires it)"
}

# Source checks: every package is a path package, then `cargo xtask
# check` (gate rows, the error-enum check, cited tests, stale waivers)
# and its self-tests, rustfmt, and clippy over the workspace and over
# xtask, which sits outside it. What the source checks leave to the
# tests runs in the `test` lane: the leaf-lock rule (debug and
# `--features verify`), the byte budget against a counting allocator
# (tests/heap_budget.rs) and the trip ladder.
lane_gates() {
    echo "==> registry-free gate (every package is a path package)"
    for manifest in Cargo.toml xtask/Cargo.toml; do
        meta=$(cargo metadata --offline --format-version 1 --manifest-path "$manifest")
        case "$meta" in *'"source":"'*)
            echo "$manifest resolves a registry package"
            exit 1
            ;;
        esac
    done

    echo "==> xtask self-tests"
    cargo test -q --release --manifest-path xtask/Cargo.toml

    echo "==> cargo xtask check"
    cargo xtask check

    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (-D warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --manifest-path xtask/Cargo.toml --all-targets -- -D warnings
}

lane_test() {
    echo "==> tier-1: cargo build --release && cargo test -q"
    cargo build --release
    cargo test -q

    echo "==> cargo build --release --workspace"
    cargo build --release --workspace

    echo "==> cargo test"
    cargo test -q --workspace

    # --release so debug_assertions are off and the validators run purely
    # via the feature gate (the debug profile exercises them for free above).
    echo "==> cargo test (verify feature: deep structural validators)"
    cargo test -q --workspace --release --features verify
}

# The end-to-end ledger's own tests, then one smoke round of every
# workload (answers are verified inside the command), then every figure
# of `repro` at quick scale in a temp directory (it asserts that the
# enumerators agree; ≈ 1 s).
lane_bench() {
    echo "==> benchmark lane (benchmark/ tests + smoke run)"
    cargo test -q --release --manifest-path benchmark/Cargo.toml
    cargo run --quiet --release --manifest-path benchmark/Cargo.toml -- run --smoke

    echo "==> repro --quick all"
    local root tmp
    root=$PWD
    tmp=$(mktemp -d)
    if ! (cd "$tmp" && cargo run --quiet --release --manifest-path "$root/Cargo.toml" \
        -p comm-bench --bin repro -- --quick all >/dev/null); then
        rm -rf "$tmp"
        echo "repro --quick all failed"
        exit 1
    fi
    rm -rf "$tmp"
}

# Starts `comm-explore serve --addr 127.0.0.1:0 ARGS...` logging to
# $TMP/$1.out, and sets PID and ADDR.
serve_start() {
    local log="$TMP/$1.out"
    shift
    "$BIN" serve --addr 127.0.0.1:0 "$@" >"$log" 2>/dev/null &
    PID=$!
    for _ in $(seq 1 100); do
        grep -q "listening on" "$log" && break
        sleep 0.1
    done
    ADDR=$(sed -n 's/listening on //p' "$log")
    test -n "$ADDR" || { echo "daemon never bound"; exit 1; }
}

# Chaos-load the daemon (guard trips, disconnects, delays, pool poisoning
# armed): chaos_load exits non-zero unless every request terminated
# Complete / certified-Interrupted / explicit-Overloaded with zero protocol
# errors. Then a daemon + client round trip checking the documented exit
# codes and "+50 more" (k = 200 after top-150 resumes, and its reply
# starts with the top-150 one), a scripted `comm-explore` shell session,
# and a warm start: persist the engine as a CGPH v3 container, restart
# the daemon against it (no rebuild) and query it.
lane_serve() {
    TMP=$(mktemp -d)
    PID=
    trap 'kill $PID 2>/dev/null || true; rm -rf "$TMP"' EXIT

    echo "==> chaos load (fault injection, classified outcomes)"
    cargo run --quiet --release -p comm-serve --example chaos_load -- "$TMP/chaos_load.json"

    echo "==> daemon + client round trip"
    cargo build --quiet --release -p comm-cli
    BIN=target/release/comm-explore
    serve_start smoke --side 12
    "$BIN" client --addr "$ADDR" ping
    "$BIN" client --addr "$ADDR" query alpha beta >/dev/null
    if "$BIN" client --addr "$ADDR" query alpha no-such-keyword >/dev/null 2>&1; then
        echo "bad keyword must exit non-zero"
        exit 1
    fi
    echo "==> \"+50 more\": top-150, then k = 200 resumes the parked enumeration"
    "$BIN" client --addr "$ADDR" query alpha beta --rmax 5 --k 150 >"$TMP/top150.txt"
    "$BIN" client --addr "$ADDR" query alpha beta --rmax 5 --k 200 >"$TMP/top200.txt"
    test "$(wc -l <"$TMP/top150.txt")" -eq 150 || { echo "top-150 came back short"; exit 1; }
    head -n 150 "$TMP/top200.txt" | cmp -s - "$TMP/top150.txt" \
        || { echo "k = 200 does not start with the top-150 reply"; exit 1; }
    "$BIN" client --addr "$ADDR" stats | tee "$TMP/stats.txt"
    awk '$1 == "answer_cache_resumes" { n = $2 } END { exit !(n >= 1) }' "$TMP/stats.txt" \
        || { echo "k = 200 did not resume the top-150 entry"; exit 1; }
    "$BIN" client --addr "$ADDR" shutdown >/dev/null
    wait "$PID"

    echo "==> scripted shell: query, more, a shared keyword, trees, dot, a wider radius and the max cost"
    printf '%s\n' 'load dblp 0.3' 'query database support k=3' 'more 2' \
        'query database optimization k=1' 'trees 2' 'dot 1' \
        'query database support rmax=7 cost=max k=2' quit \
        | env -u COMM_BENCH_CACHE "$BIN" >"$TMP/shell.txt"
    if grep -q '^error:' "$TMP/shell.txt" || ! grep -q '^#5 cost' "$TMP/shell.txt"; then
        cat "$TMP/shell.txt"
        echo "the scripted shell session failed"
        exit 1
    fi

    echo "==> warm start (save container, serve from it, query)"
    cargo run --quiet --release -p comm-serve --example warm_bundle -- 8 "$TMP/warm.cgph"
    serve_start warm --graph "$TMP/warm.cgph"
    "$BIN" client --addr "$ADDR" query alpha beta >/dev/null
    "$BIN" client --addr "$ADDR" shutdown >/dev/null
    wait "$PID"
}

# Beyond the leaf-lock check every test run makes: the exhaustive
# admission-gate interleaving model and the wire-protocol property tests
# run on stable; ThreadSanitizer (nightly + rust-src) re-runs the
# thread-heavy suites with data-race detection armed.
lane_concurrency() {
    echo "==> admission-gate interleaving model"
    cargo test -q --release -p comm-serve --test admission_model

    echo "==> wire-protocol property tests"
    cargo test -q --release --test protocol_roundtrip

    echo "==> ThreadSanitizer (serve lib + concurrent queries on one engine)"
    local sysroot
    if ! sysroot=$(rustc +nightly --print sysroot 2>/dev/null) \
        || ! test -d "$sysroot/lib/rustlib/src/rust/library"; then
        missing concurrency "nightly rust-src"
        return
    fi
    local host
    host=$(rustc -vV | sed -n 's/^host: //p')
    # -Zbuild-std (like Miri's sysroot build) may fetch std's own
    # dependencies, so TSan and Miri run with the network allowed.
    CARGO_NET_OFFLINE=false RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q --release -Zbuild-std --target "$host" -p comm-serve --lib
    CARGO_NET_OFFLINE=false RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q --release -Zbuild-std --target "$host" -p comm-serve --test cache_contract concurrent_
}

# Undefined-behavior detection on the index-heavy graph substrate. (There
# is no dependency tree to audit: the registry-free gate keeps it so.)
lane_hardening() {
    echo "==> miri (graph unit tests)"
    if ! cargo miri --version >/dev/null 2>&1; then
        missing hardening miri
        return
    fi
    CARGO_NET_OFFLINE=false MIRIFLAGS="-Zmiri-strict-provenance" cargo miri test -p comm-graph --lib
}

if [ $# -eq 0 ]; then
    NAMED=0
    set -- "${LANES[@]}"
else
    NAMED=1
fi
for lane in "$@"; do
    case " ${LANES[*]} " in
        *" $lane "*) "lane_$lane" ;;
        *)
            echo "usage: ./ci.sh [LANE...]; lanes: ${LANES[*]}"
            exit 2
            ;;
    esac
done

if [ "$NAMED" = 0 ]; then
    # For the next re-anchor: the size ROADMAP tracks, counted, not estimated.
    echo "==> *.rs lines outside benchmark/: $(git ls-files '*.rs' ':!benchmark' | xargs cat | wc -l)"
fi
echo "==> ci OK"
