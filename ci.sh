#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests — in the same order a
# hosted pipeline would run them. Fails fast on the cheapest check.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --workspace --release

# perfbench/ is a workspace of its own, so the workspace build above never
# compiles it; it must keep building against the public config types.
echo "==> perfbench build"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run (Criterion benches must keep compiling)"
cargo bench --workspace --no-run --quiet

echo "==> cargo test"
cargo test --workspace

# Each sweep binary's --smoke mode replays a fixed seeded subset and
# byte-compares its report against results/<name>_smoke.golden. Any
# drift prints a unified diff of the blessed golden vs the fresh run.
for sweep in chaos_sweep poison_sweep bundle_market scale_sweep survivability_sweep market_sweep; do
    echo "==> ${sweep} smoke (deterministic golden)"
    cargo run --release -q -p vbundle-bench --bin "${sweep}" -- --smoke
done

# The crash-only failover variant has its own golden: backup sites must
# re-materialize dead domains' VMs without a single Restart event.
echo "==> survivability_sweep --failover smoke (deterministic golden)"
cargo run --release -q -p vbundle-bench --bin survivability_sweep -- --smoke --failover

# The failure-recovery walkthrough doubles as a smoke: pinned seed, hard
# asserts inside, and a known final line that must survive refactors.
echo "==> failure_recovery example smoke (pinned seed)"
cargo run --release -q --example failure_recovery \
    | grep -q "no central manager, nothing to restart: the overlay repaired itself."

# Likewise the spot-market walkthrough: a priced cross-tenant lease must
# clear, bill both sides and reconcile, all under a pinned seed.
echo "==> bandwidth_trading example smoke (pinned seed)"
cargo run --release -q --example bandwidth_trading \
    | grep -q "priced spot lease settled: buyer paid, seller earned, books reconcile"

# The churn workload gates entitlement, billing and isolation-cap
# conservation under trading, the spot market and failover together.
echo "==> perfbench churn smoke (seed 1)"
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload churn --seed 1 --seconds 1 --trace 0 > /dev/null

# Full-stack byte identity: the benchmark workloads' outcome digests are
# pinned (workload:seed:digest), so a behaviour change anywhere in the stack
# fails here, not only where a sweep golden happens to look. churn's rack
# crashes cover Scribe child removal and node restart.
for pin in rebalance:1:b75d0622a2800453 rebalance:2:d81d7193ea252f1d \
    boot_storm:1:2ecc510a84c914f8 boot_storm:2:72467afdede8adf8 \
    churn:1:6c1b9e6810acb153; do
    IFS=: read -r workload seed digest <<< "${pin}"
    want="digest ${workload} seed ${seed} ${digest}"
    echo "==> perfbench ${workload} digest pin (seed ${seed})"
    got="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "${workload}" --seed "${seed}" --seconds 1 --trace 0 | grep '^digest ')"
    if [ "${got}" != "${want}" ]; then
        echo "digest drift: got '${got}', want '${want}'" >&2
        exit 1
    fi
done

# The paper's evaluation as one checked run: every figure and ablation row
# prints its series, rewrites its CSV and judges its claim; a verdict that
# differs from the row's expectation exits non-zero. The drift gate below
# then holds the CSVs and the log to the committed record.
echo "==> repro (every figure's claim, plus the figure record)"
cargo run --release -q -p vbundle-bench --bin repro > results/all_figures.log

echo "==> golden files unchanged"
golden=(results/*.golden results/fig*.csv results/all_figures.log BENCH_surv.json BENCH_market.json)
if ! git diff --quiet -- "${golden[@]}"; then
    git --no-pager diff --stat -- "${golden[@]}"
    git --no-pager diff -- results/*.golden results/all_figures.log BENCH_surv.json BENCH_market.json
    echo "golden drift: inspect the diff, then regen with" \
         "'cargo run --release -p vbundle-bench --bin <sweep> -- --smoke --bless'" \
         "or 'cargo run --release -p vbundle-bench --bin repro > results/all_figures.log'" >&2
    exit 1
fi

echo "CI green."
