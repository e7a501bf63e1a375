#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests. Run from the repo root.
#
# Matches what the tier-1 gate checks plus the full workspace suite.
# Pass --offline (the default here) so the hermetic shims in shims/ are
# used instead of crates.io.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> paper text results (the cheap tables regenerate byte-identically)"
tmp=$(mktemp -d)
for cmd in "table1 --scale 64" "table2" "fig3 --scale 64" "table5 --scale 64"; do
  name=${cmd%% *}
  ./target/release/repro $cmd > "$tmp/$name.txt"
  cmp "results/$name.txt" "$tmp/$name.txt"
done
rm -rf "$tmp"

echo "==> acsr-bench (build, unit tests, every workload --quick, traced and untraced)"
# acsr-bench builds against crates/serve, apps and gpu-sim by path;
# sharing the workspace target dir reuses their release builds.
CARGO_TARGET_DIR=target acsr-bench/check.sh

echo "==> trace export smoke (repro fig5 --trace)"
./target/release/repro fig5 --trace --scale 512 --matrices INT > /dev/null
test -s results/trace_fig5.json
./target/release/repro check-artifacts results/trace_fig5.json

echo "==> dual-GPU smoke (repro fig8 --trace, replicated-x fleet)"
./target/release/repro fig8 --trace --scale 512 --matrices ENR,LJ2 > /dev/null
test -s results/trace_fig8.json
./target/release/repro check-artifacts results/trace_fig8.json

echo "==> serving smoke (repro serve --trace)"
./target/release/repro serve --trace --scale 512 --matrices INT > /dev/null
test -s results/trace_serve.json
./target/release/repro check-artifacts results/trace_serve.json

echo "==> profiler smoke (repro profile fig5)"
./target/release/repro profile fig5 --trace --scale 512 --matrices INT > /dev/null
test -s results/PROFILE_fig5.json
./target/release/repro check-artifacts results/PROFILE_fig5.json results/trace_fig5.json

echo "==> selector smoke (repro selector + registry print)"
./target/release/repro formats > /dev/null
./target/release/repro selector --scale 1024 --matrices ENR > /dev/null
test -s results/SELECTOR_report.json
./target/release/repro check-artifacts results/SELECTOR_report.json
# Exact: a changed winner, ranking or pruned candidate fails.
cmp baselines/SELECTOR_ci.json results/SELECTOR_report.json

echo "==> sim-throughput smoke (repro simbench --quick)"
./target/release/repro simbench --quick > /dev/null
test -s results/BENCH_sim_throughput.json
./target/release/repro check-artifacts results/BENCH_sim_throughput.json

echo "==> slo smoke (repro slo --quick)"
./target/release/repro slo --quick > /dev/null
test -s results/BENCH_slo.json
./target/release/repro check-artifacts results/BENCH_slo.json

echo "==> fleet smoke (repro fleet --quick)"
./target/release/repro fleet --quick > /dev/null
test -s results/BENCH_fleet.json
./target/release/repro check-artifacts results/BENCH_fleet.json

echo "==> streaming-maintenance smoke (repro stream --quick)"
./target/release/repro stream --quick > /dev/null
test -s results/BENCH_stream.json
./target/release/repro check-artifacts results/BENCH_stream.json

echo "==> metrics smoke (repro metrics fig5, reconciliation enforced)"
./target/release/repro metrics fig5 --scale 512 --matrices INT > /dev/null
test -s results/METRICS_fig5.json
./target/release/repro check-artifacts results/METRICS_fig5.json

echo "==> timeline smoke (repro timeline serve, wave correlation enforced)"
./target/release/repro timeline serve --scale 512 --matrices INT > /dev/null
test -s results/METRICS_serve.json
test -s results/TIMELINE_serve.json
./target/release/repro check-artifacts results/METRICS_serve.json results/TIMELINE_serve.json

echo "==> perf-regression gate (bench-diff vs committed baseline)"
./target/release/repro bench-diff baselines/PROFILE_fig5_ci.json results/PROFILE_fig5.json

echo "==> host-throughput gate (bench-diff vs committed floor)"
./target/release/repro bench-diff baselines/BENCH_sim_throughput_ci.json \
    results/BENCH_sim_throughput.json

echo "==> slo-attainment gate (exact: bench-diff deltas, then cmp)"
./target/release/repro bench-diff baselines/BENCH_slo_ci.json results/BENCH_slo.json
cmp baselines/BENCH_slo_ci.json results/BENCH_slo.json

echo "==> streaming-maintenance gate (exact: bench-diff deltas, then cmp)"
./target/release/repro bench-diff baselines/BENCH_stream_ci.json results/BENCH_stream.json
cmp baselines/BENCH_stream_ci.json results/BENCH_stream.json

echo "==> fleet-scaling gate (exact: bench-diff deltas, then cmp)"
./target/release/repro bench-diff baselines/BENCH_fleet_ci.json results/BENCH_fleet.json
cmp baselines/BENCH_fleet_ci.json results/BENCH_fleet.json

echo "==> perf-regression gate rejects an inflated baseline"
if ./target/release/repro bench-diff baselines/PROFILE_fig5_ci_inflated.json \
    results/PROFILE_fig5.json > /dev/null; then
  echo "bench-diff accepted an inflated baseline; the gate is broken" >&2
  exit 1
fi

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "CI green."
