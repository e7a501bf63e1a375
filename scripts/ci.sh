#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests. Run from the repo root.
#
# Matches what the tier-1 gate checks plus the full workspace suite.
# Pass --offline (the default here) so the hermetic shims in shims/ are
# used instead of crates.io.
#
# Every `repro` smoke and gate runs in a fresh temporary directory with
# its own results/ (artifacts are written under the working directory),
# and baselines are read by absolute path, so CI never rewrites the
# committed artifacts; the last step fails if any file under results/
# or baselines/ changed.

set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
repro="$root/target/release/repro"
baselines="$root/baselines"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/results"

# Checksums of every committed artifact, compared at the end.
committed() { (cd "$root" && find results baselines -type f -print0 | sort -z | xargs -0 sha256sum); }
before=$(committed)

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> paper text results (the cheap tables regenerate byte-identically)"
for cmd in "table1 --scale 64" "table2" "fig3 --scale 64" "table5 --scale 64"; do
  name=${cmd%% *}
  (cd "$work" && "$repro" $cmd > "$name.txt")
  cmp "results/$name.txt" "$work/$name.txt"
done

echo "==> acsr-bench (build, unit tests, every workload --quick, traced and untraced)"
# acsr-bench builds against crates/serve, apps and gpu-sim by path;
# sharing the workspace target dir reuses their release builds.
CARGO_TARGET_DIR=target acsr-bench/check.sh

# Every remaining repro step writes into $work/results.
cd "$work"

echo "==> trace export smoke (repro fig5 --trace)"
"$repro" fig5 --trace --scale 512 --matrices INT > /dev/null
test -s results/trace_fig5.json
"$repro" check-artifacts results/trace_fig5.json

echo "==> dual-GPU smoke (repro fig8 --trace, replicated-x fleet)"
"$repro" fig8 --trace --scale 512 --matrices ENR,LJ2 > /dev/null
test -s results/trace_fig8.json
"$repro" check-artifacts results/trace_fig8.json

echo "==> serving smoke (repro serve --trace)"
"$repro" serve --trace --scale 512 --matrices INT > /dev/null
test -s results/trace_serve.json
"$repro" check-artifacts results/trace_serve.json

echo "==> profiler smoke (repro profile fig5)"
"$repro" profile fig5 --trace --scale 512 --matrices INT > /dev/null
test -s results/PROFILE_fig5.json
"$repro" check-artifacts results/PROFILE_fig5.json results/trace_fig5.json

echo "==> selector smoke (repro selector + registry print)"
"$repro" formats > /dev/null
"$repro" selector --scale 1024 --matrices ENR > /dev/null
test -s results/SELECTOR_report.json
"$repro" check-artifacts results/SELECTOR_report.json
# Exact: a changed winner, ranking or pruned candidate fails.
cmp "$baselines"/SELECTOR_ci.json results/SELECTOR_report.json

echo "==> sim-throughput smoke (repro simbench --quick)"
"$repro" simbench --quick > /dev/null
test -s results/BENCH_sim_throughput.json
"$repro" check-artifacts results/BENCH_sim_throughput.json

echo "==> slo smoke (repro slo --quick)"
"$repro" slo --quick > /dev/null
test -s results/BENCH_slo.json
"$repro" check-artifacts results/BENCH_slo.json

echo "==> fleet smoke (repro fleet --quick)"
"$repro" fleet --quick > /dev/null
test -s results/BENCH_fleet.json
"$repro" check-artifacts results/BENCH_fleet.json

echo "==> streaming-maintenance smoke (repro stream --quick)"
"$repro" stream --quick > /dev/null
test -s results/BENCH_stream.json
"$repro" check-artifacts results/BENCH_stream.json

echo "==> metrics smoke (repro metrics fig5, reconciliation enforced)"
"$repro" metrics fig5 --scale 512 --matrices INT > /dev/null
test -s results/METRICS_fig5.json
"$repro" check-artifacts results/METRICS_fig5.json

echo "==> timeline smoke (repro timeline serve, wave correlation enforced)"
"$repro" timeline serve --scale 512 --matrices INT > /dev/null
test -s results/METRICS_serve.json
test -s results/TIMELINE_serve.json
"$repro" check-artifacts results/METRICS_serve.json results/TIMELINE_serve.json

echo "==> perf-regression gate (bench-diff vs committed baseline)"
"$repro" bench-diff "$baselines"/PROFILE_fig5_ci.json results/PROFILE_fig5.json

echo "==> host-throughput gate (bench-diff vs committed floor)"
"$repro" bench-diff "$baselines"/BENCH_sim_throughput_ci.json \
    results/BENCH_sim_throughput.json

echo "==> slo-attainment gate (exact: bench-diff deltas, then cmp)"
"$repro" bench-diff "$baselines"/BENCH_slo_ci.json results/BENCH_slo.json
cmp "$baselines"/BENCH_slo_ci.json results/BENCH_slo.json

echo "==> streaming-maintenance gate (exact: bench-diff deltas, then cmp)"
"$repro" bench-diff "$baselines"/BENCH_stream_ci.json results/BENCH_stream.json
cmp "$baselines"/BENCH_stream_ci.json results/BENCH_stream.json

echo "==> fleet-scaling gate (exact: bench-diff deltas, then cmp)"
"$repro" bench-diff "$baselines"/BENCH_fleet_ci.json results/BENCH_fleet.json
cmp "$baselines"/BENCH_fleet_ci.json results/BENCH_fleet.json

echo "==> perf-regression gate rejects an inflated baseline"
if "$repro" bench-diff "$baselines"/PROFILE_fig5_ci_inflated.json \
    results/PROFILE_fig5.json > /dev/null; then
  echo "bench-diff accepted an inflated baseline; the gate is broken" >&2
  exit 1
fi

echo "==> cargo doc (deny warnings)"
cd "$root"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> committed artifacts untouched (results/, baselines/)"
if [ "$before" != "$(committed)" ]; then
  diff <(echo "$before") <(committed) >&2 || true
  echo "CI changed files under results/ or baselines/" >&2
  exit 1
fi

echo "CI green."
