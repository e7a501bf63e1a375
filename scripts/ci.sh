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
# or baselines/ changed. The traced smoke artifacts carry no host-
# dependent field, so each is compared byte for byte with the committed
# results/ copy it came from (the two serve artifacts too large to
# commit, by their digests in baselines/serve_traces_ci.sha256).

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

# Print a step's heading after the seconds the previous step took
# (bash's SECONDS); a bare `step` closes the last one.
step() {
  if [ -n "${step_start-}" ]; then echo "    ($((SECONDS - step_start)) s)"; fi
  step_start=$SECONDS
  if [ $# -gt 0 ]; then echo "==> $1"; fi
}

step "unused dependencies (every [dependencies] and [dev-dependencies] name occurs in its package's sources, every [workspace.dependencies] name is inherited)"
# A dependency edge must be named, as a word with '-' read as '_', in
# the package's src/ (plus tests/ and examples/ for the root package);
# a dev-dependency edge in whichever of its src/, tests/, examples/ and
# benches/ exist.
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  for table in dependencies dev-dependencies; do
    if [ "$table" = dev-dependencies ]; then
      sources=$(for d in src tests examples benches; do
                  if [ -d "$dir/$d" ]; then echo "$dir/$d"; fi; done)
    elif [ "$dir" = . ]; then sources="src tests examples"; else sources="$dir/src"; fi
    for dep in $(awk -v table="[$table]" '/^\[/ { deps = ($0 == table) }
                      deps && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
      if ! grep -rqw --include='*.rs' "${dep//-/_}" $sources; then
        echo "$manifest: [$table] '$dep' is not used in" $sources >&2
        unused=1
      fi
    done
  done
done
# A [workspace.dependencies] entry must be inherited by some member, as
# `<name>.workspace = true` or `<name> = { workspace = true, ... }`;
# otherwise the crate it points at keeps building with no user.
for dep in $(awk '/^\[/ { deps = ($0 == "[workspace.dependencies]") }
                  deps && /^[A-Za-z0-9_-]+ *=/ { sub(/ *=.*/, ""); print }' Cargo.toml); do
  if ! grep -qE "^$dep(\.workspace *= *true| *= *\{ *workspace *= *true)" \
      Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; then
    echo "Cargo.toml: [workspace.dependencies] '$dep' is inherited by no member" >&2
    unused=1
  fi
done
[ "$unused" = 0 ]

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo build --release"
cargo build --workspace --release --offline

step "cargo test"
cargo test --workspace --offline -q

step "text results (tables, figures, the format comparison, the selector and the serving sweep, with their JSON, regenerate byte-identically)"
# The figures are the slower half (~185 s on 2 cores, fig7 ~95 s of
# it), at the scales EXPERIMENTS.md names; fig5 runs every preset's
# coalescing granules. The serving sweep adds ~65 s, fig8 at scale 16
# ~40 s, the format comparison ~22 s; the whole step ~320 s.
for cmd in "table1 --scale 64" "table2" "fig3 --scale 64" "table5 --scale 64" \
    "fig5 --scale 64" "fig6 --scale 256" "fig7 --scale 256" "fig8 --scale 64" \
    "ablations --scale 64" "selector --scale 512" "serve --scale 64 --matrices WIK"; do
  name=${cmd%% *}
  (cd "$work" && "$repro" $cmd > "$name.txt")
  cmp "results/$name.txt" "$work/$name.txt"
done
(cd "$work" && "$repro" fig8 --scale 16 > fig8_scale16.txt)
cmp results/fig8_scale16.txt "$work/fig8_scale16.txt"
# The Table III / Fig. 4 / Table IV engine on three analogs at scale
# 512 (~22 s): INT and HOL (the smallest and the largest ACSR margins
# of Table III) and UK2 (the one analog where TCOO runs the fastest
# SpMV). The full suite at scale 64 (results/formats.txt, ~6 min) is
# still regenerated by hand.
(cd "$work" && "$repro" compare --scale 512 --matrices INT,HOL,UK2 > compare_scale512.txt)
cmp results/compare_scale512.txt "$work/compare_scale512.txt"
# The selector and the serving sweep also wrote their JSON artifacts;
# the selector and serve --trace smokes below overwrite them.
cmp results/SELECTOR_report.json "$work/results/SELECTOR_report.json"
cmp results/BENCH_serve.json "$work/results/BENCH_serve.json"

step "acsr-bench (build, unit tests, every workload --quick, traced and untraced)"
# acsr-bench builds against crates/serve, apps and gpu-sim by path;
# sharing the workspace target dir reuses their release builds.
CARGO_TARGET_DIR=target acsr-bench/check.sh

# Every remaining repro step writes into $work/results.
cd "$work"

step "trace export smoke (repro fig5 --trace)"
"$repro" fig5 --trace --scale 512 --matrices INT > /dev/null
test -s results/trace_fig5.json
"$repro" check-artifacts results/trace_fig5.json
cmp "$root"/results/trace_fig5.json results/trace_fig5.json

step "dual-GPU smoke (repro fig8 --trace, replicated-x fleet)"
"$repro" fig8 --trace --scale 512 --matrices ENR,LJ2 > /dev/null
test -s results/trace_fig8.json
"$repro" check-artifacts results/trace_fig8.json
cmp "$root"/results/trace_fig8.json results/trace_fig8.json

step "serving smoke (repro serve --trace)"
"$repro" serve --trace --scale 512 --matrices INT > /dev/null
test -s results/trace_serve.json
"$repro" check-artifacts results/trace_serve.json

step "profiler smoke (repro profile fig5)"
"$repro" profile fig5 --trace --scale 512 --matrices INT > /dev/null
test -s results/PROFILE_fig5.json
"$repro" check-artifacts results/PROFILE_fig5.json results/trace_fig5.json
cmp "$root"/results/PROFILE_fig5.json results/PROFILE_fig5.json
cmp "$root"/results/trace_fig5.json results/trace_fig5.json

step "selector smoke (repro selector + registry print)"
"$repro" formats > /dev/null
"$repro" selector --scale 1024 --matrices ENR > /dev/null
test -s results/SELECTOR_report.json
"$repro" check-artifacts results/SELECTOR_report.json
# Exact: a changed winner, ranking or pruned candidate fails.
cmp "$baselines"/SELECTOR_ci.json results/SELECTOR_report.json

step "sim-throughput smoke (repro simbench --quick)"
"$repro" simbench --quick > /dev/null
test -s results/BENCH_sim_throughput.json
"$repro" check-artifacts results/BENCH_sim_throughput.json

step "slo smoke (repro slo --quick)"
"$repro" slo --quick > /dev/null
test -s results/BENCH_slo.json
"$repro" check-artifacts results/BENCH_slo.json

step "fleet smoke (repro fleet --quick)"
"$repro" fleet --quick > /dev/null
test -s results/BENCH_fleet.json
"$repro" check-artifacts results/BENCH_fleet.json

step "streaming-maintenance smoke (repro stream --quick)"
"$repro" stream --quick > /dev/null
test -s results/BENCH_stream.json
"$repro" check-artifacts results/BENCH_stream.json

step "metrics smoke (repro metrics fig5, reconciliation enforced)"
"$repro" metrics fig5 --scale 512 --matrices INT > /dev/null
test -s results/METRICS_fig5.json
"$repro" check-artifacts results/METRICS_fig5.json
cmp "$root"/results/METRICS_fig5.json results/METRICS_fig5.json

step "timeline smoke (repro timeline serve, wave correlation enforced)"
"$repro" timeline serve --scale 512 --matrices INT > /dev/null
test -s results/METRICS_serve.json
test -s results/TIMELINE_serve.json
"$repro" check-artifacts results/METRICS_serve.json results/TIMELINE_serve.json
cmp "$root"/results/METRICS_serve.json results/METRICS_serve.json
(cd results && sha256sum --check --quiet "$baselines"/serve_traces_ci.sha256)

step "perf-regression gate (bench-diff vs committed baseline)"
"$repro" bench-diff "$baselines"/PROFILE_fig5_ci.json results/PROFILE_fig5.json

step "host-throughput gate (bench-diff vs committed floor)"
"$repro" bench-diff "$baselines"/BENCH_sim_throughput_ci.json \
    results/BENCH_sim_throughput.json

step "slo-attainment gate (exact: bench-diff deltas, then cmp)"
"$repro" bench-diff "$baselines"/BENCH_slo_ci.json results/BENCH_slo.json
cmp "$baselines"/BENCH_slo_ci.json results/BENCH_slo.json

step "streaming-maintenance gate (exact: bench-diff deltas, then cmp)"
"$repro" bench-diff "$baselines"/BENCH_stream_ci.json results/BENCH_stream.json
cmp "$baselines"/BENCH_stream_ci.json results/BENCH_stream.json

step "fleet-scaling gate (exact: bench-diff deltas, then cmp)"
"$repro" bench-diff "$baselines"/BENCH_fleet_ci.json results/BENCH_fleet.json
cmp "$baselines"/BENCH_fleet_ci.json results/BENCH_fleet.json

step "full-run JSON artifacts (repro slo, stream and fleet regenerate byte-identically)"
# ~25 s on 2 cores. A directory of their own, so the --quick smokes'
# results/ above stay as the gates read them.
mkdir -p "$work/full/results"
for exp in slo stream fleet; do
  (cd "$work/full" && "$repro" "$exp" > /dev/null)
  cmp "$root/results/BENCH_$exp.json" "$work/full/results/BENCH_$exp.json"
done

step "perf-regression gate rejects an inflated baseline"
if "$repro" bench-diff "$baselines"/PROFILE_fig5_ci_inflated.json \
    results/PROFILE_fig5.json > /dev/null; then
  echo "bench-diff accepted an inflated baseline; the gate is broken" >&2
  exit 1
fi

step "cargo doc (deny warnings)"
cd "$root"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

step "committed artifacts untouched (results/, baselines/)"
if [ "$before" != "$(committed)" ]; then
  diff <(echo "$before") <(committed) >&2 || true
  echo "CI changed files under results/ or baselines/" >&2
  exit 1
fi

step
echo "CI green. ($SECONDS s)"
