#!/usr/bin/env bash
# Build acsr-bench, run its unit tests, smoke every workload with --quick
# (end-to-end and traced), and validate each result line against
# BENCHMARK.json: the declared metrics, in order, with their units.
#
# Usage: acsr-bench/check.sh   (from anywhere; runs at the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=acsr-bench/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-acsr-bench/target}/release/acsr-bench"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
  for trace in 0 1; do
    line=$("$bin" --workload "$w" --seed 1 --trace "$trace" --quick | tail -n 1)
    python3 - "$w" "$trace" "$line" <<'EOF'
import json, sys
workload, trace, line = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
result = json.loads(line)
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
assert result["correct"] is True and result["failed"] == 0, result
assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
declared = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
assert printed == declared, f"printed {printed}\ndeclared {declared}"
for name, m in result["metrics"].items():
    assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float)), (name, m)
if not trace:
    zero = [name for name, m in result["metrics"].items() if m["value"] == 0]
    assert not zero, f"end-to-end metrics must never be 0: {zero}"
print(f"ok {workload} trace={int(trace)}: {len(printed)} metrics, {result['attempted']} checks")
EOF
  done
done
