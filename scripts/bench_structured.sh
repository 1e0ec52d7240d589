#!/usr/bin/env bash
# Regenerates BENCH_structured_kernels.json: wall-clock numbers for the
# structured closed-loop kernels (examples/bench_structured.rs) against
# the forced dense ladder at K = 16, 24, 32, 64.
#
#   scripts/bench_structured.sh [K...]     # default: 16 24 32 64
set -euo pipefail
cd "$(dirname "$0")/.."

orders=("$@")
[ ${#orders[@]} -eq 0 ] && orders=(16 24 32 64)

cargo build --release -q --example bench_structured
bench=$(./target/release/examples/bench_structured "${orders[@]}" --reps 5)
cores=$(echo "$bench" | sed -n 's/.*"host_cores": \([0-9]*\).*/\1/p')

cat > BENCH_structured_kernels.json <<EOF
{
  "note": "Measured on a ${cores}-core host, single worker thread so the numbers isolate kernel cost, not pool scaling. structured_* sweeps keep the open loop in its rank-one representation and close the loop by Sherman-Morrison (O(K) per point); dense_* sweeps force materialization of I+G and the dense escalating ladder (O(K^3) per point). Both policies reconcile to 1e-10 on the xcheck corpus (structured-vs-dense check) with a thread-count-invariant digest.",
  "generated_by": "scripts/bench_structured.sh",
  "bench": $bench
}
EOF
echo "wrote BENCH_structured_kernels.json:"
cat BENCH_structured_kernels.json
