#!/usr/bin/env bash
# Regenerates BENCH_simd_kernels.json: per-kernel scalar-vs-SIMD wall
# clock for the vectorized hot loops (examples/bench_simd.rs) — banded
# LU factor/solve, banded-Toeplitz mat-vec and radix-2 FFT — timed
# through their real entry points with the backend forced to scalar and
# then to the detected hardware level.
#
#   scripts/bench_simd.sh [--reps R]       # default: 9
set -euo pipefail
cd "$(dirname "$0")/.."

reps=9
if [ "${1:-}" = "--reps" ]; then
    reps="${2:?--reps needs an integer}"
fi

cargo build --release -q --example bench_simd
bench=$(./target/release/examples/bench_simd --reps "$reps")
level=$(echo "$bench" | sed -n 's/.*"detected_level": "\([a-z0-9]*\)".*/\1/p')
cores=$(echo "$bench" | sed -n 's/.*"host_cores": \([0-9]*\).*/\1/p')

if [ "$level" = "scalar" ]; then
    caveat="This host detected no AVX2/NEON, so both legs dispatch the scalar kernels and every speedup is ~1.0 by construction; regenerate on a vector-capable host for meaningful ratios."
else
    caveat="Detected level: ${level}."
fi

cat > BENCH_simd_kernels.json <<EOF
{
  "note": "Measured on a ${cores}-core host; each kernel is timed best-of-reps through its public entry point with the backend pinned via set_active_level, so the ratio isolates the data-layout/ILP gain of the split-plane (SoA) kernels. ${caveat} Both legs are bitwise identical by contract: the SIMD kernels use no FMA and no reduction reassociation — they vectorize across independent outputs with per-lane op order equal to the scalar reference — so goldens, xcheck digests, and 1-vs-N-thread determinism are unchanged with SIMD on or off (HTMPLL_SIMD=0 forces scalar).",
  "generated_by": "scripts/bench_simd.sh",
  "bench": $bench
}
EOF
echo "wrote BENCH_simd_kernels.json:"
cat BENCH_simd_kernels.json
