#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark package (release,
# offline) from the sources next to it, then runs it with the given
# arguments. Run from any directory; see README.md for the arguments.
#
#   benchmark/run.sh [--seed S] [--trace DIR] [--out FILE]         # every workload
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1 # one workload
#   benchmark/run.sh compare A.json... -- B.json...                # regression gate
#
# The build honours CARGO_TARGET_DIR; a failed build exits non-zero
# before anything is measured or printed on stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
