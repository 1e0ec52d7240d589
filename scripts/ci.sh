#!/usr/bin/env bash
# Local CI: everything a reviewer needs to trust the tree, offline.
#
#   scripts/ci.sh            # build, test, clippy, fmt, rustdoc, metrics smoke
#
# Covers the offline workspace plus the standalone `benchmark/`
# package's tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace, HTMPLL_THREADS=1)"
HTMPLL_THREADS=1 cargo test --workspace -q

echo "==> cargo test -q (workspace, HTMPLL_THREADS=4)"
HTMPLL_THREADS=4 cargo test --workspace -q

echo "==> shared-pool stress (htmpll-par tests 20x, HTMPLL_THREADS=4)"
# Every map runs on one process-wide pool, so the concurrent test
# threads of this binary share its threads; any failure fails CI.
for i in $(seq 1 20); do
    HTMPLL_THREADS=4 cargo test -q -p htmpll-par > /dev/null || {
        echo "shared-pool stress failed on run $i" >&2
        exit 1
    }
done

echo "==> benchmark package tests (unit tests + --quick smoke of every workload)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc --workspace -D warnings"
# A doc link to a renamed or deleted item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> plltool metrics smoke"
out=$(./target/release/plltool metrics --ratio 0.1)
echo "$out" | grep -q "core.analyze" || {
    echo "metrics smoke failed: no core.analyze in output" >&2
    exit 1
}
sites=$(echo "$out" | grep -cE "counter|histogram|span" || true)
if [ "$sites" -lt 10 ]; then
    echo "metrics smoke failed: only $sites instrumented sites" >&2
    exit 1
fi
echo "metrics smoke ok ($sites instrumented sites)"
# One core.lambda.eval per λ point, however the scans are split into
# lines, chunks or workers.
for t in 1 4; do
    evals=$(HTMPLL_THREADS=$t ./target/release/plltool metrics --ratio 0.1 |
        awk '$1 == "core.lambda.eval" { print $3 }')
    if [ "$evals" != "5146" ]; then
        echo "metrics smoke failed: core.lambda.eval = '$evals' at HTMPLL_THREADS=$t, want 5146" >&2
        exit 1
    fi
done
echo "lambda eval count ok (5146 at HTMPLL_THREADS=1 and 4)"

echo "==> panic audit (library paths)"
audit_fail=0
while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    if ! grep -qF "$hit" scripts/panic_allowlist.txt; then
        echo "panic audit: site not in scripts/panic_allowlist.txt:" >&2
        echo "  $hit" >&2
        audit_fail=1
    fi
done < <(
    find crates/*/src src/bin src/lib.rs src/figures.rs src/profile.rs src/requests.rs src/service -name '*.rs' 2>/dev/null \
        | sort | while IFS= read -r f; do
        # The assert!-family is additionally audited in the estimation
        # and z-domain crates, whose inputs come straight from user
        # records: every remaining assert must be a documented
        # `# Panics` contract, not a reachable crash on bad data.
        case "$f" in
            crates/spectral/*|crates/zdomain/*) asserts=1 ;;
            *) asserts=0 ;;
        esac
        awk -v fn="$f" -v asserts="$asserts" '/#\[cfg\(test\)\]/{exit}
            /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/ {
                line=$0; sub(/^[ \t]+/, "", line);
                if (line !~ /^\/\//) print fn "\t" line; next
            }
            asserts && /assert!\(|assert_eq!\(|assert_ne!\(/ {
                line=$0; sub(/^[ \t]+/, "", line);
                if (line !~ /^\/\//) print fn "\t" line
            }' "$f"
    done
)
if [ "$audit_fail" -ne 0 ]; then
    echo "panic audit failed: convert the site to a Result or add it to the allow-list with justification" >&2
    exit 1
fi
echo "panic audit ok (all library-path sites allow-listed)"

# The main audit trims leading whitespace and skips `//`-prefixed lines,
# which also hides doc-comment examples. The estimation kernels' doc
# examples are the first code a user copies, so in fft.rs and psd.rs
# they must model the fallible API (`?` against FftError/SpectralError),
# never `.unwrap()`.
echo "==> panic audit (spectral doc examples)"
docfail=0
for f in crates/spectral/src/fft.rs crates/spectral/src/psd.rs; do
    hits=$(grep -nE '^\s*//[/!].*(\.unwrap\(\)|\.expect\(|panic!\()' "$f" || true)
    if [ -n "$hits" ]; then
        echo "doc-example panic audit: unwrap/expect/panic in $f doc comments:" >&2
        echo "$hits" >&2
        docfail=1
    fi
done
if [ "$docfail" -ne 0 ]; then
    echo "doc-example panic audit failed: rewrite the example with ? and a fallible fn" >&2
    exit 1
fi
echo "doc-example panic audit ok (fft.rs, psd.rs)"

echo "==> plltool doctor smoke"
doctorjson=$(mktemp)
./target/release/plltool doctor --ratio 0.1 --metrics-json "$doctorjson" || {
    echo "doctor smoke failed: non-zero exit on a healthy design" >&2
    exit 1
}
for key in robust. num.robust.factor htm.closed_loop.rank_one num.robust.escalate_full; do
    grep -q "$key" "$doctorjson" || {
        echo "doctor smoke failed: $key missing from doctor metrics JSON" >&2
        exit 1
    }
done
rm -f "$doctorjson"
echo "doctor smoke ok"

echo "==> xcheck determinism leg (quick corpus, threads 1 vs 4)"
x1=$(mktemp); x4=$(mktemp)
HTMPLL_THREADS=1 ./target/release/plltool xcheck --corpus quick --threads 1 --json "$x1" > /dev/null
HTMPLL_THREADS=4 ./target/release/plltool xcheck --corpus quick --threads 4 --json "$x4" > /dev/null
cmp -s "$x1" "$x4" || {
    echo "xcheck determinism failed: quick-corpus reports differ across thread counts" >&2
    diff "$x1" "$x4" | head -5 >&2
    exit 1
}
grep -q '"mismatch":0' "$x1" || {
    echo "xcheck leg failed: cross-stack mismatches in the quick corpus" >&2
    exit 1
}
# The corpus reconciles the structured kernels against the forced dense
# ladder; the bitwise compare above therefore also pins that check's
# digest across HTMPLL_THREADS=1 and =4. Assert it actually ran.
grep -q 'structured-vs-dense' "$x1" || {
    echo "xcheck leg failed: structured-vs-dense reconciliation missing from report" >&2
    exit 1
}
digest=$(grep -o '"digest":"[0-9a-f]*"' "$x1" | head -1)
rm -f "$x1" "$x4"
echo "xcheck determinism ok (bitwise-identical across thread counts, $digest)"

echo "==> xcheck full corpus (exit 2 on any mismatch)"
./target/release/plltool xcheck --corpus default > /dev/null
echo "xcheck full corpus ok (zero mismatches)"

echo "==> plltool trace smoke"
tracejson=$(mktemp)
./target/release/plltool trace doctor --ratio 0.1 --threads 1 --out "$tracejson" > /dev/null
for cat in core htm num par; do
    grep -q "\"cat\": \"$cat\"" "$tracejson" || {
        echo "trace smoke failed: no $cat spans in Chrome trace" >&2
        exit 1
    }
done
grep -q '"ph": "B"' "$tracejson" && grep -q '"ph": "E"' "$tracejson" || {
    echo "trace smoke failed: no span begin/end pairs" >&2
    exit 1
}
rm -f "$tracejson"
echo "trace smoke ok (core/htm/num/par spans in Chrome trace JSON)"

echo "==> tracing overhead guard"
cargo build --release -q --example bench_profile
overhead=$(./target/release/examples/bench_profile --reps 9 \
    | grep -o '"overhead_pct": [0-9.eE+-]*' | cut -d' ' -f2)
awk -v o="$overhead" 'BEGIN { exit !(o < 10.0) }' || {
    echo "overhead guard failed: default-tracing overhead ${overhead}% >= 10% on the K=24 structured sweep" >&2
    exit 1
}
echo "tracing overhead guard ok (${overhead}% < 10%)"

echo "==> parallel sweep pool smoke"
tmpjson=$(mktemp)
trap 'rm -f "$tmpjson"' EXIT
./target/release/plltool metrics --ratio 0.1 --threads 2 --json "$tmpjson" > /dev/null
for key in par.tasks par.chunks par.worker_busy_ns core.sweep.dense_cache.hit; do
    grep -q "\"$key" "$tmpjson" || {
        echo "pool smoke failed: $key missing from metrics JSON" >&2
        exit 1
    }
done
echo "pool smoke ok (par.* counters + sweep cache hits present)"

echo "==> plltool serve leg (50-request JSONL batch)"
servein=$(mktemp); serveout=$(mktemp)
{
    for i in $(seq 0 48); do
        r=$(awk -v i="$i" 'BEGIN { printf "0.%02d", 6 + i % 5 }')
        echo "{\"id\":$i,\"command\":\"analyze\",\"params\":{\"ratio\":$r}}"
    done
    echo '{"id":"stats","command":"stats"}'
} > "$servein"
./target/release/plltool serve --workers 4 < "$servein" > "$serveout" 2>/dev/null
lines=$(wc -l < "$serveout")
[ "$lines" -eq 50 ] || {
    echo "serve leg failed: expected 50 response lines, got $lines" >&2
    exit 1
}
if grep -q '"code":"shed"' "$serveout"; then
    echo "serve leg failed: request shed at default queue bounds" >&2
    exit 1
fi
if grep -q '"ok":false' "$serveout"; then
    echo "serve leg failed: a request errored in the healthy batch" >&2
    grep '"ok":false' "$serveout" | head -3 >&2
    exit 1
fi
hits=$(grep -o '"response_cache":{"hits":[0-9]*' "$serveout" | grep -o '[0-9]*$' | head -1)
[ -n "$hits" ] && [ "$hits" -gt 0 ] || {
    echo "serve leg failed: repeated specs produced no warm-cache hits (hits=$hits)" >&2
    exit 1
}
rm -f "$servein" "$serveout"
echo "serve leg ok (50/50 in-order responses, zero shed, $hits warm-cache hits)"

echo "==> serve deadline leg (tight budget answers, never hangs)"
dlout=$(mktemp)
printf '{"id":0,"command":"sweep","params":{"from":0.05,"to":0.3,"points":60}}\n{"id":1,"command":"analyze","params":{"ratio":0.1}}\n' \
    | timeout 60 ./target/release/plltool serve --deadline-ms 1 --workers 2 > "$dlout" 2>/dev/null || {
    echo "serve deadline leg failed: serve exited nonzero or hung" >&2
    exit 1
}
dllines=$(wc -l < "$dlout")
[ "$dllines" -eq 2 ] || {
    echo "serve deadline leg failed: expected 2 response lines, got $dllines" >&2
    exit 1
}
grep -q '"code":"deadline"' "$dlout" || {
    echo "serve deadline leg failed: no structured deadline error under a 1 ms budget" >&2
    head -2 "$dlout" >&2
    exit 1
}
grep -q '"retryable":true' "$dlout" || {
    echo "serve deadline leg failed: deadline error not marked retryable" >&2
    exit 1
}
rm -f "$dlout"
echo "serve deadline leg ok (structured retryable deadline errors, no hang)"

echo "==> explore smoke (seeded run, digest pin, thread determinism, zero failures)"
e1=$(mktemp); e4=$(mktemp)
HTMPLL_THREADS=1 ./target/release/plltool explore --candidates 600 --seed 1 \
    --min-pm 55 --max-spur -72 --front-cap 128 --refine 0 --json "$e1" > /dev/null
HTMPLL_THREADS=4 ./target/release/plltool explore --candidates 600 --seed 1 \
    --min-pm 55 --max-spur -72 --front-cap 128 --refine 0 --json "$e4" > /dev/null
cmp -s "$e1" "$e4" || {
    echo "explore smoke failed: front differs across thread counts" >&2
    diff "$e1" "$e4" | head -5 >&2
    exit 1
}
grep -q '"failed":0' "$e1" || {
    echo "explore smoke failed: candidates failed outright" >&2
    exit 1
}
grep -q '"quality":{"exact":' "$e1" || {
    echo "explore smoke failed: no quality roll-up in the envelope" >&2
    exit 1
}
if grep -q '"failed":[1-9]' "$e1"; then
    echo "explore smoke failed: Failed verdicts in the quality roll-up" >&2
    exit 1
fi
edigest=$(grep -o '"digest":"[0-9a-f]*"' "$e1" | head -1)
rm -f "$e1" "$e4"
echo "explore smoke ok (bitwise-identical across thread counts, $edigest)"

echo "==> chaos smoke (seeded fault replay, exit 2 on invariant violation)"
timeout 120 ./target/release/plltool chaos --requests 24 || {
    echo "chaos smoke failed: invariant violation or hang under the default fault plan" >&2
    exit 1
}
echo "chaos smoke ok"

echo "==> all green"
