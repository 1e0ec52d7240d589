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

echo "==> margin roots vs scan (10,000 seed-1 explore candidates, release)"
# Bitwise-equal margins from root finding and from the full scans on
# every candidate, and no fallback to the scan.
cargo test --release -q --test margin_roots -- --ignored

echo "==> one-pass H00 scan vs the two-pass extractors (10,000 seed-1 explore candidates, release)"
# analyze's bandwidth, both peakings and quality roll-up bitwise equal
# to bandwidth_3db_precomputed/peaking_db_precomputed over the full grid.
cargo test --release -q --test h00_scan -- --ignored

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
    if [ "$evals" != "3101" ]; then
        echo "metrics smoke failed: core.lambda.eval = '$evals' at HTMPLL_THREADS=$t, want 3101" >&2
        exit 1
    fi
done
echo "lambda eval count ok (3101 at HTMPLL_THREADS=1 and 4)"
# One sim.engine.segments per propagation segment (a whole sample
# interval, or a piece of one cut by a PFD event), so a change in
# simulator work shows here as a count rather than as a timing.
for t in 1 4; do
    segments=$(HTMPLL_THREADS=$t ./target/release/plltool metrics --ratio 0.1 |
        awk '$1 == "sim.engine.segments" { print $3 }')
    if [ "$segments" != "2610" ]; then
        echo "metrics smoke failed: sim.engine.segments = '$segments' at HTMPLL_THREADS=$t, want 2610" >&2
        exit 1
    fi
done
echo "simulator segment count ok (2610 at HTMPLL_THREADS=1 and 4)"

echo "==> panic audit (library paths)"
audit_hits=$(
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
audit_fail=0
while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    if ! grep -qF "$hit" scripts/panic_allowlist.txt; then
        echo "panic audit: site not in scripts/panic_allowlist.txt:" >&2
        echo "  $hit" >&2
        audit_fail=1
    fi
done <<< "$audit_hits"
# The list shrinks with the code: a line that no site found above
# matches excuses nothing and fails the audit too.
while IFS= read -r allowed; do
    case "$allowed" in ''|'#'*) continue ;; esac
    if ! awk -v a="$allowed" 'length($0) && index(a, $0) { found = 1; exit }
            END { exit !found }' <<< "$audit_hits"; then
        echo "panic audit: stale line in scripts/panic_allowlist.txt (no such site):" >&2
        echo "  $allowed" >&2
        audit_fail=1
    fi
done < scripts/panic_allowlist.txt
if [ "$audit_fail" -ne 0 ]; then
    echo "panic audit failed: convert the site to a Result or add it to the allow-list with justification; delete stale lines" >&2
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

# Public functions that nothing calls pile up one variant at a time.
# This leg lists every `pub fn` name under crates/*/src and src that
# no code names outside its definition, `#[cfg(test)]` items, comment
# lines (doc examples included) and `pub use` statements, over src,
# crates, tests, examples and benchmark/src. The match is by name, so a
# name shared with a called function passes unseen. Each listed name
# must be in scripts/pub_allowlist.txt with its reason, and each line
# there must still name a listed function.
echo "==> public-item audit (pub fn with no caller)"
strip_rs() {
    awk '
        skip { if ($0 ~ /^\}/) skip = 0; next }
        reexport { if ($0 ~ /;/) reexport = 0; next }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^[ \t]*(#\[|\/\/)/ { next }
        pending {
            pending = 0
            if ($0 !~ /\{/ && $0 ~ /;[ \t]*$/) next
            skip = 1; next
        }
        /^[ \t]*\/\// { next }
        /^[ \t]*pub use / { if ($0 !~ /;/) reexport = 1; next }
        { print }
    ' "$@"
}
pub_defined=$(find crates/*/src src -name '*.rs' | sort | while IFS= read -r f; do strip_rs "$f"; done \
    | grep -oE '\bpub (const )?(unsafe )?fn [A-Za-z_][A-Za-z0-9_]*' | awk '{ print $NF }' | sort -u)
pub_named=$(find src crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort \
    | while IFS= read -r f; do strip_rs "$f"; done \
    | sed -E 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
pub_unused=$(comm -23 <(echo "$pub_defined") <(echo "$pub_named"))
pub_allowed=$(grep -vE '^(#|$|[A-Za-z_][A-Za-z0-9_]*::)' scripts/pub_allowlist.txt || true)
pub_fail=0
while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! grep -qE "^${name}: .+" <<< "$pub_allowed"; then
        echo "public-item audit: pub fn \`$name\` has no caller and no line in scripts/pub_allowlist.txt" >&2
        pub_fail=1
    fi
done <<< "$pub_unused"
while IFS= read -r line; do
    [ -z "$line" ] && continue
    if ! grep -qxF "${line%%:*}" <<< "$pub_unused"; then
        echo "public-item audit: stale line in scripts/pub_allowlist.txt (has a caller, or is gone):" >&2
        echo "  $line" >&2
        pub_fail=1
    fi
done <<< "$pub_allowed"
if [ "$pub_fail" -ne 0 ]; then
    echo "public-item audit failed: delete the function or allow-list it as 'name: reason'; delete stale lines" >&2
    exit 1
fi
echo "public-item audit ok ($(grep -c . <<< "$pub_unused") allow-listed pub fn with no caller)"

# The name match above cannot see an associated function whose name a
# called function elsewhere shares (`Zf::constant` beside
# `Poly::constant`). So every `pub fn` of an inherent `impl Type` block
# (at the top level of a file under crates/*/src or src) whose
# signature takes no `self` must also be named as `Type::name` over
# src, crates, tests, examples and benchmark/src, or as `Self::name` in
# its own file, after the same stripping as above. Each one that is not
# must be in scripts/pub_allowlist.txt as "Type::name: reason", and
# each such line there must still name one.
echo "==> public-item audit (associated pub fn with no Type::name path)"
assoc_defs() {
    awk '
        function impl_type(line,    rest, depth, i, c) {
            rest = substr(line, 5)
            gsub(/->/, "", rest)
            if (substr(rest, 1, 1) == "<") {
                depth = 0
                for (i = 1; i <= length(rest); i++) {
                    c = substr(rest, i, 1)
                    if (c == "<") depth++
                    else if (c == ">" && --depth == 0) break
                }
                rest = substr(rest, i + 1)
            }
            sub(/^[ \t]+/, "", rest)
            if (rest ~ /[ \t]for[ \t]/) return ""
            match(rest, /^[A-Za-z_][A-Za-z0-9_:]*/)
            rest = substr(rest, RSTART, RLENGTH)
            sub(/.*::/, "", rest)
            return rest
        }
        function emit() {
            if (sig !~ /(^|[^A-Za-z0-9_])self([^A-Za-z0-9_]|$)/) print ty "::" name
            sig = ""
        }
        /^impl[ <]/ { ty = impl_type($0); next }
        /^\}/ { ty = ""; next }
        sig != "" {
            sig = sig " " $0
            if ($0 ~ /[{;]/) emit()
            next
        }
        ty != "" && match($0, /^[ \t]*pub (const )?(unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*fn /, "", name)
            sig = $0
            if ($0 ~ /[{;]/) emit()
            next
        }
    '
}
assoc_defined=$(find crates/*/src src -name '*.rs' | sort | while IFS= read -r f; do
    stripped=$(strip_rs "$f")
    assoc_defs <<< "$stripped" | while IFS= read -r path; do
        grep -qE "\bSelf::${path#*::}\b" <<< "$stripped" || echo "$path"
    done
done | sort -u)
# Every adjacent pair of a `a::b::c` path, so `$crate::Type::name`
# names `Type::name`.
assoc_named=$(find src crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort \
    | while IFS= read -r f; do strip_rs "$f"; done \
    | grep -oE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' \
    | awk -F'::' '{ for (i = 1; i < NF; i++) print $i "::" $(i + 1) }' | sort -u)
assoc_unused=$(comm -23 <(echo "$assoc_defined") <(echo "$assoc_named"))
assoc_allowed=$(grep -E '^[A-Za-z_][A-Za-z0-9_]*::' scripts/pub_allowlist.txt || true)
assoc_fail=0
while IFS= read -r path; do
    [ -z "$path" ] && continue
    if ! grep -qE "^${path}: .+" <<< "$assoc_allowed"; then
        echo "public-item audit: associated pub fn \`$path\` is never named as $path and has no line in scripts/pub_allowlist.txt" >&2
        assoc_fail=1
    fi
done <<< "$assoc_unused"
while IFS= read -r line; do
    [ -z "$line" ] && continue
    if ! grep -qxF "${line%%: *}" <<< "$assoc_unused"; then
        echo "public-item audit: stale line in scripts/pub_allowlist.txt (is named, or is gone):" >&2
        echo "  $line" >&2
        assoc_fail=1
    fi
done <<< "$assoc_allowed"
if [ "$assoc_fail" -ne 0 ]; then
    echo "public-item audit failed: delete the function or allow-list it as 'Type::name: reason'; delete stale lines" >&2
    exit 1
fi
echo "public-item audit ok ($(grep -c . <<< "$assoc_unused") allow-listed associated pub fn never named by path)"

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
# ladder (structured-vs-dense), the single-point rank-one closed loop
# against dense LU (smw-vs-dense) and analyze's margins against the full
# margin scans (margins-vs-scan); the bitwise compare above therefore
# also pins these checks across HTMPLL_THREADS=1 and =4. Assert they ran.
for row in structured-vs-dense smw-vs-dense margins-vs-scan; do
    grep -q "\"$row\"" "$x1" || {
        echo "xcheck leg failed: $row reconciliation missing from report" >&2
        exit 1
    }
done
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

echo "==> plltool serve leg (50-request JSONL stream)"
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
    echo "serve leg failed: a request errored in the healthy stream" >&2
    grep '"ok":false' "$serveout" | head -3 >&2
    exit 1
fi
hits=$(grep -o '"response_cache":{"hits":[0-9]*' "$serveout" | grep -o '[0-9]*$' | head -1)
[ -n "$hits" ] && [ "$hits" -gt 0 ] || {
    echo "serve leg failed: repeated specs produced no warm-cache hits (hits=$hits)" >&2
    exit 1
}
# The stats object reports the tail cache through its CacheStats, and
# analysis no longer runs through a sweep cache.
grep -qE '"response_cache":\{"hits":[0-9]+,"misses":[0-9]+,"evictions":[0-9]+,"entries":[0-9]+\}' "$serveout" || {
    echo "serve leg failed: stats response_cache lacks misses/evictions/entries" >&2
    grep '"command":"stats"' "$serveout" >&2
    exit 1
}
if grep '"command":"stats"' "$serveout" | grep -q '"sweep_cache"'; then
    echo "serve leg failed: stats still reports a sweep_cache member" >&2
    exit 1
fi
# `stats` is answered after all 49 analyze lines, and each of their 5
# distinct specs runs its handler once: 5 tail-cache misses.
grep '"command":"stats"' "$serveout" | grep -q '"misses":5,' || {
    echo "serve leg failed: expected 5 tail-cache misses (one per distinct spec)" >&2
    grep '"command":"stats"' "$serveout" >&2
    exit 1
}
rm -f "$servein" "$serveout"
echo "serve leg ok (50/50 in-order responses, zero shed, $hits warm-cache hits, 5 misses)"

echo "==> serve error leg (malformed, unknown command, unservable, over-limit counts: pinned bytes)"
errwant=$(mktemp); errgot=$(mktemp)
cat > "$errwant" <<'EOF'
{"schema":"plltool/v1","command":null,"ok":false,"error":{"code":"bad_request","message":"invalid JSON: expected 'null' at byte 0","retryable":false}}
{"schema":"plltool/v1","id":1,"command":null,"ok":false,"error":{"code":"bad_request","message":"unknown command `nonsense`","retryable":false}}
{"schema":"plltool/v1","id":"m","command":"metrics","ok":false,"error":{"code":"unsupported","message":"`metrics` mutates process-global state; run it via the plltool CLI","retryable":false}}
{"schema":"plltool/v1","id":"k","command":null,"ok":false,"error":{"code":"bad_request","message":"--kmax: `1000000000000000` exceeds the limit of 1000000","retryable":false}}
{"schema":"plltool/v1","id":"p","command":null,"ok":false,"error":{"code":"bad_request","message":"--points: `1000001` exceeds the limit of 1000000","retryable":false}}
EOF
# The last two exceed htmpll::requests::MAX_GRID_POINTS (a kmax of 1e15
# alone would ask for 10^15 spur lines): serve must refuse them at parse
# time, answer every line and exit 0.
printf '%s\n' 'not json' '{"id":1,"command":"nonsense"}' '{"id":"m","command":"metrics"}' \
    '{"id":"k","command":"spur","params":{"ratio":0.1,"kmax":1e15}}' \
    '{"id":"p","command":"bode","params":{"ratio":0.1,"points":1000001}}' \
    | ./target/release/plltool serve --workers 2 > "$errgot" 2>/dev/null || {
    echo "serve error leg failed: serve exited with status $?" >&2
    exit 1
}
cmp "$errwant" "$errgot" || {
    echo "serve error leg failed: error lines differ from the pinned bytes" >&2
    diff "$errwant" "$errgot" >&2 || true
    exit 1
}
rm -f "$errwant" "$errgot"
echo "serve error leg ok (5 error lines byte-identical)"

echo "==> CLI text leg (analyze --pfd sh and spur: pinned stdout and --json bytes)"
txtwant=$(mktemp); txtgot=$(mktemp); jsonwant=$(mktemp); jsongot=$(mktemp)
cat > "$txtwant" <<'EOF'
design             : PllDesign(f_ref=1.592e0 Hz, Icp=1.571e0 A, Kvco=1.000e0 rad/s/V, N=1)
ω₀ (reference)     : 1.000000e1 rad/s
ω_UG (LTI)         : 1.000000e0 rad/s  (ω_UG/ω₀ = 0.1000)
phase margin (LTI) : 61.93°
ω_UG,eff           : 1.053338e0 rad/s  (1.053× LTI)
phase margin (eff) : 55.48°  (10.4 % degradation)
−3 dB bandwidth    : 1.775288e0 rad/s
peaking            : 1.46 dB (LTI predicted 1.57 dB)
stable (HTM)       : true
strip poles        :
    -0.3459 +0.0000j   (Im/(ω₀/2) = 0.000)
    -1.7092 +0.0000j   (Im/(ω₀/2) = 0.000)
    -1.9449 +0.0000j   (Im/(ω₀/2) = 0.000)
sample-and-hold PFD: ω_UG,eff = 9.8717e-1 rad/s, PM = 44.34°
EOF
echo "wrote $jsongot" >> "$txtwant"
cat >> "$txtwant" <<'EOF'
leakage            : 1.000e-3 × I_cp
static offset      : 6.2832e-4 s (1.000e-3·T)
     k   |sideband| (s)          dBc
     1        2.3342e-5       -72.64
     2        6.1617e-6       -84.21
     3        2.7681e-6       -91.16
     4        1.5630e-6       -96.12
EOF
printf '%s' '{"schema":"plltool/v1","command":"analyze","ok":true,"result":{"design":"PllDesign(f_ref=1.592e0 Hz, Icp=1.571e0 A, Kvco=1.000e0 rad/s/V, N=1)","omega_ref":10,"omega_ug_ratio":0.10000000000000002,"omega_ug_lti":1.0000000000000002,"phase_margin_lti_deg":61.927513064147035,"omega_ug_eff":1.053338143421566,"phase_margin_eff_deg":55.48027162563125,"pm_degradation_deg":6.447241438515789,"bandwidth_3db":1.7752875019089454,"peaking_db":1.4631405090838343,"peaking_lti_db":1.5680051591909034,"nyquist_stable":true,"beyond_sampling_limit":false,"strip_poles":[{"re":-0.3458624212601548,"im":0},{"re":-1.7092319367764122,"im":0},{"re":-1.9449056419634325,"im":0}],"sample_hold":{"omega_ug":0.9871722739986611,"phase_margin_deg":44.34058853035333}},"quality":{"exact":2049,"refined":0,"perturbed":0,"failed":0,"worst_cond":3.9123108241415023,"worst_residual":0.000000000000000017985217414339522}}' > "$jsonwant"
{ ./target/release/plltool analyze --ratio 0.1 --pfd sh --json "$jsongot"
  ./target/release/plltool spur --ratio 0.1; } > "$txtgot"
cmp "$txtwant" "$txtgot" && cmp "$jsonwant" "$jsongot" || {
    echo "CLI text leg failed: stdout or --json file differs from the pinned bytes" >&2
    diff "$txtwant" "$txtgot" >&2 || true
    diff "$jsonwant" "$jsongot" >&2 || true
    exit 1
}
rm -f "$txtwant" "$txtgot" "$jsonwant" "$jsongot"
echo "CLI text leg ok (two commands' stdout and one --json file byte-identical)"

echo "==> serve deadline leg (tight budget answers, never hangs)"
# Under a 1 ms budget a 60-point sweep answers a degraded partial (or,
# should not even one ratio fit, a retryable deadline error) and an
# analyze answers whole or as a retryable deadline error.
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
retryable_deadline() { grep '"code":"deadline"' | grep -c '"retryable":true' || true; }
{ head -1 "$dlout" | grep -q '"degradation":\[' || [ "$(head -1 "$dlout" | retryable_deadline)" -eq 1 ]; } || {
    echo "serve deadline leg failed: the sweep under a 1 ms budget is neither degraded nor a retryable deadline error" >&2
    head -1 "$dlout" >&2
    exit 1
}
{ tail -1 "$dlout" | grep -q '"ok":true' || [ "$(tail -1 "$dlout" | retryable_deadline)" -eq 1 ]; } || {
    echo "serve deadline leg failed: the analyze under a 1 ms budget is neither whole nor a retryable deadline error" >&2
    tail -1 "$dlout" >&2
    exit 1
}
# Each request is fast enough to finish some work in 1 ms, so the
# handler.slow fault holds every one 5 ms past its armed budget: then
# the sweep, the analyze and the explore must each answer a structured
# retryable deadline error.
printf '{"id":0,"command":"sweep","params":{"from":0.05,"to":0.3,"points":60}}\n{"id":1,"command":"analyze","params":{"ratio":0.1}}\n{"id":2,"command":"explore","params":{"candidates":5000,"seed":1}}\n' \
    | HTMPLL_FAULT='seed=1;handler.slow=always@5' timeout 60 ./target/release/plltool serve --deadline-ms 1 --workers 2 > "$dlout" 2>/dev/null || {
    echo "serve deadline leg failed: serve exited nonzero or hung under handler.slow" >&2
    exit 1
}
dllines=$(retryable_deadline < "$dlout")
[ "$dllines" -eq 3 ] && [ "$(wc -l < "$dlout")" -eq 3 ] || {
    echo "serve deadline leg failed: expected 3 structured retryable deadline errors, got $dllines" >&2
    cat "$dlout" >&2
    exit 1
}
rm -f "$dlout"
echo "serve deadline leg ok (structured retryable deadline errors, no hang)"

echo "==> serve long-batch deadline leg (40 sweeps, each well inside its own budget)"
# A request is stopped only by its own budget: 40 sweeps well inside
# their 400 ms budget each, run one after another on one worker, must
# all answer whole however long the run takes.
lbin=$(mktemp)
lbout=$(mktemp)
lberr=$(mktemp)
for i in $(seq 0 39); do
    printf '{"id":%d,"command":"sweep","params":{"from":0.%03d,"to":0.3,"points":60,"threads":1}}\n' \
        "$i" $((50 + i))
done > "$lbin"
timeout 120 ./target/release/plltool serve --deadline-ms 400 --workers 1 \
    < "$lbin" > "$lbout" 2> "$lberr" || {
    echo "serve long-batch deadline leg failed: serve exited nonzero or hung" >&2
    exit 1
}
lblines=$(wc -l < "$lbout")
[ "$lblines" -eq 40 ] || {
    echo "serve long-batch deadline leg failed: expected 40 response lines, got $lblines" >&2
    exit 1
}
if grep -q 'partial:' "$lbout"; then
    echo "serve long-batch deadline leg failed: a sweep inside its budget came back partial" >&2
    grep -o '"partial:[^"]*"' "$lbout" >&2
    exit 1
fi
if grep -q '"code":"deadline"' "$lbout"; then
    echo "serve long-batch deadline leg failed: a sweep inside its budget answered code:deadline" >&2
    exit 1
fi
if grep -q 'watchdog' "$lberr"; then
    echo "serve long-batch deadline leg failed: a watchdog cancelled in-flight work" >&2
    cat "$lberr" >&2
    exit 1
fi
rm -f "$lbin" "$lbout" "$lberr"
echo "serve long-batch deadline leg ok (40/40 whole sweeps under a 400 ms budget each)"

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
