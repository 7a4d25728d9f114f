#!/usr/bin/env bash
# Tier-2 verification: release build, lint, rustdoc, bench compilation,
# full test suite (the workspace and perfbench), perfbench's recorded
# digests at seeds 2003 and 7, and golden diffs of the repro harness.
#
# The golden checks run small-scale targets with `--jobs 0` (all cores)
# and again with `--jobs 1`, and diff stdout against the checked-in
# captures, so they verify both the harness output and the
# byte-identity of the parallel runner. A target `all` also runs is
# diffed against its section of the `all --small` golden rather than a
# copy of its own. Paper scale is pinned by one `all` and one `scale`
# run at `--jobs 0` (about 3 min together on 2 cores). `--timing`
# output goes to stderr and to BENCH_repro.json in the working
# directory, so the timed runs start in a scratch directory and leave
# the tree's file alone. The timed table1 run
# also gates on events dispatched: the event loop must dispatch exactly
# the pinned count that perfbench's digests also fix.
# The HTML report gate renders the fig2, fig3, fig3 --attribution and
# montecarlo dashboards at two --jobs values, from two working
# directories, and requires byte-identity; the audit gate re-derives every
# stage segmentation blind from the throughput curve, fails on any
# disagreement with the run log, and diffs all 55 per-run lines
# against their golden.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo fmt --all --check"
# Every workspace crate, root test and example is kept rustfmt-clean.
cargo fmt --all --check

echo "== cargo clippy"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== cargo doc"
# Rustdoc warnings (a broken or ambiguous intra-doc link, a public doc
# linking a private item) fail the build like clippy's.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== criterion benches compile"
# The benches sit behind the bench-harness feature, which clippy above
# does not enable; checking them keeps the microbenchmarks of the PRESS
# cache structures, engine and transports building.
cargo check -q -p bench --benches --features bench-harness

echo "== cargo test"
cargo test -q --workspace

echo "== perfbench tests"
# perfbench is a package of its own, outside the root workspace: its
# sliced-vs-unsliced digest test and smoke run need their own manifest.
# Building it must not rewrite its lockfile: the benchmark builds from
# the committed one, so a crate edit that changes its dependency graph
# has to show up as a lockfile change in review, not at run time.
lock_copy=$(mktemp)
cp perfbench/Cargo.lock "$lock_copy"
cargo test -q --manifest-path perfbench/Cargo.toml
if ! cmp -s "$lock_copy" perfbench/Cargo.lock; then
    diff -u "$lock_copy" perfbench/Cargo.lock >&2 || true
    cp "$lock_copy" perfbench/Cargo.lock
    rm -f "$lock_copy"
    echo "perfbench gate: building the benchmark rewrote perfbench/Cargo.lock" >&2
    exit 1
fi
rm -f "$lock_copy"

echo "== perfbench recorded digests"
# The benchmark's own output check, which its unit tests above do not
# make: each workload at the two seeds with a recorded digest must
# reproduce it, so the last stdout line reads "correct":true. A digest
# hashes the dispatched-event count and the simulated outcome, so this
# pins all four workloads the way the table1 event gate below pins one
# target.
for workload in steady-n4 faults-n4 cold-n16-digest cold-n8-eager; do
    for seed in 2003 7; do
        out=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 0) || true
        last=${out##*$'\n'}
        case "$last" in
            *'"correct":true'*) echo "   $workload seed $seed: correct" ;;
            *)
                echo "perfbench digest gate: $workload seed $seed: ${last:-no output}" >&2
                exit 1
                ;;
        esac
    done
done

echo "== allocation budgets"
# The check the cluster bench starts with, run as a test: a warm engine
# (heap, lanes, cancellation) and a warm frame slab must not allocate at
# all, and the whole-cluster event loop must stay within its per-event
# residual. A harness-free test binary, so no other thread allocates
# while a window is counted.
cargo test -q --release -p bench --features bench-harness --test allocations

echo "== repro table1 --small --timing vs golden"
# The timed runs call the plain release binary by path from a scratch
# directory; make sure it is the one built from this tree.
cargo build --release -q -p bench --bin repro
repro="${CARGO_TARGET_DIR:-$PWD/target}/release/repro"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
tmp_out="$scratch/out"
tmp_err="$scratch/err"

# `all` prints a line of 62 `=` before each target. golden_section N
# prints the N-th target's section (1-based, in `all`'s order) of the
# `all --small` golden. The separator is matched as a literal string:
# mawk ignores the `={62}` interval.
all_sep='=============================================================='
golden_section() {
    awk -v n="$1" -v sep="$all_sep" '$0 == sep { k++; next } k == n' \
        scripts/golden_all_small.txt
}

(cd "$scratch" && "$repro" table1 --small --timing --jobs 0) >"$tmp_out" 2>"$tmp_err"
cat "$tmp_err" >&2
golden_section 1 | diff -u - "$tmp_out"

echo "== stale-timer gate: events dispatched are pinned"
# The committed small table1 golden comes from a loop that dispatches
# exactly 1,167,942 events (the seed loop dispatched 1,167,954; timer
# cancellation removed superseded no-op dispatches). perfbench's
# digests pin the event count too. Any other count means a change
# scheduled or dropped events, and the "bit-identical goldens" claim
# would be luck rather than equivalence.
pinned_events=1167942
events=$(awk '$1 == "table1" { print $4; exit }' "$tmp_err")
if [ -z "$events" ]; then
    echo "stale-timer gate: could not parse events from --timing output" >&2
    exit 1
fi
echo "   table1 --small dispatched $events events (pinned: $pinned_events)"
if [ "$events" -ne "$pinned_events" ]; then
    echo "stale-timer gate: $events events dispatched != pinned $pinned_events" >&2
    exit 1
fi

echo "== repro all --small vs golden"
# Every target `all` runs in one capture: table1-3, fig2-fig10, offbyn,
# crossover and both ablations, fed by one set of phase-1 profiles.
cargo run --release -q -p bench --bin repro -- all --small --jobs 0 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_all_small.txt "$tmp_out"
cargo run --release -q -p bench --bin repro -- all --small --jobs 1 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_all_small.txt "$tmp_out"
echo "   all identical at --jobs 0 and --jobs 1"

echo "== single targets match their section of the all golden"
# table1, fig3, fig6 and crossover run alone must print exactly what
# `all` prints for them, at both --jobs values. Figure 6 weights every
# phase-1 fault run by its rate, so its section pins the request
# scoring of all fault classes, application hangs longer than the
# request timeout included. The timed run above already diffs table1
# at --jobs 0.
for target in table1:1 fig3:5 fig6:9 crossover:14; do
    for jobs in 0 1; do
        [ "$target:$jobs" = table1:1:0 ] && continue
        cargo run --release -q -p bench --bin repro -- "${target%:*}" --small --jobs "$jobs" \
            >"$tmp_out" 2>/dev/null
        golden_section "${target#*:}" | diff -u - "$tmp_out"
    done
done
echo "   table1, fig3, fig6, crossover identical to their sections at --jobs 0 and --jobs 1"

echo "== repro all and scale (paper scale) vs goldens"
# One paper-scale run of every target of `all`, and one of the N=64
# cache-sync sweep, seed 2003: EXPERIMENTS.md quotes both. Their
# timing goes to stderr; BENCH_repro.json lands in the scratch
# directory.
for target in all scale; do
    (cd "$scratch" && "$repro" "$target" --timing --jobs 0) >"$tmp_out" 2>"$tmp_err"
    tail -n 3 "$tmp_err" >&2
    diff -u "scripts/golden_${target}_paper.txt" "$tmp_out"
done
echo "   paper-scale all and scale identical"

echo "== repro montecarlo --small vs golden"
# The Monte-Carlo estimator replays generated multi-fault timelines
# (correlated groups, gray faults, overlapping arrivals); the golden
# pins the whole estimate — every replication row, the confidence
# intervals, and the closed-form cross-check verdict — across --jobs.
cargo run --release -q -p bench --bin repro -- montecarlo --small --jobs 0 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_montecarlo_small.txt "$tmp_out"
cargo run --release -q -p bench --bin repro -- montecarlo --small --jobs 1 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_montecarlo_small.txt "$tmp_out"
echo "   montecarlo identical at --jobs 0 and --jobs 1"

echo "== montecarlo sanity gates"
# The showcase timeline must actually exercise the new fault universe
# (correlated consequents, gray faults overlapping fail-stop ones),
# and the single-fault-class run must agree with the closed-form AA
# within the stated tolerance (the PASS verdict is computed in-binary).
grep -Eq "overlap: [0-9]+ faults total \([1-9][0-9]* correlated\)" "$tmp_out" \
    || { echo "montecarlo gate: no correlated faults in the showcase" >&2; exit 1; }
grep -Eq "gray & fail-stop overlap [1-9][0-9]*\.[0-9] s" "$tmp_out" \
    || { echo "montecarlo gate: no gray/fail-stop overlap in the showcase" >&2; exit 1; }
grep -q "tolerance 0.05: PASS" "$tmp_out" \
    || { echo "montecarlo gate: closed-form cross-check did not PASS" >&2; exit 1; }
echo "   correlated + gray/fail-stop overlap present; cross-check PASS"

echo "== repro membership --small vs golden"
# The ring-vs-gossip detector sweep: rack-crash detection latency,
# availability/throughput, gray-fault false exclusions, and rejoin
# latency for both detectors over N in {4,8,16,32}. The golden pins
# every row and the crossover sentence across --jobs.
cargo run --release -q -p bench --bin repro -- membership --small --jobs 0 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_membership_small.txt "$tmp_out"
cargo run --release -q -p bench --bin repro -- membership --small --jobs 1 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_membership_small.txt "$tmp_out"
echo "   membership identical at --jobs 0 and --jobs 1"

echo "== membership sanity gates"
# At the largest swept N the epidemic detector must beat the ring on
# rack-crash detection latency (the whole point of the study), and the
# gray fault must separate the detectors: the ring false-excludes,
# gossip's indirect ping-req path keeps every live node in every view.
ring32=$(awk '$1 == "32" && $2 == "ring"   { print $3 }' "$tmp_out")
gossip32=$(awk '$1 == "32" && $2 == "gossip" { print $3 }' "$tmp_out")
if [ -z "$ring32" ] || [ -z "$gossip32" ]; then
    echo "membership gate: could not parse N=32 detection rows" >&2
    exit 1
fi
awk -v r="$ring32" -v g="$gossip32" 'BEGIN { exit !(g+0 < r+0) }' \
    || { echo "membership gate: gossip ($gossip32 s) not faster than ring ($ring32 s) at N=32" >&2; exit 1; }
grep -Eq "^32  ring +[0-9.+]+ +[0-9.]+ +[0-9]+ +[1-9][0-9]*" "$tmp_out" \
    || { echo "membership gate: ring shows no false exclusions under the gray fault" >&2; exit 1; }
grep -Eq "^32  gossip +[0-9.+]+ +[0-9.]+ +[0-9]+ +0 " "$tmp_out" \
    || { echo "membership gate: gossip false-exclusion count at N=32 is not zero" >&2; exit 1; }
echo "   N=32 detection: ring ${ring32}s vs gossip ${gossip32}s; gray-fault split confirmed"

echo "== repro scale --small vs golden"
# The cache-sync scaling sweep: eager-broadcast vs batched-digest over
# N in {4,16} on a radix-8 fat-tree fabric, cold-start node-crash
# scenario. The golden pins every row across --jobs.
cargo run --release -q -p bench --bin repro -- scale --small --jobs 0 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_scale_small.txt "$tmp_out"
cargo run --release -q -p bench --bin repro -- scale --small --jobs 1 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_scale_small.txt "$tmp_out"
echo "   scale identical at --jobs 0 and --jobs 1"

echo "== scale sanity gates"
# The tentpole claim, asserted on the TCP-PRESS-HB ring rows: eager
# broadcast costs (N-1) control frames per caching action, so its
# ctrl/req must grow with N (>= 2.5x from N=4 to N=16; the exact 4x is
# blunted by crash-eviction churn in the small N=4 baseline), while
# digest mode's fanout-bounded flushes must stay flat (<= 2x) and cost
# less than half of eager's total frames at N=16.
e4=$(awk  '$1 == "4"  && $2 == "TCP-PRESS-HB" && $3 == "eager"  && $4 == "ring" { print $10 }' "$tmp_out")
e16=$(awk '$1 == "16" && $2 == "TCP-PRESS-HB" && $3 == "eager"  && $4 == "ring" { print $10 }' "$tmp_out")
d4=$(awk  '$1 == "4"  && $2 == "TCP-PRESS-HB" && $3 == "digest" && $4 == "ring" { print $10 }' "$tmp_out")
d16=$(awk '$1 == "16" && $2 == "TCP-PRESS-HB" && $3 == "digest" && $4 == "ring" { print $10 }' "$tmp_out")
ef16=$(awk '$1 == "16" && $2 == "TCP-PRESS-HB" && $3 == "eager"  && $4 == "ring" { print $9 }' "$tmp_out")
df16=$(awk '$1 == "16" && $2 == "TCP-PRESS-HB" && $3 == "digest" && $4 == "ring" { print $9 }' "$tmp_out")
if [ -z "$e4" ] || [ -z "$e16" ] || [ -z "$d4" ] || [ -z "$d16" ]; then
    echo "scale gate: could not parse ctrl/req columns" >&2
    exit 1
fi
awk -v a="$e16" -v b="$e4" 'BEGIN { exit !(a+0 >= 2.5 * (b+0)) }' \
    || { echo "scale gate: eager ctrl/req not growing with N ($e4 -> $e16)" >&2; exit 1; }
awk -v a="$d16" -v b="$d4" 'BEGIN { exit !(a+0 <= 2.0 * (b+0)) }' \
    || { echo "scale gate: digest ctrl/req not flat in N ($d4 -> $d16)" >&2; exit 1; }
awk -v d="$df16" -v e="$ef16" 'BEGIN { exit !(2 * (d+0) < e+0) }' \
    || { echo "scale gate: digest frames at N=16 ($df16) not under half of eager ($ef16)" >&2; exit 1; }
echo "   eager ctrl/req $e4 -> $e16 (linear), digest $d4 -> $d16 (flat); frames $df16 vs $ef16"

echo "== repro fig3 --attribution vs golden"
# Root-cause attribution: every lost/deadline-missing request is
# classified into exactly one cause bucket. The golden pins the three
# runs' Pareto tables, conservation verdicts, stage splits, and
# critical-path percentiles across --jobs.
cargo run --release -q -p bench --bin repro -- fig3 --small --attribution --jobs 0 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_fig3_attr_small.txt "$tmp_out"
cargo run --release -q -p bench --bin repro -- fig3 --small --attribution --jobs 1 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_fig3_attr_small.txt "$tmp_out"
echo "   fig3 attribution identical at --jobs 0 and --jobs 1"

echo "== attribution conservation gates"
# The conservation law, re-derived here from the printed tables rather
# than trusted from the binary's own verdict: per-cause losses must sum
# exactly to the total attributed (integers, exact), the per-block
# verdict must be OK with its full-precision time delta under 1e-9
# (attributed unavailable seconds == (1-AA)*T), and the printed
# unavailable-seconds columns must re-add within printed precision.
check_conservation() {
    # $1 = output file, $2 = expected number of attribution blocks
    if grep -q "conservation: FAIL" "$1"; then
        echo "conservation gate: FAIL verdict present in $1" >&2
        return 1
    fi
    ok=$(grep -c "^conservation: OK" "$1" || true)
    if [ "$ok" -ne "$2" ]; then
        echo "conservation gate: expected $2 OK verdicts, found $ok" >&2
        return 1
    fi
    if [ "$(grep -c "time delta .* < 1e-9" "$1" || true)" -ne "$2" ]; then
        echo "conservation gate: a block's time delta is not under 1e-9" >&2
        return 1
    fi
    awk '
        /^cause +lost/ { inblk = 1; sum = 0; usum = 0; next }
        inblk && /^total attributed/ {
            if (sum != $3) { printf "count mismatch: causes sum %d != total %d\n", sum, $3; bad = 1 }
            d = usum - $4; if (d < 0) d = -d
            if (d > 5e-6) { printf "unavail mismatch: causes sum %.6f != total %.6f\n", usum, $4; bad = 1 }
            utot = $4; next
        }
        inblk && /^in-flight residual/ { ures = $4; next }
        inblk && /^\(1-AA\)\*T/ {
            d = utot + ures - $2; if (d < 0) d = -d
            if (d > 5e-6) { printf "time mismatch: %.6f + %.6f != %.6f\n", utot, ures, $2; bad = 1 }
            inblk = 0; blocks++; next
        }
        inblk { sum += $(NF-3); usum += $NF }
        END {
            if (blocks != expect) { printf "expected %d attribution blocks, saw %d\n", expect, blocks; bad = 1 }
            exit bad
        }' expect="$2" "$1"
}
check_conservation "$tmp_out" 3
echo "   fig3: 3/3 runs conserve (counts exact, time under 1e-9)"
cargo run --release -q -p bench --bin repro -- scale --small --attribution --jobs 0 >"$tmp_out" 2>/dev/null
check_conservation "$tmp_out" 12
echo "   scale: 12/12 sweep points conserve"

echo "== repro table1 --metrics vs golden"
cargo run --release -q -p bench --bin repro -- table1 --small --metrics --jobs 0 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_table1_metrics_small.txt "$tmp_out"
cargo run --release -q -p bench --bin repro -- table1 --small --metrics --jobs 1 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_table1_metrics_small.txt "$tmp_out"

echo "== HTML reports are byte-identical across --jobs"
tmp_rep1=$(mktemp)
tmp_rep2=$(mktemp)
# `fig3 --attribution` is the only report that draws the root-cause
# chart; the word-split `$run` carries its flag. The --jobs 0 render
# runs from the scratch directory, whose BENCH_repro.json is not the
# tree's: a report is a function of its runs alone.
for run in fig2 fig3 "fig3 --attribution" montecarlo; do
    # shellcheck disable=SC2086
    cargo run --release -q -p bench --bin repro -- $run --small --jobs 1 --report "$tmp_rep1" >/dev/null 2>&1
    # shellcheck disable=SC2086
    (cd "$scratch" && "$repro" $run --small --jobs 0 --report "$tmp_rep2") >/dev/null 2>&1
    cmp "$tmp_rep1" "$tmp_rep2"
    echo "   $run report: $(wc -c <"$tmp_rep1") bytes, identical"
done
rm -f "$tmp_rep1" "$tmp_rep2"

echo "== blind stage-segmentation audit vs golden"
# All 55 per-run verdicts and segment counts, plus the summary line;
# the target exits non-zero on any disagreement, which fails here too.
cargo run --release -q -p bench --bin repro -- audit --small --jobs 0 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_audit_small.txt "$tmp_out"
cargo run --release -q -p bench --bin repro -- audit --small --jobs 1 >"$tmp_out" 2>/dev/null
diff -u scripts/golden_audit_small.txt "$tmp_out"
tail -1 "$tmp_out"

echo "== traced fig3 is deterministic"
tmp_trace1=$(mktemp)
tmp_trace2=$(mktemp)
cargo run --release -q -p bench --bin repro -- fig3 --small --trace "$tmp_trace1" >/dev/null 2>&1
cargo run --release -q -p bench --bin repro -- fig3 --small --jobs 0 --trace "$tmp_trace2" >/dev/null 2>&1
cmp "$tmp_trace1" "$tmp_trace2"
# The file is also pinned by size and hash: a change that moves any
# traced event fails here even when two runs agree. Update both values
# only for an intended change to the trace.
trace_bytes=$(wc -c <"$tmp_trace1")
trace_sha=$(sha256sum "$tmp_trace1" | cut -d' ' -f1)
if [ "$trace_bytes" -ne 525596 ] \
    || [ "$trace_sha" != 4683d8644bcfc96417a5aa458dfff4ddeb612d5cc4dc0b5998a20576ca2f114d ]; then
    echo "trace gate: fig3 --small --trace is $trace_bytes bytes, sha256 $trace_sha;" \
        "expected 525596 bytes, sha256 4683d864...2f114d" >&2
    exit 1
fi
echo "   fig3 --small --trace: 525596 bytes, sha256 pinned"

echo "== observation flags compose on one run"
# Attribution and tracing observe the same fig3 runs: the composed run
# must print exactly the attribution golden, write exactly the
# trace-only file, and still print its --timing row. A flag the target
# does not take must exit 2.
(cd "$scratch" && "$repro" fig3 --small --attribution --trace "$tmp_trace2" --timing --jobs 0) \
    >"$tmp_out" 2>"$tmp_err"
diff -u scripts/golden_fig3_attr_small.txt "$tmp_out"
cmp "$tmp_trace1" "$tmp_trace2"
grep -q "^fig3 " "$tmp_err" \
    || { echo "compose gate: no fig3 timing row" >&2; exit 1; }
status=0
cargo run --release -q -p bench --bin repro -- table2 --trace "$tmp_trace2" >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "compose gate: table2 --trace exited $status, expected 2" >&2
    exit 1
fi
rm -f "$tmp_trace1" "$tmp_trace2"
echo "   fig3 --attribution --trace --timing matches both single-flag outputs"

echo "verify: OK"
