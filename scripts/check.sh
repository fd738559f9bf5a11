#!/usr/bin/env bash
# Tier-1 verification plus the determinism regression (run twice), the
# performance trajectory record, and an observability smoke-check.
#
# This is the exact line ROADMAP.md documents as "Tier-1 verify", followed
# by two back-to-back runs of the analyzer determinism suite (which itself
# compares threads {1,4} x query-cache {on,off} x tracing {off,on});
# running the binary twice catches run-to-run nondeterminism that a single
# in-process comparison cannot (e.g. ASLR-dependent container ordering).
# The determinism suite also carries the engine oracle: every analyzed
# function re-executed under the tree executor and under the
# enumerate-then-replay reference executor, entry lists equal, plus
# budget and fault outcomes pinned by recorded digests.
# It then runs the robustness chaos suite (fault injection + budgets),
# once normally and once under ASan+UBSan (the `asan` preset's build
# tree, building only the chaos test), runs the frontend's byte-level
# mutation fuzz and the lexer suite under the same sanitizers (tokens
# view the source buffer), runs the mutation fuzz of spec text, WAL
# segments and provenance journals and the store suite under the same
# sanitizers, runs the engine oracle, the pinned outcomes and the
# tree-executor unit suite under the same sanitizers (the COW store and
# persistent condition chain are exactly the kind of shared-ownership
# code ASan exists for), runs the summary-compaction unit suite plus the
# compaction/interning determinism differentials under ASan (the
# sharded instantiation cache is shared mutable state), refreshes
# BENCH_performance.json at the repo root (the microbenchmarks
# themselves are skipped via a non-matching filter — only the
# trajectory-record workload runs, including the provenance journal
# off/on overhead pair plus the durable-store cold/warm resume
# differential), exercises the tracing path end to end
# on a small DPM corpus, round-trips the provenance journal through
# `ridc explain` and `ridc diff-runs` (including a torn-tail journal),
# SIGKILLs a store-backed `ridc` scan mid-run to prove `--resume`
# reproduces an uninterrupted run's reports byte for byte, and resumes
# once more with no edits to prove a warm resume replays everything and
# appends at most one checkpoint frame.
#
# Usage: scripts/check.sh        (from anywhere inside the repo)
# CMake equivalent: cmake --build build --target check

set -euo pipefail
cd "$(dirname "$0")/.."

# run_filtered BINARY FILTER: run the gtest cases FILTER selects, and
# fail when it selects none. gtest exits 0 on an empty selection, so a
# renamed test would otherwise drop out of a sanitizer step silently.
run_filtered() {
    local count
    count=$("$1" --gtest_list_tests --gtest_filter="$2" | grep -c '^  ' \
        || true)
    if [ "$count" -eq 0 ]; then
        echo "check.sh: --gtest_filter='$2' selects no test in $1" >&2
        return 1
    fi
    echo "$1: $count test(s) match '$2'"
    "$1" --gtest_filter="$2"
}

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

if command -v clang-tidy > /dev/null; then
    echo "== clang-tidy (src/, .clang-tidy check set) =="
    cmake --build build --target lint
else
    echo "== clang-tidy skipped (not installed) =="
fi

echo "== determinism suite, run 1/2 =="
./build/tests/test_analyzer_determinism
echo "== determinism suite, run 2/2 =="
./build/tests/test_analyzer_determinism

echo "== robustness chaos suite =="
./build/tests/test_robustness_chaos

echo "== sanitizer smoke (ASan+UBSan chaos run) =="
cmake -B build-asan -S . -DRID_SANITIZE=ON
cmake --build build-asan -j --target test_robustness_chaos
./build-asan/tests/test_robustness_chaos

# Tokens are string_view slices of the source buffer; a mutated or
# truncated file that leaves a view dangling shows up here.
echo "== sanitizer smoke (ASan+UBSan frontend mutation fuzz) =="
cmake --build build-asan -j --target test_frontend_fuzz \
    --target test_frontend_lexer
./build-asan/tests/test_frontend_fuzz
./build-asan/tests/test_frontend_lexer

echo "== sanitizer smoke (ASan+UBSan durable store) =="
cmake --build build-asan -j --target test_store
./build-asan/tests/test_store

# Seeded flips, truncations and splices of spec text, WAL segments (some
# re-framed under a valid CRC) and provenance journals: decoders that
# trust a length or a count show up here.
echo "== sanitizer smoke (ASan+UBSan input mutation fuzz) =="
cmake --build build-asan -j --target test_input_fuzz
./build-asan/tests/test_input_fuzz

echo "== sanitizer smoke (ASan+UBSan tree executor + engine oracle) =="
cmake --build build-asan -j --target test_analysis_tree_exec \
    --target test_analyzer_determinism
./build-asan/tests/test_analysis_tree_exec
run_filtered ./build-asan/tests/test_analyzer_determinism \
    '*TreeMatchesReferenceExecutor:*OutcomesArePinned'

# The sharded instantiation cache is cross-thread shared mutable state
# (per-shard mutexes guarding LRU lists), and compaction runs solver
# proofs over freshly merged formulas — both are prime ASan territory.
echo "== sanitizer smoke (ASan+UBSan compaction + interning) =="
cmake --build build-asan -j --target test_summary_compact
./build-asan/tests/test_summary_compact
run_filtered ./build-asan/tests/test_analyzer_determinism \
    '*Compaction*:*Interning*'

echo "== performance trajectory record =="
RID_BENCH_JSON="$PWD/BENCH_performance.json" \
    ./build/bench/bench_performance --benchmark_filter='^$none'
test -s BENCH_performance.json

# Interning must never be a pessimization: the cached run may not
# execute more from-scratch instantiations than the uncached one.
if command -v python3 > /dev/null; then
    python3 - BENCH_performance.json <<'EOF'
import json, sys
record = json.load(open(sys.argv[1]))
off = record["entries_instantiated_off"]
on = record["entries_instantiated_on"]
assert on <= off, \
    f"interning regressed: {on} instantiations with cache > {off} without"
print(f"instantiation gate: {off} -> {on} (reduction "
      f"{record['instantiation_reduction']:.2f}x)")
EOF
fi

# The standing cross-tool scoring harness: score RID and the cpychecker
# baseline against LAVA-style injected ground truth at scale 0.05. The
# binary exits nonzero unless RID holds precision/recall >= 0.9 in every
# effect domain AND strictly Pareto-dominates the baseline. Export
# RID_SCALE_BENCH=1 before running check.sh to add the full-scale
# (270k-function) sharded run to the record.
#
# --triage additionally runs the triage-gate corpus (injected bugs plus
# seeded Section 6.4 FP-inducers) with the SMT refutation pass on and
# folds the triage gate into the exit status: the run fails if any
# injected true positive is demoted below `unverified`, or if fewer than
# 90% of the FP-inducer reports are demoted to low-confidence/refuted.
echo "== injected-truth scoring harness (RID vs cpychecker, triage gate) =="
RID_TRUTH_JSON="$PWD/BENCH_truth.json" \
    ./build/bench/bench_truth_score 0.05 --triage
test -s BENCH_truth.json

# Append a compacted snapshot of the (gitignored) BENCH_performance.json
# and BENCH_truth.json to the committed trajectory log, so the perf and
# score history travels with the repo even though the full records do not.
if command -v python3 > /dev/null; then
    echo "== bench snapshot -> docs/bench/trajectory.jsonl =="
    python3 scripts/bench_snapshot.py BENCH_performance.json \
        docs/bench/trajectory.jsonl
    python3 scripts/bench_snapshot.py BENCH_truth.json \
        docs/bench/trajectory.jsonl
else
    echo "== bench snapshot skipped (no python3) =="
fi

echo "== observability smoke-check =="
trace_json="$(mktemp)" metrics_prom="$(mktemp)"
trap 'rm -f "$trace_json" "$metrics_prom"' EXIT
./build/examples/linux_dpm_scan 0.001 0x101 "$trace_json" "$metrics_prom" \
    > /dev/null
test -s "$trace_json"
test -s "$metrics_prom"
if command -v python3 > /dev/null; then
    python3 -m json.tool "$trace_json" > /dev/null
    python3 - "$trace_json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "trace has no events"
assert any(e["name"] == "analyze-function" for e in events)
EOF
else
    # No python3: at least require the structural markers.
    grep -q '"traceEvents"' "$trace_json"
    grep -q '"analyze-function"' "$trace_json"
fi
grep -q '^rid_functions_analyzed_total ' "$metrics_prom"

# Provenance round trip: scan a known-buggy file with --provenance, then
# require `explain all` to narrate every journal record and `diff-runs`
# of the journal against itself to report everything as persisting.
echo "== provenance explain/diff-runs smoke =="
prov_src="$(mktemp)" prov_journal="$(mktemp)"
trap 'rm -f "$trace_json" "$metrics_prom" "$prov_src" "$prov_journal"' EXIT
cat > "$prov_src" <<'EOF'
int smoke_guarded_get(struct device *dev, int flags) {
    if (flags & 4)
        pm_runtime_get_noresume(dev);
    return 0;
}
EOF
rc=0
./build/examples/ridc --builtin-dpm --provenance "$prov_journal" \
    "$prov_src" > /dev/null 2>&1 || rc=$?
test "$rc" -eq 1     # 1 = reports found; anything else is a real failure
test -s "$prov_journal"
./build/examples/ridc explain all "$prov_journal" | grep -q '^report 0x'
./build/examples/ridc diff-runs "$prov_journal" "$prov_journal" \
    | grep -q '^new (0):'

# Torn-journal tolerance: a journal whose writer was killed mid-flush has
# a partial last line; `ridc explain` must recover every complete record
# and warn about the torn tail instead of aborting.
echo "== torn provenance journal smoke =="
torn_journal="$(mktemp)" torn_err="$(mktemp)"
trap 'rm -f "$trace_json" "$metrics_prom" "$prov_src" "$prov_journal" \
    "$torn_journal" "$torn_err"' EXIT
journal_bytes=$(wc -c < "$prov_journal")
cat "$prov_journal" > "$torn_journal"
head -c "$((journal_bytes - 10))" "$prov_journal" >> "$torn_journal"
./build/examples/ridc explain all "$torn_journal" 2> "$torn_err" \
    | grep -q '^report 0x'
grep -q 'skipped 1 malformed line' "$torn_err"

# Kill-and-resume differential on the real binary: SIGKILL a store-backed
# scan mid-run, resume from the surviving log, and require the resumed
# run's reports to be byte-identical to an uninterrupted scan's with a
# nonzero store hit count. The kill lands at a fraction of the measured
# cold wall time; later fractions retry in case an early cut killed the
# scan before anything durable was recorded.
echo "== kill-and-resume smoke =="
smoke_dir="$(mktemp -d)"
trap 'rm -f "$trace_json" "$metrics_prom" "$prov_src" "$prov_journal" \
    "$torn_journal" "$torn_err"; rm -rf "$smoke_dir"' EXIT
./build/examples/corpus_dump 0.2 0x101 "$smoke_dir/src" > /dev/null
mapfile -t smoke_srcs < <(find "$smoke_dir/src" -name '*.c' | sort)

cold_start=$(date +%s%N)
rc=0
./build/examples/ridc --builtin-dpm "${smoke_srcs[@]}" \
    > "$smoke_dir/cold.out" 2> /dev/null || rc=$?
test "$rc" -eq 1     # 1 = reports found; anything else is a real failure
cold_wall_ns=$(( $(date +%s%N) - cold_start ))
test -s "$smoke_dir/cold.out"

resume_ok=0
for frac in 0.5 0.75 0.9; do
    rm -rf "$smoke_dir/store"
    kill_after=$(awk -v ns="$cold_wall_ns" -v f="$frac" \
        'BEGIN { printf "%.3f", ns / 1e9 * f }')
    rc=0
    timeout -s KILL "$kill_after" \
        ./build/examples/ridc --builtin-dpm --store "$smoke_dir/store" \
        "${smoke_srcs[@]}" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 137 ]; then
        continue     # ran to completion before the kill; try a later cut
    fi
    rc=0
    ./build/examples/ridc --builtin-dpm --store "$smoke_dir/store" \
        --resume "${smoke_srcs[@]}" \
        > "$smoke_dir/resumed.out" 2> "$smoke_dir/resumed.err" || rc=$?
    test "$rc" -eq 1
    cmp -s "$smoke_dir/cold.out" "$smoke_dir/resumed.out"
    hits=$(sed -n 's/^store: \([0-9]*\) hit(s).*/\1/p' \
        "$smoke_dir/resumed.err")
    if [ -n "$hits" ] && [ "$hits" -gt 0 ]; then
        echo "kill-and-resume: byte-identical after SIGKILL at" \
            "${kill_after}s ($hits replayed)"
        resume_ok=1
        break
    fi
done
test "$resume_ok" -eq 1

# Unchanged warm resume: one more --resume with no edits must replay
# every function byte-identically and grow the log by at most the run's
# first barrier, one 29-byte checkpoint frame (13-byte frame header plus
# a 16-byte payload). The gate is on counts, not on time.
echo "== unchanged warm resume smoke =="
smoke_wal="$smoke_dir/store/analysis.wal"
wal_before=$(wc -c < "$smoke_wal")
rc=0
./build/examples/ridc --builtin-dpm --store "$smoke_dir/store" \
    --resume "${smoke_srcs[@]}" \
    > "$smoke_dir/warm.out" 2> "$smoke_dir/warm.err" || rc=$?
test "$rc" -eq 1
cmp -s "$smoke_dir/cold.out" "$smoke_dir/warm.out"
grep -q '^store: [0-9]* hit(s) / 0 miss(es)' "$smoke_dir/warm.err"
wal_growth=$(( $(wc -c < "$smoke_wal") - wal_before ))
test "$wal_growth" -le 29
echo "warm resume: byte-identical, 0 miss(es), log +${wal_growth} B"

echo "check.sh: all green"
