/**
 * @file
 * Determinism regression suite for the whole analyzer.
 *
 * analyzer.cc claims its results are deterministic: each function is
 * executed by one sequential tree walk, SCC levels only parallelize
 * independent components, and the IPP drop choice is seeded. This suite
 * pins those guarantees down across the full option matrix the shared
 * query cache introduced: threads in {1, 4} x query cache {on, off}
 * must all produce byte-identical sorted report sets AND byte-identical
 * summary exports on a representative corpus (the synthetic DPM corpus
 * plus the paper's Figure 9 wrapper example).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "analysis/paths.h"
#include "analysis/symexec.h"
#include "core/rid.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "kernel/inject.h"
#include "kernel/score.h"
#include "obs/failpoint.h"
#include "obs/provenance.h"
#include "obs_test_util.h"
#include "smt/intern.h"
#include "summary/spec.h"

namespace rid {
namespace {

/** Figure 9 of the paper (also used by examples/ and bench/): a wrapper
 *  whose summary is computed, plus a caller with an early-exit bug. */
const char *kFigure9Source = R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
int idmouse_open(struct usb_interface *interface) {
    int result;
    result = usb_autopm_get_interface(interface);
    if (result)
        goto error;
    result = idmouse_create_image(interface);
    if (result)
        goto error;
    usb_autopm_put_interface(interface);
error:
    return result;
}
int idmouse_create_image(struct usb_interface *i);
void usb_autopm_put_interface(struct usb_interface *i);
)";

/**
 * One full analysis run; the digest is the sorted report multiset, the
 * (name-ordered) computed-summary export and the (name-ordered)
 * function diagnostics, so any divergence in reports, report contents,
 * summaries or degradation outcomes shows up byte-for-byte.
 * With @p trace the run records spans (including per-solver-query
 * spans), which must not perturb any result.
 */
std::string
runDigest(const kernel::Corpus &corpus, int threads, bool cache,
          bool trace = false, double run_deadline = 0,
          double fn_deadline = 0, uint64_t solver_fuel = 0,
          const std::string &failpoints = "",
          const std::vector<std::string> &enabled_domains = {},
          bool load_domain_specs = false, bool intern = true)
{
    analysis::AnalyzerOptions opts;
    opts.threads = threads;
    opts.use_query_cache = cache;
    opts.intern_instantiations = intern;
    opts.run_deadline_seconds = run_deadline;
    opts.function_deadline_seconds = fn_deadline;
    opts.function_solver_fuel = solver_fuel;
    opts.failpoints = failpoints;
    opts.enabled_domains = enabled_domains;
    if (trace) {
        opts.tracer = std::make_shared<obs::Tracer>();
        opts.trace_solver_queries = true;
    }
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    if (load_domain_specs) {
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
    }
    tool.addSource(kFigure9Source);
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    RunResult result = tool.run();
    if (!failpoints.empty())
        obs::FailpointRegistry::instance().disarm();

    std::multiset<std::string> reports;
    for (const auto &report : result.reports)
        reports.insert(report.str());
    std::string digest;
    for (const auto &line : reports)
        digest += line + "\n";
    digest += "--- summaries ---\n";
    digest += tool.exportSummaries();
    digest += "--- diagnostics ---\n";
    for (const auto &d : result.diagnostics)
        digest += d.function + " " + analysis::fnStatusName(d.status) +
                  " " + d.reason + "\n";
    return digest;
}

/** Reports + diagnostics only — the contract summary compaction pins:
 *  it may reshape exported summaries (that is its job) but must not
 *  move a single report or degradation outcome. */
std::string
stripSummaries(const std::string &digest)
{
    size_t summaries = digest.find("--- summaries ---\n");
    size_t diagnostics = digest.find("--- diagnostics ---\n");
    if (summaries == std::string::npos ||
        diagnostics == std::string::npos)
        return digest;
    return digest.substr(0, summaries) + digest.substr(diagnostics);
}

/** A Prometheus exposition as the registry tests read it. */
struct Exposition
{
    /** Unlabelled samples by name: counters, gauges and each
     *  histogram's `_sum` and `_count` (buckets are skipped). */
    std::map<std::string, std::string> samples;
    /** Metric names declared by `# TYPE` lines. */
    std::set<std::string> names;
    /** Digest of the sorted `# HELP` and `# TYPE` lines. */
    std::string schema_digest;

    /** The value text of sample @p name ("" when absent). */
    std::string
    sample(const std::string &name) const
    {
        auto it = samples.find(name);
        return it == samples.end() ? "" : it->second;
    }
};

Exposition
parseExposition(const std::string &text)
{
    Exposition e;
    std::vector<std::string> schema;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("# ", 0) == 0) {
            schema.push_back(line);
            if (line.rfind("# TYPE ", 0) == 0)
                e.names.insert(line.substr(7, line.find(' ', 7) - 7));
            continue;
        }
        size_t space = line.rfind(' ');
        std::string name = line.substr(0, space);
        if (name.find('{') == std::string::npos)
            e.samples[name] = line.substr(space + 1);
    }
    std::sort(schema.begin(), schema.end());
    std::string joined;
    for (const auto &line : schema)
        joined += line + "\n";
    e.schema_digest = obs::fpHex(smt::fpBytes(joined));
    return e;
}

/** The number at dotted @p path of a statsJson document. */
double
jsonNumber(const testutil::JsonValue &doc, const std::string &path)
{
    const testutil::JsonValue *v = &doc;
    std::istringstream keys(path);
    for (std::string key; v && std::getline(keys, key, '.');)
        v = v->find(key);
    EXPECT_NE(v, nullptr) << path;
    return v ? v->number : -1;
}

using Stats = analysis::AnalyzerStats;

/**
 * The analyzer's run-metric table as its readers see it: each row's
 * exposition sample, the AnalyzerStats field it fills (null: none) and
 * the statsJson key printing that field (null: none), which holds the
 * field times @p json_scale.
 */
struct MetricMirror
{
    const char *sample;
    double (*stat)(const Stats &);
    const char *json;
    double json_scale = 1;
};

const MetricMirror kMetricMirror[] = {
    {"rid_functions_analyzed_total",
     [](const Stats &s) -> double { return s.functions_analyzed; },
     "functions.analyzed"},
    {"rid_functions_defaulted_total",
     [](const Stats &s) -> double { return s.functions_defaulted; },
     "functions.defaulted"},
    {"rid_functions_truncated_total",
     [](const Stats &s) -> double { return s.functions_truncated; },
     "functions.truncated"},
    {"rid_functions_timeout_total",
     [](const Stats &s) -> double { return s.functions_timeout; },
     "diagnostics.counts.timeout"},
    {"rid_functions_degraded_total",
     [](const Stats &s) -> double { return s.functions_degraded; },
     "diagnostics.counts.degraded"},
    {"rid_functions_error_total",
     [](const Stats &s) -> double { return s.functions_error; },
     "diagnostics.counts.error"},
    {"rid_paths_enumerated_total",
     [](const Stats &s) -> double { return s.paths_enumerated; },
     "paths_enumerated"},
    {"rid_entries_computed_total",
     [](const Stats &s) -> double { return s.entries_computed; },
     "entries_computed"},
    {"rid_blocks_executed_total",
     [](const Stats &s) -> double { return s.blocks_executed; },
     "blocks_executed"},
    {"rid_state_forks_total",
     [](const Stats &s) -> double { return s.state_forks; }, "state_forks"},
    {"rid_subtrees_pruned_total",
     [](const Stats &s) -> double { return s.subtrees_pruned; },
     "subtrees_pruned"},
    {"rid_entries_instantiated_total",
     [](const Stats &s) -> double { return s.entries_instantiated; },
     "entries_instantiated"},
    {"rid_summary_entries_compacted_total",
     [](const Stats &s) -> double { return s.summary_entries_compacted; },
     "summary_entries_compacted"},
    {"rid_solver_queries_total",
     [](const Stats &s) -> double { return s.solver.queries; },
     "solver.queries"},
    {"rid_solver_theory_checks_total",
     [](const Stats &s) -> double { return s.solver.theory_checks; },
     "solver.theory_checks"},
    {"rid_solver_branches_total",
     [](const Stats &s) -> double { return s.solver.branches; },
     "solver.branches"},
    {"rid_solver_unknowns_total",
     [](const Stats &s) -> double { return s.solver.unknowns; },
     "solver.unknowns"},
    {"rid_solver_cache_hits_total",
     [](const Stats &s) -> double { return s.solver.cache_hits; },
     "solver.cache_hits"},
    {"rid_solver_cache_misses_total",
     [](const Stats &s) -> double { return s.solver.cache_misses; },
     "solver.cache_misses"},
    {"rid_solver_solve_ns_total",
     [](const Stats &s) -> double { return s.solver.solve_ns; },
     "solver.solve_seconds", 1e-9},
    {"rid_solver_budget_stops_total",
     [](const Stats &s) -> double { return s.solver.budget_stops; },
     nullptr},
    {"rid_classify_seconds",
     [](const Stats &s) { return s.classify_seconds; },
     "phases.classify_seconds"},
    {"rid_analyze_seconds", [](const Stats &s) { return s.analyze_seconds; },
     "phases.analyze_seconds"},
    {"rid_paths_per_function_count",
     [](const Stats &s) -> double { return s.functions_analyzed; },
     "functions.analyzed"},
    {"rid_paths_per_function_sum",
     [](const Stats &s) -> double { return s.paths_enumerated; },
     "paths_enumerated"},
    {"rid_symexec_seconds_sum",
     [](const Stats &s) { return s.symexec_seconds; },
     "phases.symexec_seconds"},
    {"rid_ipp_seconds_sum", [](const Stats &s) { return s.ipp_seconds; },
     "phases.ipp_seconds"},
    {"rid_solver_query_seconds_count", nullptr, nullptr},
    {"rid_query_cache_hits",
     [](const Stats &s) -> double { return s.query_cache.hits; },
     "query_cache.hits"},
    {"rid_query_cache_misses",
     [](const Stats &s) -> double { return s.query_cache.misses; },
     "query_cache.misses"},
    {"rid_query_cache_entries",
     [](const Stats &s) -> double { return s.query_cache.entries; },
     "query_cache.entries"},
    {"rid_query_cache_evictions",
     [](const Stats &s) -> double { return s.query_cache.evictions; },
     "query_cache.evictions"},
    {"rid_inst_cache_hits",
     [](const Stats &s) -> double { return s.inst_cache.hits; },
     "inst_cache.hits"},
    {"rid_inst_cache_misses",
     [](const Stats &s) -> double { return s.inst_cache.misses; },
     "inst_cache.misses"},
    {"rid_inst_cache_entries",
     [](const Stats &s) -> double { return s.inst_cache.entries; },
     "inst_cache.entries"},
    {"rid_inst_cache_evictions",
     [](const Stats &s) -> double { return s.inst_cache.evictions; },
     "inst_cache.evictions"},
    {"rid_store_hits_total",
     [](const Stats &s) -> double { return s.store.hits; }, "store.hits"},
    {"rid_store_misses_total",
     [](const Stats &s) -> double { return s.store.misses; },
     "store.misses"},
    {"rid_store_retries_total",
     [](const Stats &s) -> double { return s.store.retried; },
     "store.retried"},
    {"rid_store_quarantined_total",
     [](const Stats &s) -> double { return s.store.quarantined; },
     "store.quarantined"},
    {"rid_store_torn_frames_total",
     [](const Stats &s) -> double { return s.store.torn_frames; },
     "store.torn_frames"},
    {"rid_store_record_bytes_count", nullptr, nullptr},
};

/** The metric a mirrored sample belongs to (a histogram's `_sum` or
 *  `_count` sample names its histogram). */
std::string
metricOf(std::string sample)
{
    for (const std::string suffix : {"_sum", "_count"})
        if (sample.ends_with(suffix))
            return sample.substr(0, sample.size() - suffix.size());
    return sample;
}

/**
 * What ridc prints to stderr for one run, minus the timing line:
 * RunResult::str(), its reports in emitted (unsorted) order. Both
 * shared caches are off, since their hit counts legitimately depend on
 * scheduling.
 */
std::string
emittedRun(const kernel::Corpus &corpus, int threads)
{
    analysis::AnalyzerOptions opts;
    opts.threads = threads;
    opts.use_query_cache = false;
    opts.intern_instantiations = false;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    tool.addSource(kFigure9Source);
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    std::string text = tool.run().str();
    size_t phases = text.find("phases: ");
    if (phases != std::string::npos)
        text.erase(phases, text.find('\n', phases) + 1 - phases);
    return text;
}

/** Entry rendering for the engine oracle: the printed entry plus the
 *  provenance that reaches reports and journals. The path index is left
 *  out: the tree executor numbers feasible paths, the reference
 *  executor enumerated ones. */
std::string
oracleLine(const summary::SummaryEntry &e)
{
    std::string line = e.str() + " | return@" +
                       std::to_string(e.origin.return_line) + " changes@";
    for (int l : e.origin.change_lines)
        line += std::to_string(l) + ",";
    line += " via";
    for (const auto &callee : e.origin.callees)
        line += " " + callee;
    return line;
}

struct OracleTally
{
    /** Analyzed functions re-executed under both executors. */
    size_t functions = 0;
    /** Of those, functions where the structural path cap fired. */
    size_t capped = 0;
};

/**
 * The engine oracle. A full run over @p extra plus @p corpus, then every
 * function the run analyzed is re-executed against the run's final
 * SummaryDb under executeFunctionTree and under the reference executor,
 * enumeratePaths + executePath per path. The entry lists must be equal.
 * Where the structural path cap fires, the reference list must be a
 * prefix of the tree list: the tree executor counts feasible paths
 * against the cap, the enumerator every path (DESIGN.md, "Truncation
 * semantics").
 */
OracleTally
expectTreeMatchesReference(const std::vector<std::string> &extra,
                           const kernel::Corpus &corpus,
                           bool load_domain_specs)
{
    analysis::AnalyzerOptions opts;
    opts.profile_top_n = 1 << 30;  // one cost record per analyzed function
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    if (load_domain_specs) {
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
    }
    for (const auto &source : extra)
        tool.addSource(source);
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    RunResult result = tool.run();
    const summary::SummaryDb &db = tool.summaries();

    OracleTally tally;
    for (const auto &cost : result.profile.top) {
        const ir::Function *fn = tool.module().find(cost.name);
        if (!fn) {
            ADD_FAILURE() << "no function " << cost.name;
            continue;
        }
        auto paths = analysis::enumeratePaths(*fn, opts.max_paths);
        analysis::ExecOptions exec;
        exec.max_subcases = opts.max_subcases;
        smt::Solver ref_solver;
        std::vector<std::string> reference;
        bool ref_truncated = paths.truncated;
        for (size_t i = 0; i < paths.paths.size(); i++) {
            auto r = analysis::executePath(*fn, paths.paths[i],
                                           static_cast<int>(i), db,
                                           ref_solver, exec);
            ref_truncated = ref_truncated || r.truncated;
            for (const auto &e : r.entries)
                reference.push_back(oracleLine(e));
        }

        analysis::TreeExecOptions tree_opts;
        tree_opts.max_subcases = opts.max_subcases;
        tree_opts.max_paths = opts.max_paths;
        tree_opts.max_visits = 2;
        smt::Solver solver;
        auto tree = analysis::executeFunctionTree(*fn, db, solver, tree_opts);
        std::vector<std::string> lines;
        for (const auto &outcome : tree.completed)
            for (const auto &e : outcome.entries)
                lines.push_back(oracleLine(e));
        if (paths.truncated) {
            EXPECT_TRUE(reference.size() <= lines.size() &&
                        std::equal(reference.begin(), reference.end(),
                                   lines.begin()))
                << cost.name;
        } else {
            EXPECT_EQ(lines, reference) << cost.name;
            EXPECT_EQ(tree.truncated, ref_truncated) << cost.name;
        }
        tally.functions++;
        tally.capped += paths.truncated;
    }
    EXPECT_EQ(tally.functions, result.stats.functions_analyzed);
    return tally;
}

class AnalyzerDeterminismTest : public ::testing::Test
{
  protected:
    static kernel::Corpus corpus_;
    static kernel::Corpus multi_corpus_;

    static void
    SetUpTestSuite()
    {
        corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
        multi_corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::multiDomain(0.001, /*domain_count=*/4));
    }
};

kernel::Corpus AnalyzerDeterminismTest::corpus_;
kernel::Corpus AnalyzerDeterminismTest::multi_corpus_;

TEST_F(AnalyzerDeterminismTest, ThreadsByCacheMatrixIsByteIdentical)
{
    std::string baseline = runDigest(corpus_, 1, false);
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4}) {
        for (bool cache : {false, true}) {
            if (threads == 1 && !cache)
                continue;  // that is the baseline itself
            EXPECT_EQ(runDigest(corpus_, threads, cache),
                      baseline)
                << "threads=" << threads << " cache=" << cache;
        }
    }
}

TEST_F(AnalyzerDeterminismTest, TracingDoesNotPerturbResults)
{
    // Span recording (including per-query solver spans) must be purely
    // observational: the digest stays byte-identical to the untraced
    // baseline at every thread count.
    std::string baseline = runDigest(corpus_, 1, true);
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, true, true),
                  baseline)
            << "threads=" << threads << " trace=on";
    }
}

TEST_F(AnalyzerDeterminismTest, RepeatedRunsAreByteIdentical)
{
    // Same configuration twice: catches any residual run-to-run
    // nondeterminism (iteration over pointer-keyed containers, races on
    // the shared cache, ...).
    EXPECT_EQ(runDigest(corpus_, 4, true), runDigest(corpus_, 4, true));
}

TEST_F(AnalyzerDeterminismTest, EmittedReportOrderIsThreadInvariant)
{
    // Unsorted: SCC-level workers finish in any order, yet the emitted
    // report list must be the sequential (reverse-topological) order,
    // byte for byte, on every thread count and every repetition.
    std::string baseline = emittedRun(multi_corpus_, 1);
    ASSERT_NE(baseline.find("idmouse_open"), std::string::npos);
    for (int rep = 0; rep < 3; rep++) {
        for (int threads : {1, 4}) {
            EXPECT_EQ(emittedRun(multi_corpus_, threads), baseline)
                << "threads=" << threads << " rep=" << rep;
        }
    }
}

TEST_F(AnalyzerDeterminismTest, GenerousBudgetIsByteIdenticalToNoBudget)
{
    // The degradation ladder promises: a budget that never fires leaves
    // the run byte-identical to an unbudgeted one — attaching budgets to
    // the solver, path enumerator and symexec must be purely
    // observational until expiry. An hour-scale deadline and huge fuel
    // allowance cannot plausibly fire on this corpus.
    std::string baseline = runDigest(corpus_, 1, true);
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, true, false,
                            /*run_deadline=*/3600,
                            /*fn_deadline=*/3600,
                            /*solver_fuel=*/1ull << 60),
                  baseline)
            << "threads=" << threads << " with generous budget";
    }
}

TEST_F(AnalyzerDeterminismTest, BudgetAndFaultOutcomesArePinned)
{
    // Budget and fault outcomes, pinned by digests recorded when the
    // analyzer could still run the enumerate-then-replay executor and
    // each of these runs was asserted byte-identical under both engines.
    auto pin = [](const std::string &digest) {
        return obs::fpHex(smt::fpBytes(digest));
    };

    // Solver fuel of 1: any function issuing at least one non-trivial
    // query degrades to Timeout ("budget: fuel"), so the pin fixes which
    // functions make a query at all.
    std::string fuel =
        runDigest(corpus_, 1, false, false, 0, 0, /*solver_fuel=*/1);
    EXPECT_NE(fuel.find("budget: fuel"), std::string::npos);
    EXPECT_EQ(pin(fuel), "0x46df1f4821af47f8");

    // A generous budget never fires: budget plumbing is observational.
    EXPECT_EQ(pin(runDigest(corpus_, 1, true, false,
                            /*run_deadline=*/3600, /*fn_deadline=*/3600,
                            /*solver_fuel=*/1ull << 60)),
              "0x117e6708f9d8b74f");

    // Targeted always-faults fire on the first hit inside the victim
    // function: a completed path, path discovery and a solver query.
    // Fault isolation degrades the victim and keeps every bystander.
    const std::pair<const char *, const char *> faults[] = {
        {"analysis.symexec.path@idmouse_open=always",
         "0xda9b1f726daba0e8"},
        {"analysis.paths.enumerate@usb_autopm_get_interface=always",
         "0xc949ee95e34cc0b6"},
        {"smt.solver.check@idmouse_open=always", "0x51626581978e74be"},
    };
    for (const auto &[spec, want] : faults) {
        std::string digest =
            runDigest(corpus_, 1, true, false, 0, 0, 0, spec);
        EXPECT_NE(digest.find("degraded"), std::string::npos)
            << "fault did not fire under spec " << spec << ":\n"
            << digest;
        EXPECT_EQ(pin(digest), want) << "failpoints=" << spec;
    }
}

TEST_F(AnalyzerDeterminismTest, TreeMatchesReferenceExecutor)
{
    OracleTally tally = expectTreeMatchesReference(
        {kFigure9Source}, corpus_, /*load_domain_specs=*/false);
    EXPECT_GT(tally.functions, 0u);
    EXPECT_GT(tally.capped, 0u);  // the prefix case is exercised too
}

TEST_F(AnalyzerDeterminismTest, RefOnlyDomainFilterIsByteIdentical)
{
    // The effect-domain differential, part 1: enabling only the `ref`
    // domain must reproduce the pre-domain run exactly — same reports,
    // same summaries, same diagnostics — across thread counts. The
    // filter machinery (seed selection, the IPP pre-pass) must be
    // invisible when it selects everything there is.
    std::string baseline = runDigest(corpus_, 1, false);
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, false, false, 0, 0,
                            0, "", {"ref"}),
                  baseline)
            << "threads=" << threads << " domains=ref";
    }
}

TEST_F(AnalyzerDeterminismTest, DomainSpecsDoNotPerturbRefScan)
{
    // Part 2: merely loading the lock/kmalloc specs (which declare two
    // balanced-policy domains and so activate the balanced pre-pass)
    // must not change a single byte of the refcount scan when the
    // corpus never calls a lock/alloc primitive.
    std::string baseline = runDigest(corpus_, 1, false);
    EXPECT_EQ(runDigest(corpus_, 1, false, false, 0, 0, 0, "", {},
                        /*load_domain_specs=*/true),
              baseline);
}

TEST_F(AnalyzerDeterminismTest, MultiDomainScanIsByteIdentical)
{
    // A corpus that mixes refcount, lock and alloc patterns, analyzed
    // with all three domains' specs loaded, must stay byte-identical
    // across the same matrix the refcount corpus is pinned on.
    std::string baseline = runDigest(multi_corpus_, 1, false, false,
                                     0, 0, 0, "", {}, true);
    ASSERT_NE(baseline.find("unbalanced at return"), std::string::npos)
        << "multi-domain corpus produced no balanced-policy reports";
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(multi_corpus_, threads, true, false,
                            0, 0, 0, "", {}, true),
                  baseline)
            << "threads=" << threads << " multi-domain";
    }
    // Filtering the same corpus down to `ref` suppresses every
    // balanced-policy report deterministically.
    std::string ref_only = runDigest(multi_corpus_, 1, false, false,
                                     0, 0, 0, "", {"ref"}, true);
    EXPECT_EQ(ref_only.find("unbalanced at return"), std::string::npos);
    EXPECT_EQ(runDigest(multi_corpus_, 4, true, false, 0, 0, 0, "",
                        {"ref"}, true),
              ref_only);
}

TEST_F(AnalyzerDeterminismTest, CompactionPreservesReportsAndDiagnostics)
{
    // Summary compaction merges call-boundary-indistinguishable entries
    // AFTER the function's own reports and diagnostics are final. The
    // reports and diagnostics are pinned by a digest recorded when
    // compaction could still be switched off and the uncompacted run was
    // asserted byte-identical to the compacted one, across thread counts.
    for (int threads : {1, 4}) {
        std::string digest = stripSummaries(
            runDigest(corpus_, threads, false));
        EXPECT_EQ(obs::fpHex(smt::fpBytes(digest)), "0x7d14b490b4f11735")
            << "threads=" << threads;
    }
}

TEST(SummaryExport, PaperCalibratedExportIsPinned)
{
    // Category-3 functions resolve to one shared default summary; the
    // export still writes a default block under each function's name.
    // The digest was recorded when every default was its own summary,
    // at both thread counts (2,641 defaults among 3,231 summaries).
    kernel::Corpus corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.01));
    for (int threads : {1, 4}) {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        for (const auto &file : corpus.files)
            tool.addSource(file.text);
        tool.run();
        EXPECT_EQ(obs::fpHex(smt::fpBytes(tool.exportSummaries())),
                  "0xc7eaf634cb9fe56c")
            << "threads=" << threads;
    }
}

TEST_F(AnalyzerDeterminismTest, InterningIsByteIdenticalIncludingSummaries)
{
    // The instantiation cache is pure memoization: a hit returns exactly
    // what a fresh instantiate() would have produced, so the FULL digest
    // — reports, summaries and diagnostics — is byte-identical with the
    // cache off and on, across thread counts, and equal to a recorded
    // digest.
    std::string baseline = runDigest(corpus_, 1, false, false, 0, 0, 0,
                                     "", {}, false, /*intern=*/false);
    EXPECT_EQ(obs::fpHex(smt::fpBytes(baseline)), "0x117e6708f9d8b74f");
    for (int threads : {1, 4}) {
        for (bool intern : {false, true}) {
            if (threads == 1 && !intern)
                continue;  // the baseline itself
            EXPECT_EQ(runDigest(corpus_, threads, false, false, 0,
                                0, 0, "", {}, false, intern),
                      baseline)
                << "threads=" << threads << " intern=" << intern;
        }
    }
}

class InjectedDeterminismTest : public ::testing::Test
{
  protected:
    static kernel::InjectedCorpus injected_;
    static kernel::InjectedCorpus triage_injected_;

    static void
    SetUpTestSuite()
    {
        auto mix = kernel::CorpusMix::cleanCalibrated(0.05);
        injected_ = kernel::generateInjectedCorpus(
            mix, kernel::InjectionPlan::calibrated(mix));
        // The triage differential needs both tier extremes represented:
        // injected true positives (confirmed) and seeded Section 6.4
        // FP-inducers (refuted).
        auto tmix = kernel::CorpusMix::cleanCalibrated(0.01);
        tmix.counts[kernel::PatternKind::FpBitmask] = 6;
        tmix.counts[kernel::PatternKind::FpListOp] = 5;
        triage_injected_ = kernel::generateInjectedCorpus(
            tmix, kernel::InjectionPlan::calibrated(tmix));
    }

    /** One triaged run's full ordered report list: rank, fingerprint
     *  and the tier-suffixed rendering — any tier or rank divergence
     *  across configurations shows up byte-for-byte. */
    static std::string
    triageDigest(int threads, bool cache)
    {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        opts.use_query_cache = cache;
        opts.triage = true;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : triage_injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();
        EXPECT_FALSE(result.reports.empty());
        std::string digest;
        for (const auto &report : result.reports)
            digest += std::to_string(report.rank) + " " +
                      obs::fpHex(report.fingerprint) + " " +
                      report.str() + "\n";
        return digest;
    }

    struct ScoredRun
    {
        std::string digest;
        kernel::ScoreResult score;
    };

    /** Sorted fingerprint set of one run (one fpHex + report line per
     *  report), asserting every report is stamped. */
    static std::string
    fingerprintDigest(int threads, bool cache)
    {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        opts.use_query_cache = cache;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();
        EXPECT_FALSE(result.reports.empty());
        std::multiset<std::string> lines;
        for (const auto &report : result.reports) {
            EXPECT_NE(report.fingerprint, 0u) << report.str();
            EXPECT_NE(report.function_fp, 0u) << report.str();
            EXPECT_EQ(report.fingerprint,
                      report.computeFingerprint(report.function_fp));
            lines.insert(obs::fpHex(report.fingerprint) + " " +
                         report.str());
        }
        std::string digest;
        for (const auto &line : lines)
            digest += line + "\n";
        return digest;
    }

    /** One run over the injected + FP-inducer corpus with a metrics
     *  dump: its result, exposition and parsed statsJson. */
    struct MetricsRun
    {
        RunResult result;
        Exposition exposition;
        testutil::JsonValue json;
    };

    /** Scratch path of the running test (ctest runs tests concurrently). */
    static std::string
    tempPath(const std::string &suffix)
    {
        return testing::TempDir() +
               testing::UnitTest::GetInstance()->current_test_info()->name() +
               suffix;
    }

    static MetricsRun
    metricsRun(analysis::AnalyzerOptions opts)
    {
        opts.metrics_path = tempPath(".prom");
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : triage_injected_.corpus.files)
            tool.addSource(file.text);
        MetricsRun run;
        run.result = tool.run();
        std::ifstream in(opts.metrics_path);
        std::stringstream text;
        text << in.rdbuf();
        run.exposition = parseExposition(text.str());
        EXPECT_TRUE(
            testutil::JsonParser(run.result.statsJson()).parse(run.json));
        return run;
    }

    /** Every run metric of @p run reads alike in the exposition, in
     *  AnalyzerStats and in statsJson, and the exposition holds exactly
     *  the mirrored metrics (store ones iff @p store) plus the
     *  per-domain report counters. */
    static void
    expectOneSource(const MetricsRun &run, bool store)
    {
        const Stats &stats = run.result.stats;
        std::set<std::string> expected;
        for (const MetricMirror &row : kMetricMirror) {
            std::string sample = row.sample;
            if (!store && sample.starts_with("rid_store_"))
                continue;
            expected.insert(metricOf(sample));
            std::string text = run.exposition.sample(sample);
            if (text.empty()) {
                ADD_FAILURE() << "no sample " << sample;
                continue;
            }
            if (!row.stat)
                continue;
            double value = row.stat(stats);
            EXPECT_EQ(std::stod(text), value) << sample;
            if (row.json) {
                EXPECT_EQ(jsonNumber(run.json, row.json),
                          value * row.json_scale)
                    << sample;
            }
        }
        for (const auto &[dom, n] : stats.reports_by_domain) {
            std::string sample = "rid_reports_" + dom + "_total";
            expected.insert(sample);
            EXPECT_EQ(run.exposition.sample(sample), std::to_string(n));
            EXPECT_EQ(jsonNumber(run.json, "domains." + dom + ".reports"),
                      static_cast<double>(n));
        }
        EXPECT_EQ(run.exposition.names, expected);
    }

    static ScoredRun
    run(int threads, bool intern = true)
    {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        opts.intern_instantiations = intern;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();

        ScoredRun out;
        std::multiset<std::string> reports;
        for (const auto &report : result.reports)
            reports.insert(report.str());
        for (const auto &line : reports)
            out.digest += line + "\n";
        out.score = kernel::scoreReports(
            injected_.injections, injected_.corpus.truth,
            kernel::claimsFrom(result.reports));
        return out;
    }
};

kernel::InjectedCorpus InjectedDeterminismTest::injected_;
kernel::InjectedCorpus InjectedDeterminismTest::triage_injected_;

TEST_F(InjectedDeterminismTest, TriageTiersAndRanksAreConfigInvariant)
{
    // The triage contract: tiers and ranks are byte-identical across
    // threads {1, 4} x query cache {on, off}. The digest is the
    // rank-ordered report list, so a rank permutation is as visible as
    // a tier flip.
    std::string baseline = triageDigest(1, /*cache=*/false);
    ASSERT_FALSE(baseline.empty());
    // Non-vacuity: both tier extremes are present in the baseline.
    ASSERT_NE(baseline.find("{confirmed}"), std::string::npos)
        << baseline;
    ASSERT_NE(baseline.find("{refuted}"), std::string::npos) << baseline;
    for (int threads : {1, 4}) {
        for (bool cache : {false, true}) {
            if (threads == 1 && !cache)
                continue;  // the baseline itself
            EXPECT_EQ(triageDigest(threads, cache), baseline)
                << "threads=" << threads << " cache=" << cache;
        }
    }
}

TEST_F(InjectedDeterminismTest, InjectedScoresAreThreadInvariant)
{
    // The ground-truth scores are a *measurement* — they must not move
    // with the execution strategy. Scale-0.05 injected corpus: reports
    // byte-identical and precision/recall identical across threads
    // {1, 4}.
    ASSERT_GT(injected_.injections.size(), 10u);
    ScoredRun baseline = run(1);
    ASSERT_FALSE(baseline.digest.empty());
    // The clean-mix injected corpus scores perfectly in the reference
    // configuration (the bench gate's smoke invariant).
    EXPECT_EQ(baseline.score.total.fp, 0);
    EXPECT_EQ(baseline.score.total.fn, 0);
    EXPECT_EQ(baseline.score.total.tp,
              static_cast<int>(injected_.injections.size()));

    ScoredRun other = run(4);
    EXPECT_EQ(other.digest, baseline.digest) << "threads=4";
    EXPECT_EQ(other.score.total.tp, baseline.score.total.tp);
    EXPECT_EQ(other.score.total.fp, baseline.score.total.fp);
    EXPECT_EQ(other.score.total.fn, baseline.score.total.fn);
    EXPECT_EQ(other.score.total.precision(),
              baseline.score.total.precision());
    EXPECT_EQ(other.score.total.recall(), baseline.score.total.recall());
    ASSERT_EQ(other.score.by_domain.size(),
              baseline.score.by_domain.size());
    for (const auto &[domain, counts] : baseline.score.by_domain) {
        const auto &oc = other.score.by_domain.at(domain);
        EXPECT_EQ(oc.precision(), counts.precision()) << domain;
        EXPECT_EQ(oc.recall(), counts.recall()) << domain;
    }
}

TEST_F(InjectedDeterminismTest, WorkCountersAreThreadInvariant)
{
    // Each function is executed by one sequential tree walk, so the work
    // counters depend on the corpus alone, never on the SCC thread count
    // or the schedule. Instantiation and solver counters are left out:
    // they follow shared-cache hit timing (DESIGN.md, "Counters").
    auto counters = [](int threads) {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : injected_.corpus.files)
            tool.addSource(file.text);
        const Stats s = tool.run().stats;
        return std::vector<size_t>{
            s.functions_analyzed, s.functions_defaulted,
            s.functions_truncated, s.paths_enumerated,
            s.entries_computed,   s.blocks_executed,
            s.state_forks,        s.subtrees_pruned,
            s.summary_entries_compacted};
    };
    const std::vector<size_t> pinned = {492, 13211, 0,   1296, 1296,
                                        2789, 916,  112, 96};
    EXPECT_EQ(counters(1), pinned);
    EXPECT_EQ(counters(4), pinned);
    EXPECT_EQ(counters(4), pinned);
}

TEST_F(InjectedDeterminismTest, RepeatRunInternsNoNewNodes)
{
    // Interned nodes live for the whole process, so their number is
    // bounded by the distinct expressions a corpus produces, not by the
    // number of runs: a second identical run at four threads, after the
    // first run's results are dropped, finds every node already there.
    auto reportCount = [] {
        analysis::AnalyzerOptions opts;
        opts.threads = 4;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : injected_.corpus.files)
            tool.addSource(file.text);
        return tool.run().reports.size();
    };
    size_t first = reportCount();
    smt::InternStats before = smt::totalInternStats();
    size_t second = reportCount();
    smt::InternStats after = smt::totalInternStats();

    EXPECT_EQ(second, first);
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.entries, before.entries);
}

TEST_F(InjectedDeterminismTest, CompactionAndInterningDoNotMoveScores)
{
    // Ground-truth scores on the injected corpus must survive both
    // perf attacks: report digests and precision/recall are identical
    // with interning off and on across threads {1, 4}, and equal to
    // what was recorded when compaction could still be switched off and
    // every compaction x interning combination was asserted identical.
    ScoredRun baseline = run(1, /*intern=*/false);
    EXPECT_EQ(obs::fpHex(smt::fpBytes(baseline.digest)), "0x150985d6ffe1ee99");
    EXPECT_EQ(baseline.score.total.tp, 47);
    EXPECT_EQ(baseline.score.total.fp, 0);
    EXPECT_EQ(baseline.score.total.fn, 0);
    for (int threads : {1, 4}) {
        for (bool intern : {false, true}) {
            if (threads == 1 && !intern)
                continue;  // the baseline itself
            ScoredRun other = run(threads, intern);
            EXPECT_EQ(other.digest, baseline.digest)
                << "threads=" << threads << " intern=" << intern;
            EXPECT_EQ(other.score.total.tp, baseline.score.total.tp);
            EXPECT_EQ(other.score.total.fp, baseline.score.total.fp);
            EXPECT_EQ(other.score.total.fn, baseline.score.total.fn);
        }
    }
}

TEST_F(InjectedDeterminismTest, RegistryIsTheSingleStatsSource)
{
    // The metrics registry is the one accumulator of run statistics:
    // every run metric reads alike in the Prometheus exposition, in
    // AnalyzerStats and in statsJson on a plain, a triaged, a cold-store
    // and a warm-resume run. The exposition's names and help texts are
    // pinned by a digest of its sorted HELP/TYPE lines.
    analysis::AnalyzerOptions opts;
    opts.threads = 4;
    MetricsRun plain = metricsRun(opts);
    expectOneSource(plain, /*store=*/false);
    EXPECT_EQ(plain.exposition.schema_digest, "0x99aefaa3cd11cff5");

    opts.triage = true;
    MetricsRun triaged = metricsRun(opts);
    EXPECT_TRUE(triaged.result.triage.ran);
    expectOneSource(triaged, /*store=*/false);
    EXPECT_EQ(triaged.exposition.schema_digest, "0x99aefaa3cd11cff5");

    opts.triage = false;
    opts.store_path = tempPath(".store");
    std::filesystem::remove_all(opts.store_path);
    MetricsRun cold = metricsRun(opts);
    opts.resume = true;
    MetricsRun warm = metricsRun(opts);
    std::filesystem::remove_all(opts.store_path);
    EXPECT_GT(warm.result.stats.store.hits, 0u);
    for (const MetricsRun *run : {&cold, &warm}) {
        expectOneSource(*run, /*store=*/true);
        EXPECT_EQ(run->exposition.schema_digest, "0x900139ccc7288752");
    }
}

TEST_F(InjectedDeterminismTest, TriagedRunCacheGaugesMatchStatsJson)
{
    // The triage pass shares the run's query cache, so the metrics dump
    // written after it must carry the cache counters statsJson reports.
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    MetricsRun run = metricsRun(opts);
    ASSERT_TRUE(run.result.triage.ran);
    EXPECT_GT(run.result.triage.solver.cache_hits, 0u);
    for (std::string key : {"hits", "misses", "entries", "evictions"})
        EXPECT_EQ(std::stod(run.exposition.sample("rid_query_cache_" + key)),
                  jsonNumber(run.json, "query_cache." + key))
            << key;
}

TEST_F(InjectedDeterminismTest, TreeMatchesReferenceExecutor)
{
    OracleTally tally = expectTreeMatchesReference(
        {}, triage_injected_.corpus, /*load_domain_specs=*/true);
    EXPECT_GT(tally.functions, 0u);
}

TEST_F(InjectedDeterminismTest, BodyFingerprintsArePinned)
{
    // Body fingerprints key the store and seed every report fingerprint,
    // so they are pinned twice: to the printed IR they are defined over,
    // and to a recorded digest of every (name, fingerprint) pair.
    Rid tool;
    for (const auto &file : triage_injected_.corpus.files)
        tool.addSource(file.text);
    uint64_t digest = smt::fpBytes("rid-body-fingerprints");
    for (const auto &fn : tool.module().functions()) {
        EXPECT_EQ(fn->fingerprint(), smt::fpBytes(fn->str()))
            << fn->name();
        digest = smt::fpCombine(digest, smt::fpBytes(fn->name()));
        digest = smt::fpCombine(digest, fn->fingerprint());
    }
    EXPECT_EQ(tool.module().size(), 2845u);
    EXPECT_EQ(obs::fpHex(digest), "0x669e6302a3619327");
}

TEST_F(InjectedDeterminismTest, ClassifierSharesTheRunCallGraph)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    for (const auto &file : injected_.corpus.files)
        tool.addSource(file.text);
    const ir::Module &mod = tool.module();
    std::vector<std::string> seeds = tool.summaries().namesWithChanges();

    // A classifier over a shared graph classifies exactly like one that
    // builds its own.
    analysis::CallGraph cg(mod);
    analysis::FunctionClassifier shared(mod, cg, seeds);
    analysis::FunctionClassifier own(mod, seeds);
    size_t refcount_changing = 0;
    for (int node = 0; node < static_cast<int>(cg.size()); node++) {
        const std::string &name = cg.nameOf(node);
        EXPECT_EQ(shared.categoryOf(name), own.categoryOf(name)) << name;
        EXPECT_EQ(shared.categoryOfNode(node), own.categoryOf(name))
            << name;
        refcount_changing +=
            own.categoryOf(name) == analysis::Category::RefcountChanging;
    }
    EXPECT_GT(refcount_changing, 0u);

    // A traced run builds one call graph, shared by classification, the
    // resume plan and the traversal.
    analysis::AnalyzerOptions opts;
    opts.tracer = std::make_shared<obs::Tracer>();
    summary::SummaryDb db;
    summary::loadSpecsInto(kernel::dpmSpecText(), db);
    summary::loadSpecsInto(kernel::lockSpecText(), db);
    summary::loadSpecsInto(kernel::allocSpecText(), db);
    analysis::Analyzer analyzer(mod, db, opts);
    analyzer.run();
    size_t builds = 0;
    for (const auto &event : opts.tracer->sortedEvents())
        builds += std::string(event.name) == "callgraph";
    EXPECT_EQ(builds, 1u);
    ASSERT_NE(analyzer.classifier(), nullptr);
    EXPECT_EQ(analyzer.classifier()->stats().refcount_changing,
              own.stats().refcount_changing);
}

TEST_F(InjectedDeterminismTest, TriageSharesTheRunCallGraph)
{
    // The triage pass walks the analyzer's call graph for its
    // downstream-release search instead of building a second one. The
    // run's tracer is made ambient for the whole run, triage included,
    // so any extra build would record a second span.
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    opts.tracer = std::make_shared<obs::Tracer>();
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    for (const auto &file : triage_injected_.corpus.files)
        tool.addSource(file.text);
    RunResult result;
    {
        obs::ScopedTracer scoped(opts.tracer.get());
        result = tool.run();
    }
    EXPECT_GT(result.triage.extension_searches, 0u);
    size_t builds = 0;
    for (const auto &event : opts.tracer->sortedEvents())
        builds += std::string(event.name) == "callgraph";
    EXPECT_EQ(builds, 1u);
}

TEST_F(InjectedDeterminismTest, FingerprintsAreConfigInvariant)
{
    // The provenance contract: report fingerprints are a stable identity,
    // byte-identical across threads {1, 4} x query cache {on, off}
    // on the injected smoke corpus. Any configuration leaking into the
    // fingerprint recipe (e.g. cache hit/miss evidence) breaks cross-run
    // diffing and shows up here.
    std::string baseline = fingerprintDigest(1, /*cache=*/false);
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4}) {
        for (bool cache : {false, true}) {
            if (threads == 1 && !cache)
                continue;  // the baseline itself
            EXPECT_EQ(fingerprintDigest(threads, cache), baseline)
                << "threads=" << threads << " cache=" << cache;
        }
    }
}

TEST_F(AnalyzerDeterminismTest, CacheDoesNotChangeReportCount)
{
    // Cheap cross-check on the Figure 9 example alone: the cache must
    // not create or mask reports.
    kernel::Corpus empty;
    std::string with = runDigest(empty, 1, true);
    std::string without = runDigest(empty, 1, false);
    EXPECT_EQ(with, without);
    EXPECT_NE(with.find("idmouse_open"), std::string::npos)
        << "Figure 9 bug not reported; digest:\n"
        << with;
}

} // anonymous namespace
} // namespace rid
