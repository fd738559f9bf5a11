#include "analysis/analyzer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iterator>
#include <mutex>
#include <thread>
#include <type_traits>

#include "analysis/callgraph.h"
#include "obs/failpoint.h"
#include "summary/compact.h"

namespace rid::analysis {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Reads and writes one AnalyzerStats field. `count` reads an integral
 *  field; `set` writes @p count to an integral field and @p value to a
 *  floating-point one. */
struct StatField
{
    uint64_t (*count)(const AnalyzerStats &) = nullptr;
    void (*set)(AnalyzerStats &, uint64_t count, double value) = nullptr;
};

/** The AnalyzerStats field at the end of the member path @p Path. */
template <auto... Path>
constexpr StatField field{
    [](const AnalyzerStats &s) {
        return static_cast<uint64_t>((s .* ... .* Path));
    },
    [](AnalyzerStats &s, uint64_t count, double value) {
        auto &f = (s .* ... .* Path);
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(f)>>)
            f = value;
        else
            f = count;
    },
};

enum class Kind : uint8_t { Counter, Gauge, Histogram };

/** Which analyzers register a row. Cache rows are gauges that mirror
 *  the caches' own counters; every other row with a field is the
 *  accumulator that field is read from. */
enum class Scope : uint8_t { Always, QueryCache, InstCache, Store };

struct MetricRow
{
    RunMetric id;
    Kind kind;
    const char *name;
    const char *help;
    StatField stat = {};
    Scope scope = Scope::Always;
    std::vector<double> (*buckets)() = obs::latencyBucketsSeconds;
};

} // anonymous namespace

enum class RunMetric : uint8_t {
    FunctionsAnalyzed, FunctionsDefaulted, FunctionsTruncated,
    FunctionsTimeout, FunctionsDegraded, FunctionsError, PathsEnumerated,
    EntriesComputed, BlocksExecuted, StateForks, SubtreesPruned,
    EntriesInstantiated, SummaryEntriesCompacted, SolverQueries,
    SolverTheoryChecks, SolverBranches, SolverUnknowns, SolverCacheHits,
    SolverCacheMisses, SolverSolveNs, SolverBudgetStops, ClassifySeconds,
    AnalyzeSeconds, PathsPerFunction, SymexecSeconds, IppSeconds,
    SolverQuerySeconds, QueryCacheHits, QueryCacheMisses,
    QueryCacheEntries, QueryCacheEvictions, InstCacheHits, InstCacheMisses,
    InstCacheEntries, InstCacheEvictions, StoreHits, StoreMisses,
    StoreRetries, StoreQuarantined, StoreTornFrames, StoreRecordBytes,
    Count
};

namespace {

using enum RunMetric;
using enum Kind;
using enum Scope;
using S = AnalyzerStats;
using Sv = smt::Solver::Stats;
using Qc = smt::QueryCache::Stats;
using Ic = summary::InstCache::Stats;
using St = AnalyzerStats::StoreStats;

/** Every run metric an Analyzer owns, in RunMetric order. Names and help
 *  texts are the exposition's stable surface. */
constexpr MetricRow kMetricRows[] = {
    {FunctionsAnalyzed, Counter, "rid_functions_analyzed_total",
     "Functions fully analyzed.", field<&S::functions_analyzed>},
    {FunctionsDefaulted, Counter, "rid_functions_defaulted_total",
     "Functions given the default summary unanalyzed.",
     field<&S::functions_defaulted>},
    {FunctionsTruncated, Counter, "rid_functions_truncated_total",
     "Functions whose path/subcase caps truncated analysis.",
     field<&S::functions_truncated>},
    {FunctionsTimeout, Counter, "rid_functions_timeout_total",
     "Functions degraded to the default summary by budget expiry.",
     field<&S::functions_timeout>},
    {FunctionsDegraded, Counter, "rid_functions_degraded_total",
     "Functions whose analysis fault was isolated.",
     field<&S::functions_degraded>},
    {FunctionsError, Counter, "rid_functions_error_total",
     "Functions that faulted outside the guarded analysis.",
     field<&S::functions_error>},
    {PathsEnumerated, Counter, "rid_paths_enumerated_total",
     "Entry-to-exit paths enumerated.", field<&S::paths_enumerated>},
    {EntriesComputed, Counter, "rid_entries_computed_total",
     "Path summary entries computed before IPP merging.",
     field<&S::entries_computed>},
    {BlocksExecuted, Counter, "rid_blocks_executed_total",
     "Basic blocks stepped during symbolic execution.",
     field<&S::blocks_executed>},
    {StateForks, Counter, "rid_state_forks_total",
     "State-set forks at conditional branches (prefix-sharing engine).",
     field<&S::state_forks>},
    {SubtreesPruned, Counter, "rid_subtrees_pruned_total",
     "CFG subtrees skipped on an unsatisfiable path condition (prefix-sharing "
     "engine).", field<&S::subtrees_pruned>},
    {EntriesInstantiated, Counter, "rid_entries_instantiated_total",
     "Callee summary entries instantiated from scratch (inst-cache misses when "
     "interning is on).", field<&S::entries_instantiated>},
    {SummaryEntriesCompacted, Counter, "rid_summary_entries_compacted_total",
     "Summary entries merged or dropped by bottom-up compaction before "
     "entering the database.", field<&S::summary_entries_compacted>},
    {SolverQueries, Counter, "rid_solver_queries_total",
     "Solver check() calls.", field<&S::solver, &Sv::queries>},
    {SolverTheoryChecks, Counter, "rid_solver_theory_checks_total",
     "Theory-core conjunction checks.", field<&S::solver, &Sv::theory_checks>},
    {SolverBranches, Counter, "rid_solver_branches_total",
     "Solver branch enumerations.", field<&S::solver, &Sv::branches>},
    {SolverUnknowns, Counter, "rid_solver_unknowns_total",
     "Solver Unknown results.", field<&S::solver, &Sv::unknowns>},
    {SolverCacheHits, Counter, "rid_solver_cache_hits_total",
     "Queries answered by the cache.", field<&S::solver, &Sv::cache_hits>},
    {SolverCacheMisses, Counter, "rid_solver_cache_misses_total",
     "Non-trivial queries that missed the cache.",
     field<&S::solver, &Sv::cache_misses>},
    {SolverSolveNs, Counter, "rid_solver_solve_ns_total",
     "Wall nanoseconds spent inside solver check().",
     field<&S::solver, &Sv::solve_ns>},
    {SolverBudgetStops, Counter, "rid_solver_budget_stops_total",
     "Solver queries answered Unknown by budget expiry.",
     field<&S::solver, &Sv::budget_stops>},
    {ClassifySeconds, Gauge, "rid_classify_seconds",
     "Wall time of the classification phase.", field<&S::classify_seconds>},
    {AnalyzeSeconds, Gauge, "rid_analyze_seconds",
     "Wall time of the bottom-up analysis.", field<&S::analyze_seconds>},
    {PathsPerFunction, Histogram, "rid_paths_per_function",
     "Enumerated paths per analyzed function.", {}, Always,
     obs::pathCountBuckets},
    {SymexecSeconds, Histogram, "rid_symexec_seconds",
     "Per-function symbolic-execution phase wall time.",
     field<&S::symexec_seconds>},
    {IppSeconds, Histogram, "rid_ipp_seconds",
     "Per-function IPP check-and-merge wall time.", field<&S::ipp_seconds>},
    {SolverQuerySeconds, Histogram, "rid_solver_query_seconds",
     "Solver query latency (seconds)."},
    {QueryCacheHits, Gauge, "rid_query_cache_hits",
     "Shared query-cache hits (snapshot).", field<&S::query_cache, &Qc::hits>,
     QueryCache},
    {QueryCacheMisses, Gauge, "rid_query_cache_misses",
     "Shared query-cache misses (snapshot).",
     field<&S::query_cache, &Qc::misses>, QueryCache},
    {QueryCacheEntries, Gauge, "rid_query_cache_entries",
     "Resident query-cache entries.", field<&S::query_cache, &Qc::entries>,
     QueryCache},
    {QueryCacheEvictions, Gauge, "rid_query_cache_evictions",
     "Query-cache evictions (snapshot).",
     field<&S::query_cache, &Qc::evictions>, QueryCache},
    {InstCacheHits, Gauge, "rid_inst_cache_hits",
     "Shared instantiation-cache hits (snapshot).",
     field<&S::inst_cache, &Ic::hits>, InstCache},
    {InstCacheMisses, Gauge, "rid_inst_cache_misses",
     "Shared instantiation-cache misses (snapshot).",
     field<&S::inst_cache, &Ic::misses>, InstCache},
    {InstCacheEntries, Gauge, "rid_inst_cache_entries",
     "Resident instantiation-cache entries.",
     field<&S::inst_cache, &Ic::entries>, InstCache},
    {InstCacheEvictions, Gauge, "rid_inst_cache_evictions",
     "Instantiation-cache evictions (snapshot).",
     field<&S::inst_cache, &Ic::evictions>, InstCache},
    {StoreHits, Counter, "rid_store_hits_total",
     "Functions replayed from the analysis store (symexec skipped).",
     field<&S::store, &St::hits>, Store},
    {StoreMisses, Counter, "rid_store_misses_total",
     "Store lookups that fell back to re-analysis.",
     field<&S::store, &St::misses>, Store},
    {StoreRetries, Counter, "rid_store_retries_total",
     "Previously failed functions re-run under a supervisor-laddered budget.",
     field<&S::store, &St::retried>, Store},
    {StoreQuarantined, Counter, "rid_store_quarantined_total",
     "Functions quarantined after exhausting the retry ladder.",
     field<&S::store, &St::quarantined>, Store},
    {StoreTornFrames, Counter, "rid_store_torn_frames_total",
     "Store frames dropped by the recovery scan.",
     field<&S::store, &St::torn_frames>, Store},
    {StoreRecordBytes, Histogram, "rid_store_record_bytes",
     "Bytes appended to the store per function record.", {}, Store,
     obs::byteSizeBuckets},
};

constexpr bool
rowsFollowEnumOrder()
{
    for (size_t i = 0; i < std::size(kMetricRows); i++)
        if (static_cast<size_t>(kMetricRows[i].id) != i)
            return false;
    return std::size(kMetricRows) == static_cast<size_t>(Count);
}
static_assert(rowsFollowEnumOrder(), "kMetricRows must follow RunMetric");

} // anonymous namespace

const char *
fnStatusName(FnStatus s)
{
    switch (s) {
      case FnStatus::Ok: return "ok";
      case FnStatus::Truncated: return "truncated";
      case FnStatus::Timeout: return "timeout";
      case FnStatus::Degraded: return "degraded";
      case FnStatus::Error: return "error";
    }
    return "?";
}

Analyzer::Analyzer(const ir::Module &mod, summary::SummaryDb &db,
                   AnalyzerOptions opts)
    : mod_(mod), db_(db), opts_(opts)
{
    if (opts_.use_query_cache)
        query_cache_ = std::make_shared<smt::QueryCache>();
    if (opts_.intern_instantiations)
        inst_cache_ = std::make_shared<summary::InstCache>();
    tracer_ = opts_.tracer;
    if (!tracer_ && !opts_.trace_path.empty())
        tracer_ = std::make_shared<obs::Tracer>();
    store_ = opts_.store;
    if (store_)
        store_config_fp_ = store_->configFingerprint();

    instruments_.resize(std::size(kMetricRows));
    for (const MetricRow &row : kMetricRows) {
        if ((row.scope == QueryCache && !query_cache_) ||
            (row.scope == InstCache && !inst_cache_) ||
            (row.scope == Store && !store_))
            continue;
        Instrument &in = instruments_[static_cast<size_t>(row.id)];
        if (row.kind == Counter)
            in.counter = &metrics_->counter(row.name, row.help);
        else if (row.kind == Gauge)
            in.gauge = &metrics_->gauge(row.name, row.help);
        else
            in.histogram =
                &metrics_->histogram(row.name, row.help, row.buckets());
    }
    // The recovery scan ran when the store was opened.
    if (store_)
        instrument(StoreTornFrames).counter->inc(store_->ioStats().torn_frames);

    // Arm the process-wide fault-injection registry when asked to, either
    // programmatically or via the environment. An empty spec leaves any
    // existing arming alone (tests drive the registry directly).
    std::string fp_spec = opts_.failpoints;
    if (fp_spec.empty()) {
        if (const char *env = std::getenv("RID_FAILPOINTS"))
            fp_spec = env;
    }
    if (!fp_spec.empty())
        obs::FailpointRegistry::instance().configure(fp_spec,
                                                     opts_.failpoint_seed);
}

smt::Solver
Analyzer::makeSolver(const obs::Budget *budget) const
{
    smt::Solver::Options sopts;
    sopts.trace_queries = opts_.trace_solver_queries;
    smt::Solver solver(sopts);
    solver.attachCache(query_cache_);
    solver.attachLatencyHistogram(instrument(SolverQuerySeconds).histogram);
    solver.attachBudget(budget);
    return solver;
}

void
Analyzer::tally(const AnalyzerStats &delta) const
{
    for (const MetricRow &row : kMetricRows) {
        obs::Counter *c = instrument(row.id).counter;
        if (c && row.stat.count)
            c->inc(row.stat.count(delta));
    }
}

void
Analyzer::snapshotStats()
{
    if (query_cache_)
        stats_.query_cache = query_cache_->stats();
    if (inst_cache_)
        stats_.inst_cache = inst_cache_->stats();
    if (store_) {
        FunctionStore::IoStats io = store_->ioStats();
        stats_.store.active = true;
        stats_.store.loaded_records = io.loaded_records;
        stats_.store.failed_writes = io.failed_writes;
        stats_.store.bytes_appended = io.bytes_appended;
    }
    for (const MetricRow &row : kMetricRows) {
        const Instrument &in = instrument(row.id);
        if (!row.stat.set)
            continue;
        if (row.scope == QueryCache || row.scope == InstCache) {
            // Cache rows mirror the caches' own counters.
            if (in.gauge)
                in.gauge->set(static_cast<double>(row.stat.count(stats_)));
        } else if (in.counter) {
            row.stat.set(stats_, in.counter->value(), 0);
        } else if (in.gauge) {
            row.stat.set(stats_, 0, in.gauge->value());
        } else if (in.histogram) {
            row.stat.set(stats_, in.histogram->count(), in.histogram->sum());
        }
    }
}

std::vector<obs::FunctionCost>
Analyzer::functionCosts() const
{
    std::vector<obs::FunctionCost> costs = function_costs_;
    std::sort(costs.begin(), costs.end(),
              [](const obs::FunctionCost &a, const obs::FunctionCost &b) {
                  return a.name < b.name;
              });
    return costs;
}

std::vector<FunctionDiagnostic>
Analyzer::diagnostics() const
{
    std::vector<FunctionDiagnostic> out = diagnostics_;
    std::sort(out.begin(), out.end(),
              [](const FunctionDiagnostic &a, const FunctionDiagnostic &b) {
                  if (a.function != b.function)
                      return a.function < b.function;
                  return a.status < b.status;
              });
    return out;
}

void
Analyzer::recordDiagnostic(FunctionDiagnostic d)
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    diagnostics_.push_back(std::move(d));
}

void
Analyzer::fallBackToDefault(const ir::Function &fn, FnStatus status,
                            const std::string &reason)
{
    // A declaration has no body to stand in for.
    if (!fn.isDeclaration())
        db_.addDefault(fn.name(), fn.returnsValue());
    RunMetric counter = status == FnStatus::Timeout    ? FunctionsTimeout
                        : status == FnStatus::Degraded ? FunctionsDegraded
                                                       : FunctionsError;
    instrument(counter).counter->inc();
    recordDiagnostic({fn.name(), status, reason});
    recordToStore(fn, status, reason, false, nullptr, {});
}

void
Analyzer::recordToStore(const ir::Function &fn, FnStatus status,
                        const std::string &reason, bool defaulted,
                        const summary::FunctionSummary *summary,
                        const std::vector<BugReport> &reports)
{
    if (!store_)
        return;
    size_t n = store_->record({fn.name(), fn.fingerprint(),
                               store_config_fp_},
                              status, reason, defaulted, summary, reports);
    if (n > 0)
        instrument(StoreRecordBytes).histogram->observe(
            static_cast<double>(n));
}

std::vector<BugReport>
Analyzer::analyzeFunction(const ir::Function &fn, double deadline_seconds,
                          uint64_t fuel)
{
    obs::Span fn_span("function", "analyze-function");
    fn_span.arg("fn", fn.name());
    obs::FailpointScope fp_scope(fn.name());

    // Child of the run budget: expires at the earlier of its own
    // deadline/fuel and the run's. A generous budget that never fires
    // leaves results byte-identical to an unbudgeted run. The budget is
    // normally the run's per-function configuration; a supervised retry
    // passes the ladder's halved values instead.
    obs::Budget fn_budget(run_budget_.get(), deadline_seconds, fuel);
    try {
        return analyzeFunctionGuarded(fn, fn_budget);
    } catch (const std::exception &e) {
        // Fault isolation: whatever went wrong while analyzing this
        // function (an injected fault, an IR invariant violation, a spec
        // problem) is confined to it. The function is degraded to the
        // conservative default summary — the same weakening the paper
        // applies to truncated functions — and the run continues.
        fallBackToDefault(fn, FnStatus::Degraded, e.what());
        return {};
    }
}

std::vector<BugReport>
Analyzer::analyzeFunctionGuarded(const ir::Function &fn,
                                 const obs::Budget &fn_budget)
{
    const obs::Budget *budget = fn_budget.unlimited() ? nullptr : &fn_budget;
    smt::Solver solver = makeSolver(budget);
    smt::Solver::Stats fn_solver_stats;

    // Degradation ladder, final rung: budget expiry anywhere in this
    // function discards all partial (timing-dependent) results and stores
    // the default summary, so budgeted runs stay deterministic for every
    // function whose budget did not fire.
    auto timedOut = [&]() { return budget && budget->expiredNow(); };
    auto degradeToTimeout = [&]() -> std::vector<BugReport> {
        // Results are discarded, but solver counters (budget_stops in
        // particular) are observability and must survive the discard.
        fn_solver_stats += solver.stats();
        AnalyzerStats spent;
        spent.solver = fn_solver_stats;
        tally(spent);
        fallBackToDefault(fn, FnStatus::Timeout,
                          std::string("budget: ") +
                              obs::budgetStopName(fn_budget.stopReason()));
        return {};
    };

    // One depth-first CFG-tree walk executes every path: each tree edge
    // runs once and infeasible subtrees are skipped as soon as the path
    // condition becomes unsatisfiable (DESIGN.md, "Prefix-sharing
    // symbolic execution").
    auto symexec_t0 = std::chrono::steady_clock::now();
    TreeExecResult tree;
    {
        obs::Span symexec_span("phase", "symexec");
        symexec_span.arg("fn", fn.name());
        TreeExecOptions tree_opts;
        tree_opts.max_subcases = opts_.max_subcases;
        tree_opts.prune_infeasible = opts_.prune_infeasible;
        tree_opts.budget = budget;
        tree_opts.max_paths = opts_.max_paths;
        tree_opts.max_visits = 2;
        tree_opts.inst_cache = inst_cache_.get();
        tree = executeFunctionTree(fn, db_, solver, tree_opts);
    }
    double symexec_seconds = secondsSince(symexec_t0);
    if (tree.deadline_hit || timedOut())
        return degradeToTimeout();
    bool truncated = tree.truncated;
    size_t num_paths = tree.completed.size();
    std::vector<summary::SummaryEntry> path_entries;
    for (auto &outcome : tree.completed)
        for (auto &e : outcome.entries)
            path_entries.push_back(std::move(e));

    IppOptions ipp_opts;
    ipp_opts.drop_seed = opts_.drop_seed;
    ipp_opts.deterministic_drop = opts_.deterministic_drop;
    ipp_opts.domains = &domain_table_;
    ipp_opts.enabled_domains =
        opts_.enabled_domains.empty() ? nullptr : &opts_.enabled_domains;
    size_t num_entries = path_entries.size();
    auto ipp_t0 = std::chrono::steady_clock::now();
    auto ipp = checkAndMerge(fn.name(), std::move(path_entries), solver,
                             ipp_opts);
    double ipp_seconds = secondsSince(ipp_t0);
    // The budget can also fire inside IPP (solver fuel / deadline); the
    // merged entries and reports are then partial and must go too.
    if (timedOut())
        return degradeToTimeout();

    summary::FunctionSummary summary;
    summary.function = fn.name();
    summary.params = fn.params();
    summary.returns_value = fn.returnsValue();
    summary.entries = std::move(ipp.entries);
    summary.is_truncated = truncated;
    if (opts_.summary_check) {
        for (auto &extra : opts_.summary_check(summary))
            ipp.reports.push_back(std::move(extra));
    }
    if (!ipp.reports.empty()) {
        // Stamp stable report identities (after summary_check so the
        // escape-rule reports get theirs too). Every fingerprint input is
        // byte-stable across thread and cache settings, so the
        // stamps are as deterministic as the reports themselves.
        uint64_t fn_fp = fn.fingerprint();
        for (auto &r : ipp.reports) {
            r.function_fp = fn_fp;
            r.fingerprint = r.computeFingerprint(fn_fp);
        }
    }
    if (truncated || summary.entries.empty()) {
        // Limits cut the analysis short: weaken with the default entry so
        // callers never trust an incomplete summary too much
        // (Section 5.2).
        summary.entries.push_back(
            summary::SummaryEntry::defaultEntry(fn.returnsValue()));
    }
    // With pruning the path cap counts feasible completed paths only;
    // say how many infeasible subtrees were skipped before it filled,
    // so a "cap hit" on a heavily-pruned function reads differently
    // from a plain structural explosion.
    std::string trunc_reason;
    if (truncated) {
        trunc_reason = "path/subcase cap truncated analysis";
        if (tree.path_cap_hit && tree.subtrees_pruned > 0)
            trunc_reason += " after pruning " +
                            std::to_string(tree.subtrees_pruned) +
                            " infeasible subtrees";
    }
    // Bottom-up compaction, after every report-generating phase: merging
    // call-boundary-indistinguishable entries (and dropping unsatisfiable
    // ones) shrinks what callers instantiate without touching what this
    // function reported. Runs against the same budget-attached solver, so
    // its validity proofs consume the function's remaining fuel and an
    // expiry degrades exactly like one inside IPP.
    summary::CompactionStats compaction;
    {
        obs::Span compact_span("phase", "summary-compact");
        compact_span.arg("fn", fn.name());
        compaction = summary::compactSummary(summary, solver);
        if (timedOut())
            return degradeToTimeout();
    }
    // Persist before the summary is moved into the db: one frame carries
    // the complete outcome (status, summary, stamped reports).
    recordToStore(fn, truncated ? FnStatus::Truncated : FnStatus::Ok,
                  trunc_reason, false, &summary, ipp.reports);
    db_.addComputed(std::move(summary));

    fn_solver_stats += solver.stats();
    AnalyzerStats done;
    done.functions_analyzed = 1;
    done.functions_truncated = truncated;
    done.paths_enumerated = num_paths;
    done.entries_computed = num_entries;
    done.blocks_executed = tree.blocks_executed;
    done.state_forks = tree.forks;
    done.subtrees_pruned = tree.subtrees_pruned;
    done.entries_instantiated = tree.entries_instantiated;
    done.summary_entries_compacted = compaction.merged + compaction.dropped;
    done.solver = fn_solver_stats;
    tally(done);
    if (truncated)
        recordDiagnostic({fn.name(), FnStatus::Truncated, trunc_reason});
    instrument(PathsPerFunction)
        .histogram->observe(static_cast<double>(num_paths));
    instrument(SymexecSeconds).histogram->observe(symexec_seconds);
    instrument(IppSeconds).histogram->observe(ipp_seconds);

    if (opts_.profile_top_n > 0) {
        obs::FunctionCost cost;
        cost.name = fn.name();
        cost.paths = num_paths;
        cost.entries = num_entries;
        cost.truncated = truncated;
        cost.symexec_seconds = symexec_seconds;
        cost.ipp_seconds = ipp_seconds;
        cost.solver_seconds = fn_solver_stats.solveSeconds();
        cost.solver_queries = fn_solver_stats.queries;
        cost.blocks_executed = tree.blocks_executed;
        cost.forks = tree.forks;
        cost.subtrees_pruned = tree.subtrees_pruned;
        cost.entries_instantiated = tree.entries_instantiated;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        function_costs_.push_back(std::move(cost));
    }
    return std::move(ipp.reports);
}

void
Analyzer::run()
{
    obs::ScopedTracer scoped(tracer_.get());
    obs::Span run_span("pipeline", "run");

    // Root of the budget hierarchy; unlimited (constant-false checks)
    // when no run deadline is configured.
    run_budget_ = std::make_unique<obs::Budget>(
        nullptr, opts_.run_deadline_seconds, 0);

    auto t0 = std::chrono::steady_clock::now();

    // Snapshot the declared effect domains once per run; analysis workers
    // read the copy without touching the db's lock.
    domain_table_ = db_.domains();

    // Seeds are every known summary that changes a counter in an enabled
    // domain: the predefined APIs plus summaries imported from earlier
    // separate-file passes (Section 5.3).
    std::vector<std::string> seeds =
        db_.namesWithChanges(opts_.enabled_domains);

    // One call graph per run, shared by classification, the resume plan
    // and the traversal. It is timed with classification, its first user.
    classifier_.reset();
    callgraph_ = std::make_unique<CallGraph>(mod_);
    const CallGraph &cg = *callgraph_;
    {
        obs::Span classify_span("pipeline", "classify");
        if (opts_.classify)
            classifier_ =
                std::make_unique<FunctionClassifier>(mod_, cg, seeds);
    }
    instrument(ClassifySeconds).gauge->set(secondsSince(t0));
    if (classifier_)
        stats_.categories = classifier_->stats();

    // Tracked functions are the bodies this run summarizes: defined and
    // not covered by a predefined summary.
    std::vector<char> tracked(cg.size(), 0);
    for (int node = 0; node < static_cast<int>(cg.size()); node++) {
        const ir::Function *fn = cg.functionOf(node);
        tracked[node] = fn && !fn->isDeclaration() &&
                        !db_.hasPredefined(fn->name());
    }

    auto shouldAnalyze = [&](int node, const ir::Function &fn) {
        if (!tracked[node])
            return false;
        if (!opts_.classify)
            return true;
        switch (classifier_->categoryOfNode(node)) {
          case Category::RefcountChanging:
            return true;
          case Category::Affecting:
            // Selective analysis: only simple value-filtering helpers
            // (Section 5.2).
            return fn.countCondBranches() <= opts_.max_cat2_branches;
          case Category::Other:
            return false;
        }
        return false;
    };

    auto t1 = std::chrono::steady_clock::now();
    obs::Span analyze_span("pipeline", "analyze");
    size_t reports_before = reports_.size();

    // Resume plan, built bottom-up over the SCC condensation before the
    // traversal. An SCC is *clean* when every tracked member replays from
    // the store (Load) or is quarantined, and every cross-SCC callee's
    // SCC is clean; a dirty SCC downgrades its members' Loads to Analyze,
    // so the whole up-cone of any changed/incomplete function re-executes
    // with fresh callee summaries. Quarantine stands even in a dirty cone
    // (the default summary it applies is callee-independent); a Retry
    // re-runs by definition and dirties its callers, since a successful
    // retry changes the summary its callers saw.
    resume_plan_.clear();
    if (store_ && opts_.resume) {
        obs::Span plan_span("pipeline", "resume-plan");
        resume_plan_.resize(cg.size());
        FunctionStore::LookupContext ctx;
        ctx.function_deadline_seconds = opts_.function_deadline_seconds;
        ctx.function_solver_fuel = opts_.function_solver_fuel;
        // SCC ids are reverse-topological (callees first), so one id-order
        // sweep sees every callee SCC before its callers.
        std::vector<char> scc_clean(cg.numSccs(), 1);
        for (int scc = 0; scc < static_cast<int>(cg.numSccs()); scc++) {
            bool clean = true;
            for (int member : cg.sccMembers(scc)) {
                for (int callee : cg.calleesOf(member)) {
                    int cs = cg.sccOf(callee);
                    if (cs != scc && !scc_clean[cs])
                        clean = false;
                }
                if (!tracked[member])
                    continue; // declarations/specs: fixed via config_fp
                const ir::Function &fn = *cg.functionOf(member);
                ctx.want_analyze = shouldAnalyze(member, fn);
                FunctionStore::Action a = store_->lookup(
                    {fn.name(), fn.fingerprint(), store_config_fp_}, ctx,
                    domain_table_);
                if (a.plan != FunctionStore::Plan::Load &&
                    a.plan != FunctionStore::Plan::Quarantine)
                    clean = false;
                resume_plan_[member] = std::move(a);
            }
            if (!clean) {
                for (int member : cg.sccMembers(scc)) {
                    auto &a = resume_plan_[member];
                    if (a.plan == FunctionStore::Plan::Load)
                        a = FunctionStore::Action{};
                }
            }
            scc_clean[scc] = clean ? 1 : 0;
        }
    }

    auto processNode = [&](int node) -> std::vector<BugReport> {
        const ir::Function *fn = cg.functionOf(node);
        if (!fn)
            return {};
        try {
            obs::FailpointScope fp_scope(fn->name());

            // Each node is visited exactly once per run; moving the
            // Action aside keeps the plan itself read-only under
            // SCC-level parallelism. Nodes without a lookup hold the
            // default Analyze action.
            FunctionStore::Action action;
            if (!resume_plan_.empty())
                action = std::move(resume_plan_[node]);
            if (action.plan == FunctionStore::Plan::Load) {
                // Store hit: replay the recorded outcome and skip symexec.
                // Counters are not replayed (stats describe work actually
                // done this run); diagnostics are, so truncation notes
                // survive a resume.
                instrument(StoreHits).counter->inc();
                if (action.defaulted) {
                    db_.addDefault(fn->name(), fn->returnsValue());
                    instrument(FunctionsDefaulted).counter->inc();
                } else {
                    obs::FailpointSuppressScope suppress;
                    db_.addComputed(std::move(action.summary));
                }
                if (action.status != FnStatus::Ok)
                    recordDiagnostic(
                        {fn->name(), action.status, action.reason});
                return std::move(action.reports);
            }
            if (action.plan == FunctionStore::Plan::Quarantine) {
                // Retry ladder exhausted: conservative default summary,
                // no symexec, and a provenance note saying why.
                instrument(StoreQuarantined).counter->inc();
                db_.addDefault(fn->name(), fn->returnsValue());
                instrument(FunctionsDegraded).counter->inc();
                recordDiagnostic(
                    {fn->name(), FnStatus::Degraded, action.note});
                return {};
            }
            if (store_ && tracked[node])
                instrument(StoreMisses).counter->inc();

            if (!shouldAnalyze(node, *fn)) {
                if (tracked[node]) {
                    db_.addDefault(fn->name(), fn->returnsValue());
                    instrument(FunctionsDefaulted).counter->inc();
                    recordToStore(*fn, FnStatus::Ok, "", true, nullptr,
                                  {});
                }
                return {};
            }
            // Graceful run-level degradation: once the run budget is
            // gone, remaining functions get the default summary instead
            // of being analyzed, and the run still finishes with a
            // complete report.
            if (run_budget_->expiredNow()) {
                fallBackToDefault(
                    *fn, FnStatus::Timeout,
                    std::string("run budget: ") +
                        obs::budgetStopName(run_budget_->stopReason()));
                return {};
            }
            double deadline = opts_.function_deadline_seconds;
            uint64_t fuel = opts_.function_solver_fuel;
            if (action.plan == FunctionStore::Plan::Retry) {
                instrument(StoreRetries).counter->inc();
                deadline = action.retry_deadline_seconds;
                fuel = action.retry_fuel;
            }
            return analyzeFunction(*fn, deadline, fuel);
        } catch (const std::exception &e) {
            // Last-resort isolation for faults outside the guarded
            // analysis path (classification, summary storage, ...).
            fallBackToDefault(*fn, FnStatus::Error, e.what());
            return {};
        }
    };

    // Shard-level checkpoints: each one is a durability barrier (fsync);
    // a killed run resumes from the last committed record, re-executing
    // at most the in-flight tail. The store skips a barrier with no new
    // frame to cover, so a replay-only stretch costs no fsync.
    uint64_t checkpoint_tag = 0;
    auto storeCheckpoint = [&]() {
        if (store_)
            store_->checkpoint(checkpoint_tag++);
    };

    if (opts_.threads <= 1) {
        size_t since_checkpoint = 0;
        for (int node : cg.reverseTopoOrder()) {
            auto reports = processNode(node);
            for (auto &r : reports)
                reports_.push_back(std::move(r));
            if (store_ && ++since_checkpoint >= 64) {
                storeCheckpoint();
                since_checkpoint = 0;
            }
        }
    } else {
        // Process SCC levels bottom-up; components within one level are
        // independent and run concurrently (Section 5.3). Each SCC's
        // reports land in the slot of its id and are appended in id
        // order afterwards: the sequential order, whatever the timing.
        std::vector<std::vector<BugReport>> scc_reports(cg.numSccs());
        for (const auto &level : cg.sccLevels()) {
            std::vector<std::future<void>> futures;
            std::atomic<size_t> cursor{0};
            int workers = std::min<int>(opts_.threads,
                                        static_cast<int>(level.size()));
            for (int w = 0; w < workers; w++) {
                futures.push_back(std::async(std::launch::async, [&]() {
                    obs::ScopedTracer worker_scoped(tracer_.get());
                    while (true) {
                        size_t k = cursor.fetch_add(1);
                        if (k >= level.size())
                            break;
                        auto &slot = scc_reports[level[k]];
                        for (int member : cg.sccMembers(level[k])) {
                            auto reports = processNode(member);
                            for (auto &r : reports)
                                slot.push_back(std::move(r));
                        }
                    }
                }));
            }
            for (auto &f : futures)
                f.get();
            storeCheckpoint();
        }
        for (auto &slot : scc_reports)
            for (auto &r : slot)
                reports_.push_back(std::move(r));
    }
    storeCheckpoint();
    instrument(AnalyzeSeconds).gauge->set(secondsSince(t1));
    // Per-domain report accounting for this run (the registry's
    // counter() is get-or-create, so dynamically named per-domain
    // counters are safe to mint here).
    stats_.reports_by_domain.clear();
    for (size_t k = reports_before; k < reports_.size(); k++)
        stats_.reports_by_domain[reports_[k].domain]++;
    for (const auto &[dom, n] : stats_.reports_by_domain) {
        metrics_
            ->counter("rid_reports_" + dom + "_total",
                      "Bug reports in effect domain '" + dom + "'.")
            .inc(n);
    }
    snapshotStats();
}

} // namespace rid::analysis
