/**
 * @file
 * Whole-module analysis driver.
 *
 * Runs the full RID pipeline on an IR module: call-graph construction,
 * function classification, and a bottom-up traversal that summarizes
 * each function's paths in one prefix-sharing symbolic walk
 * (executeFunctionTree), checks inconsistent path pairs and stores the
 * resulting function summaries. Category-2 functions are only
 * analyzed when simple enough (conditional-branch budget); category-3
 * functions are skipped entirely. SCC levels may be processed in parallel
 * for large corpora.
 */

#ifndef RID_ANALYSIS_ANALYZER_H
#define RID_ANALYSIS_ANALYZER_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/classifier.h"
#include "analysis/ipp.h"
#include "analysis/summary_check.h"
#include "analysis/symexec.h"
#include "ir/function.h"
#include "obs/budget.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "smt/query_cache.h"
#include "summary/db.h"
#include "summary/inst_cache.h"

namespace rid::analysis {

/**
 * How one function's analysis ended. Worse statuses shadow better ones:
 * Error > Degraded > Timeout > Truncated > Ok.
 */
enum class FnStatus : uint8_t {
    Ok = 0,     ///< fully analyzed
    Truncated,  ///< structural caps (max_paths/max_subcases) cut paths;
                ///< result is deterministic and still merged
    Timeout,    ///< budget expired; partial results discarded, default
                ///< summary stored
    Degraded,   ///< a fault during analysis was isolated to this function;
                ///< default summary stored
    Error,      ///< a fault outside the guarded analysis path; default
                ///< summary stored where possible
};

const char *fnStatusName(FnStatus s);

/** Structured outcome record for one function whose analysis did not end
 *  plainly Ok; carried through RunResult and statsJson(). */
struct FunctionDiagnostic
{
    std::string function;
    FnStatus status = FnStatus::Ok;
    /** Human-readable cause: exception message, budget stop reason or cap
     *  description. */
    std::string reason;
};

/**
 * Durable analysis store hook (implemented by store::AnalysisStore).
 *
 * The Analyzer records every processed function's outcome through this
 * interface and, on resume, consults it before running symexec: a
 * function whose key — (body fingerprint, spec/domain-config
 * fingerprint) — matches a committed record replays its summary,
 * reports and diagnostic from the store and skips execution entirely.
 * The interface lives here (not in src/store/) so the analysis library
 * stays storage-agnostic; the store library depends on analysis, never
 * the other way around. On-disk format: docs/STORE.md.
 */
class FunctionStore
{
  public:
    /** Store key of one function under one configuration. */
    struct Key
    {
        std::string function;
        /** ir::Function::fingerprint() — stable over the printed IR. */
        uint64_t body_fp = 0;
        /** store::configFingerprint() over specs, domains and every
         *  output-affecting AnalyzerOption. */
        uint64_t config_fp = 0;
    };

    /** What the analyzer should do with one function on resume. */
    enum class Plan : uint8_t {
        Analyze,    ///< no usable record: run symexec normally
        Load,       ///< replay summary/reports/diagnostic, skip symexec
        Retry,      ///< previously failed: re-run under a reduced budget
        Quarantine, ///< retry ladder exhausted: default summary, no symexec
    };

    struct Action
    {
        Plan plan = Plan::Analyze;
        /** Load: the stored summary (unset when defaulted). */
        summary::FunctionSummary summary;
        /** Load: the stored reports, fully round-tripped. */
        std::vector<BugReport> reports;
        /** Load: the original status/reason, replayed as a diagnostic. */
        FnStatus status = FnStatus::Ok;
        std::string reason;
        /** Load: the function was classification-skipped (category 3)
         *  in the recorded run; replay stores the default summary. */
        bool defaulted = false;
        /** Retry: backoff-laddered budget (0 = keep the run's). */
        double retry_deadline_seconds = 0;
        uint64_t retry_fuel = 0;
        /** Retry/Quarantine: failed attempts recorded so far. */
        uint32_t prior_attempts = 0;
        /** Quarantine: provenance note for the Degraded diagnostic. */
        std::string note;
    };

    /** Run-side context a lookup decision needs. */
    struct LookupContext
    {
        /** Current classification decision for the function. */
        bool want_analyze = true;
        /** The run's per-function budget (the retry ladder halves it). */
        double function_deadline_seconds = 0;
        uint64_t function_solver_fuel = 0;
    };

    /** Recovery/append accounting surfaced into AnalyzerStats. */
    struct IoStats
    {
        size_t loaded_records = 0;
        size_t torn_frames = 0;
        size_t failed_writes = 0;
        uint64_t bytes_loaded = 0;
        uint64_t bytes_appended = 0;
    };

    virtual ~FunctionStore() = default;

    /** The spec/domain/options fingerprint this store was opened with. */
    virtual uint64_t configFingerprint() const = 0;

    /** Decide what to do with @p key on resume. Thread-safe. */
    virtual Action lookup(const Key &key, const LookupContext &ctx,
                          const summary::DomainTable &domains) = 0;

    /**
     * Persist one function's outcome. Must not throw: storage faults are
     * absorbed and counted (IoStats::failed_writes) so a failing disk
     * degrades durability, never analysis results.
     * @return bytes appended (0 when the write failed)
     */
    virtual size_t record(const Key &key, FnStatus status,
                          const std::string &reason, bool defaulted,
                          const summary::FunctionSummary *summary,
                          const std::vector<BugReport> &reports) = 0;

    /** Commit a shard-level checkpoint: append a checkpoint frame and
     *  flush everything before it to stable storage. A store may skip a
     *  checkpoint that would cover no new bytes. Must not throw. */
    virtual void checkpoint(uint64_t tag) = 0;

    virtual IoStats ioStats() const = 0;
};

struct AnalyzerOptions
{
    /** Path cap per function (paper configuration: 100). */
    int max_paths = 100;
    /** Subcase cap per path (paper configuration: 10). */
    int max_subcases = 10;
    /** Conditional-branch budget for category-2 functions (paper: 3). */
    int max_cat2_branches = 3;
    /** Prune infeasible states during symbolic execution. */
    bool prune_infeasible = true;
    /** Classify first and skip category-3 functions (Section 5.2).
     *  Disabled: every defined function is fully analyzed. */
    bool classify = true;
    /** Worker threads for SCC-level parallelism (1 = sequential). */
    int threads = 1;
    /** Worker threads for path-level parallelism inside one function
     *  (the Section 7 future-work item: "symbolically executing
     *  multiple paths in parallel"): independent CFG subtrees of the
     *  tree walk run on workers. 1 = sequential. */
    int path_threads = 1;
    /** Seed for the inconsistent-entry drop choice (only consulted when
     *  deterministic_drop is off). */
    uint64_t drop_seed = 0x5eed;
    /** Deterministic IPP drop choice (IppOptions::deterministic_drop):
     *  on, outputs are independent of drop_seed; off restores the
     *  paper's seeded-random drop for differential testing. */
    bool deterministic_drop = true;
    /** Compact each computed summary before it enters the database:
     *  merge entries indistinguishable at every call boundary (identical
     *  changes/stores/ret) into one disjunctive entry and drop entries
     *  with unsatisfiable constraints. Runs after report generation and
     *  the summary check, so reports and diagnostics are byte-identical
     *  with the pass on or off — pinned by the determinism suite. */
    bool compact_summaries = true;
    /** Hash-cons callee-entry instantiations in a sharded cache shared
     *  across all path and SCC workers (summary/inst_cache.h).
     *  Semantically invisible; only instantiation cost changes. */
    bool intern_instantiations = true;
    /** Capacity of the shared instantiation cache (entries). */
    size_t inst_cache_capacity = 1 << 16;
    /** Effect domains to check (summary/domain.h); empty = all declared
     *  domains. Effects of unlisted domains are stripped from computed
     *  summaries and their seed specs are ignored by the classifier, so
     *  enabling only `ref` reproduces the pre-domain run exactly. */
    std::vector<std::string> enabled_domains;
    /** Share one memoized solver-verdict cache (smt/query_cache.h)
     *  between every solver of the run — across SCC-level workers,
     *  path-level workers and the IPP phase. Results are identical with
     *  the cache on or off; only repeated-query cost changes. */
    bool use_query_cache = true;
    /** Capacity of the shared query cache (entries). */
    size_t query_cache_capacity = 1 << 16;
    /** Optional stronger-property check run on every computed summary
     *  (Sections 2.1 / 4.5); its reports are appended to the IPP ones.
     *  See makeEscapeRuleCheck(). */
    SummaryCheck summary_check;
    /** Chrome-trace output path (empty = tracing off). Rid::run()
     *  writes the file; the Analyzer only enables span recording. */
    std::string trace_path;
    /** Prometheus metrics dump path (empty = none); written by
     *  Rid::run() from the run's metrics registry. */
    std::string metrics_path;
    /** Provenance journal path (empty = none). Rid::run() renders every
     *  report's ProvenanceRecord (obs/provenance.h) as a JSONL journal
     *  there; the Analyzer itself only collects the evidence, so the
     *  symbolic-execution phase pays no journal cost. */
    std::string provenance_path;
    /** Rows kept in the post-run analysis profile (0 = no profile). */
    int profile_top_n = 10;
    /** Record one span per solver query (noisy; off by default). */
    bool trace_solver_queries = false;
    /** Injected tracer (tests / embedding). When null, the Analyzer
     *  creates one iff trace_path is set. */
    std::shared_ptr<obs::Tracer> tracer;
    /** Injected metrics registry; a fresh one is created when null.
     *  Counters are cumulative, so share one registry per run if the
     *  derived AnalyzerStats should describe a single run. */
    std::shared_ptr<obs::MetricsRegistry> metrics;
    /** Wall-clock allowance for the whole run (0 = unlimited). Functions
     *  reached after expiry get the default summary and a Timeout
     *  diagnostic; the run itself always completes. */
    double run_deadline_seconds = 0;
    /** Wall-clock allowance per function (0 = unlimited). On expiry the
     *  function's partial, timing-dependent results are discarded and it
     *  is degraded to the default summary (status Timeout). */
    double function_deadline_seconds = 0;
    /** Solver fuel per function: max non-trivial solver queries
     *  (0 = unlimited). Exhaustion degrades like a deadline. */
    uint64_t function_solver_fuel = 0;
    /** Fault-injection spec (obs/failpoint.h grammar, e.g.
     *  "smt.intern@foo=always,frontend.parse=prob@0.1"). Non-empty arms
     *  the process-wide registry in the constructor; empty leaves the
     *  registry untouched (the RID_FAILPOINTS env var is consulted as a
     *  fallback). */
    std::string failpoints;
    /** Seed for prob@P failpoint decisions (deterministic per seed). */
    uint64_t failpoint_seed = 0;
    /** Directory of the durable analysis store (empty = no store).
     *  Consumed by Rid::run(), which opens a store::AnalysisStore there
     *  and injects it as `store`; the Analyzer itself only talks to the
     *  FunctionStore interface. */
    std::string store_path;
    /** Resume from the store: functions whose (body, config) key holds a
     *  committed record replay it and skip symexec; changed or
     *  incomplete functions — and their SCC up-cone — re-execute, and
     *  previously failed ones climb the supervisor's retry ladder. */
    bool resume = false;
    /** The injected store (null = no persistence). */
    std::shared_ptr<FunctionStore> store;
    /** Run the automated triage pass (src/triage/) after analysis:
     *  every report is re-queried at higher abstraction precision and
     *  stamped with a confidence tier and a deterministic rank. Consumed
     *  by Rid::run() (the pass needs the retained source text); the
     *  Analyzer itself ignores it, but the toggle participates in the
     *  store config fingerprint so --resume never replays across a
     *  flip. */
    bool triage = false;
    /** Solver fuel per triaged report and per higher-precision function
     *  re-execution (0 = unlimited). Fuel-only — no wall-clock component
     *  — so triage verdicts stay deterministic. */
    uint64_t triage_fuel = 0;
    /** Caller-extension search depth bound for balanced/Unbalanced
     *  reports (0 disables the downstream-release search). */
    int triage_extension_depth = 2;
    /** Node cap for one extension search. */
    int triage_max_extension_functions = 64;
};

struct AnalyzerStats
{
    ClassifierStats categories;
    size_t functions_analyzed = 0;
    size_t functions_defaulted = 0;
    size_t paths_enumerated = 0;
    size_t entries_computed = 0;
    /** Basic blocks stepped during symbolic execution; each CFG-tree
     *  edge counts once, however many paths share it. */
    size_t blocks_executed = 0;
    /** State-set forks at conditional branches. */
    size_t state_forks = 0;
    /** CFG subtrees skipped because their path condition was
     *  unsatisfiable (pruning enabled only). */
    size_t subtrees_pruned = 0;
    size_t functions_truncated = 0;
    /** Functions degraded to the default summary by budget expiry. */
    size_t functions_timeout = 0;
    /** Functions whose analysis fault was isolated (default summary). */
    size_t functions_degraded = 0;
    /** Functions that faulted outside the guarded analysis path. */
    size_t functions_error = 0;
    double classify_seconds = 0;
    double analyze_seconds = 0;
    /** Wall time of the symbolic-execution phase, summed per function
     *  (parallel sections count once, not per worker). */
    double symexec_seconds = 0;
    /** Wall time of the IPP check-and-merge phase, summed per function. */
    double ipp_seconds = 0;
    /** Callee summary entries instantiated from scratch during symbolic
     *  execution (inst-cache misses when interning is on). */
    size_t entries_instantiated = 0;
    /** Summary entries removed by bottom-up compaction (merged into a
     *  disjunctive sibling or dropped as unsatisfiable). */
    size_t summary_entries_compacted = 0;
    /** Solver counters aggregated over every solver of the run. */
    smt::Solver::Stats solver;
    /** Shared query-cache counters (zero when the cache is off). */
    smt::QueryCache::Stats query_cache;
    /** Shared instantiation-cache counters (zero when interning is
     *  off). */
    summary::InstCache::Stats inst_cache;
    /** Reports per effect domain from the most recent run() (name-
     *  ordered; domains with zero reports are omitted). */
    std::map<std::string, size_t> reports_by_domain;
    /** Durable-store accounting (zero when no store is configured). */
    struct StoreStats
    {
        /** A store was attached to the run. */
        bool active = false;
        /** Functions replayed from the store (symexec skipped). */
        size_t hits = 0;
        /** Resume lookups that had to re-execute (changed key, dirty
         *  SCC cone, incomplete record, or a supervised retry). */
        size_t misses = 0;
        /** Previously failed functions re-run under a laddered budget. */
        size_t retried = 0;
        /** Functions quarantined after exhausting the retry ladder. */
        size_t quarantined = 0;
        /** Frames dropped by the recovery scan (CRC mismatch / torn
         *  tail / undecodable record). */
        size_t torn_frames = 0;
        size_t loaded_records = 0;
        size_t failed_writes = 0;
        uint64_t bytes_appended = 0;

        double hitRate() const
        {
            size_t total = hits + misses;
            return total ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
        }
    } store;
};

class Analyzer
{
  public:
    /**
     * @param mod IR module to analyze (must outlive the Analyzer)
     * @param db  summary database pre-loaded with the refcount API
     *            specifications; computed summaries are added to it
     */
    Analyzer(const ir::Module &mod, summary::SummaryDb &db,
             AnalyzerOptions opts = {});

    /** Run the full pipeline; reports accumulate across calls. */
    void run();

    const std::vector<BugReport> &reports() const { return reports_; }
    const AnalyzerStats &stats() const { return stats_; }

    /** Classification result (valid after run() when classify is on). */
    const FunctionClassifier *classifier() const
    {
        return classifier_.get();
    }

    /** The last run()'s call graph over the module (null before run()). */
    const CallGraph *callGraph() const { return callgraph_.get(); }

    /** The shared solver-verdict cache (null when disabled). */
    const std::shared_ptr<smt::QueryCache> &queryCache() const
    {
        return query_cache_;
    }

    /** The shared instantiation cache (null when interning is off). */
    const std::shared_ptr<summary::InstCache> &instCache() const
    {
        return inst_cache_;
    }

    /** The run's span tracer (null when tracing is off). */
    const std::shared_ptr<obs::Tracer> &tracer() const { return tracer_; }

    /** The run's metrics registry (never null). */
    const std::shared_ptr<obs::MetricsRegistry> &metrics() const
    {
        return metrics_;
    }

    /** Per-function cost records (empty when profile_top_n == 0).
     *  Deterministically ordered by function name. */
    std::vector<obs::FunctionCost> functionCosts() const;

    /** Diagnostics for every function whose status is not Ok,
     *  deterministically ordered by function name. */
    std::vector<FunctionDiagnostic> diagnostics() const;

    /** The run-level budget (valid during and after run(); null before).
     *  Exposed so embedders can cancel() a run cooperatively. */
    const obs::Budget *runBudget() const { return run_budget_.get(); }

  private:
    /** Registry-backed instruments, resolved once in the constructor so
     *  hot paths skip the registry's name lookup. */
    struct Instruments
    {
        obs::Counter *functions_analyzed;
        obs::Counter *functions_defaulted;
        obs::Counter *functions_truncated;
        obs::Counter *functions_timeout;
        obs::Counter *functions_degraded;
        obs::Counter *functions_error;
        obs::Counter *solver_budget_stops;
        obs::Counter *paths_enumerated;
        obs::Counter *entries_computed;
        obs::Counter *blocks_executed;
        obs::Counter *state_forks;
        obs::Counter *subtrees_pruned;
        obs::Counter *entries_instantiated;
        obs::Counter *summary_entries_compacted;
        obs::Counter *solver_queries;
        obs::Counter *solver_theory_checks;
        obs::Counter *solver_branches;
        obs::Counter *solver_unknowns;
        obs::Counter *solver_cache_hits;
        obs::Counter *solver_cache_misses;
        obs::Counter *solver_solve_ns;
        obs::Gauge *classify_seconds;
        obs::Gauge *analyze_seconds;
        obs::Histogram *paths_per_function;
        obs::Histogram *symexec_seconds;
        obs::Histogram *ipp_seconds;
        obs::Histogram *solver_query_seconds;
        /** Store instruments; null when no store is configured. */
        obs::Counter *store_hits = nullptr;
        obs::Counter *store_misses = nullptr;
        obs::Counter *store_retries = nullptr;
        obs::Counter *store_quarantined = nullptr;
        obs::Counter *store_torn_frames = nullptr;
        obs::Histogram *store_record_bytes = nullptr;
    };

    /** Analyze one function and store its summary; returns its reports.
     *  Never throws: faults and budget expiry degrade the function to the
     *  default summary and a diagnostic. @p deadline_seconds / @p fuel
     *  form the function budget (normally the run's options; the
     *  supervisor's retry ladder passes reduced values). */
    std::vector<BugReport> analyzeFunction(const ir::Function &fn,
                                           double deadline_seconds,
                                           uint64_t fuel);

    /** The fault-susceptible body of analyzeFunction. */
    std::vector<BugReport> analyzeFunctionGuarded(const ir::Function &fn,
                                                  const obs::Budget &budget);

    /** Store the conservative default summary for @p fn, bypassing any
     *  armed failpoints (recovery must not be re-injected). */
    void storeDefaultSummary(const ir::Function &fn);

    void recordDiagnostic(FunctionDiagnostic d);

    /** A solver wired to the run's cache, latency histogram, query
     *  tracing option and (optionally) a budget. */
    smt::Solver makeSolver(const obs::Budget *budget = nullptr) const;

    /** Add one (sub)run's solver counters to the registry. */
    void addSolverStats(const smt::Solver::Stats &s);

    /** Derive the legacy AnalyzerStats counters from the registry. */
    void refreshStatsFromRegistry();

    /** Persist one function's outcome to the store (no-op without one).
     *  Never throws; a storage fault is the store's to absorb. */
    void recordToStore(const ir::Function &fn, FnStatus status,
                       const std::string &reason, bool defaulted,
                       const summary::FunctionSummary *summary,
                       const std::vector<BugReport> &reports);

    const ir::Module &mod_;
    summary::SummaryDb &db_;
    AnalyzerOptions opts_;
    /** Per-run snapshot of the db's declared effect domains. */
    summary::DomainTable domain_table_;
    std::vector<BugReport> reports_;
    AnalyzerStats stats_;
    /** The run's call graph; classifier_ refers to it. */
    std::unique_ptr<CallGraph> callgraph_;
    std::unique_ptr<FunctionClassifier> classifier_;
    std::shared_ptr<smt::QueryCache> query_cache_;
    std::shared_ptr<summary::InstCache> inst_cache_;
    std::shared_ptr<obs::Tracer> tracer_;
    std::shared_ptr<obs::MetricsRegistry> metrics_;
    Instruments ins_;
    std::vector<obs::FunctionCost> function_costs_;
    std::vector<FunctionDiagnostic> diagnostics_;
    std::unique_ptr<obs::Budget> run_budget_;
    std::mutex stats_mutex_;
    /** Durable store (null = persistence off) and its config key part. */
    std::shared_ptr<FunctionStore> store_;
    uint64_t store_config_fp_ = 0;
    /** Resume plan built bottom-up over the call graph before the
     *  traversal: per call-graph node, what to do with it (empty when not
     *  resuming). Read-only (per-node moves aside) during the traversal,
     *  so workers need no lock. */
    std::vector<FunctionStore::Action> resume_plan_;
    /** Store ioStats() snapshot already synced into the registry (keeps
     *  repeated run() calls from double-counting). */
    FunctionStore::IoStats store_io_synced_;
};

} // namespace rid::analysis

#endif // RID_ANALYSIS_ANALYZER_H
