#include "analysis/analyzer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>

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
    if (opts_.use_query_cache) {
        smt::QueryCache::Options cache_opts;
        cache_opts.capacity = opts_.query_cache_capacity;
        query_cache_ = std::make_shared<smt::QueryCache>(cache_opts);
    }
    if (opts_.intern_instantiations) {
        summary::InstCache::Options inst_opts;
        inst_opts.capacity = opts_.inst_cache_capacity;
        inst_cache_ = std::make_shared<summary::InstCache>(inst_opts);
    }
    tracer_ = opts_.tracer;
    if (!tracer_ && !opts_.trace_path.empty())
        tracer_ = std::make_shared<obs::Tracer>();
    metrics_ = opts_.metrics ? opts_.metrics
                             : std::make_shared<obs::MetricsRegistry>();

    auto &m = *metrics_;
    ins_.functions_analyzed = &m.counter(
        "rid_functions_analyzed_total", "Functions fully analyzed.");
    ins_.functions_defaulted =
        &m.counter("rid_functions_defaulted_total",
                   "Functions given the default summary unanalyzed.");
    ins_.functions_truncated =
        &m.counter("rid_functions_truncated_total",
                   "Functions whose path/subcase caps truncated analysis.");
    ins_.functions_timeout =
        &m.counter("rid_functions_timeout_total",
                   "Functions degraded to the default summary by budget "
                   "expiry.");
    ins_.functions_degraded =
        &m.counter("rid_functions_degraded_total",
                   "Functions whose analysis fault was isolated.");
    ins_.functions_error =
        &m.counter("rid_functions_error_total",
                   "Functions that faulted outside the guarded analysis.");
    ins_.solver_budget_stops =
        &m.counter("rid_solver_budget_stops_total",
                   "Solver queries answered Unknown by budget expiry.");
    ins_.paths_enumerated = &m.counter("rid_paths_enumerated_total",
                                       "Entry-to-exit paths enumerated.");
    ins_.entries_computed =
        &m.counter("rid_entries_computed_total",
                   "Path summary entries computed before IPP merging.");
    ins_.blocks_executed =
        &m.counter("rid_blocks_executed_total",
                   "Basic blocks stepped during symbolic execution.");
    ins_.state_forks =
        &m.counter("rid_state_forks_total",
                   "State-set forks at conditional branches "
                   "(prefix-sharing engine).");
    ins_.subtrees_pruned =
        &m.counter("rid_subtrees_pruned_total",
                   "CFG subtrees skipped on an unsatisfiable path "
                   "condition (prefix-sharing engine).");
    ins_.entries_instantiated =
        &m.counter("rid_entries_instantiated_total",
                   "Callee summary entries instantiated from scratch "
                   "(inst-cache misses when interning is on).");
    ins_.summary_entries_compacted =
        &m.counter("rid_summary_entries_compacted_total",
                   "Summary entries merged or dropped by bottom-up "
                   "compaction before entering the database.");
    ins_.solver_queries =
        &m.counter("rid_solver_queries_total", "Solver check() calls.");
    ins_.solver_theory_checks = &m.counter(
        "rid_solver_theory_checks_total", "Theory-core conjunction checks.");
    ins_.solver_branches = &m.counter("rid_solver_branches_total",
                                      "Solver branch enumerations.");
    ins_.solver_unknowns = &m.counter("rid_solver_unknowns_total",
                                      "Solver Unknown results.");
    ins_.solver_cache_hits = &m.counter(
        "rid_solver_cache_hits_total", "Queries answered by the cache.");
    ins_.solver_cache_misses =
        &m.counter("rid_solver_cache_misses_total",
                   "Non-trivial queries that missed the cache.");
    ins_.solver_solve_ns =
        &m.counter("rid_solver_solve_ns_total",
                   "Wall nanoseconds spent inside solver check().");
    ins_.classify_seconds = &m.gauge(
        "rid_classify_seconds", "Wall time of the classification phase.");
    ins_.analyze_seconds = &m.gauge(
        "rid_analyze_seconds", "Wall time of the bottom-up analysis.");
    ins_.paths_per_function =
        &m.histogram("rid_paths_per_function",
                     "Enumerated paths per analyzed function.",
                     obs::pathCountBuckets());
    ins_.symexec_seconds =
        &m.histogram("rid_symexec_seconds",
                     "Per-function symbolic-execution phase wall time.");
    ins_.ipp_seconds = &m.histogram(
        "rid_ipp_seconds", "Per-function IPP check-and-merge wall time.");
    ins_.solver_query_seconds = &m.histogram(
        "rid_solver_query_seconds", "Solver query latency (seconds).");

    store_ = opts_.store;
    if (store_) {
        store_config_fp_ = store_->configFingerprint();
        ins_.store_hits =
            &m.counter("rid_store_hits_total",
                       "Functions replayed from the analysis store "
                       "(symexec skipped).");
        ins_.store_misses =
            &m.counter("rid_store_misses_total",
                       "Store lookups that fell back to re-analysis.");
        ins_.store_retries =
            &m.counter("rid_store_retries_total",
                       "Previously failed functions re-run under a "
                       "supervisor-laddered budget.");
        ins_.store_quarantined =
            &m.counter("rid_store_quarantined_total",
                       "Functions quarantined after exhausting the retry "
                       "ladder.");
        ins_.store_torn_frames =
            &m.counter("rid_store_torn_frames_total",
                       "Store frames dropped by the recovery scan.");
        ins_.store_record_bytes =
            &m.histogram("rid_store_record_bytes",
                         "Bytes appended to the store per function record.",
                         obs::byteSizeBuckets());
    }

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
    solver.attachLatencyHistogram(ins_.solver_query_seconds);
    solver.attachBudget(budget);
    return solver;
}

void
Analyzer::addSolverStats(const smt::Solver::Stats &s)
{
    ins_.solver_queries->inc(s.queries);
    ins_.solver_theory_checks->inc(s.theory_checks);
    ins_.solver_branches->inc(s.branches);
    ins_.solver_unknowns->inc(s.unknowns);
    ins_.solver_cache_hits->inc(s.cache_hits);
    ins_.solver_cache_misses->inc(s.cache_misses);
    ins_.solver_solve_ns->inc(s.solve_ns);
    ins_.solver_budget_stops->inc(s.budget_stops);
}

void
Analyzer::refreshStatsFromRegistry()
{
    stats_.functions_analyzed = ins_.functions_analyzed->value();
    stats_.functions_defaulted = ins_.functions_defaulted->value();
    stats_.functions_truncated = ins_.functions_truncated->value();
    stats_.functions_timeout = ins_.functions_timeout->value();
    stats_.functions_degraded = ins_.functions_degraded->value();
    stats_.functions_error = ins_.functions_error->value();
    stats_.paths_enumerated = ins_.paths_enumerated->value();
    stats_.entries_computed = ins_.entries_computed->value();
    stats_.blocks_executed = ins_.blocks_executed->value();
    stats_.state_forks = ins_.state_forks->value();
    stats_.subtrees_pruned = ins_.subtrees_pruned->value();
    stats_.entries_instantiated = ins_.entries_instantiated->value();
    stats_.summary_entries_compacted =
        ins_.summary_entries_compacted->value();
    stats_.symexec_seconds = ins_.symexec_seconds->sum();
    stats_.ipp_seconds = ins_.ipp_seconds->sum();
    stats_.solver.queries = ins_.solver_queries->value();
    stats_.solver.theory_checks = ins_.solver_theory_checks->value();
    stats_.solver.branches = ins_.solver_branches->value();
    stats_.solver.unknowns = ins_.solver_unknowns->value();
    stats_.solver.cache_hits = ins_.solver_cache_hits->value();
    stats_.solver.cache_misses = ins_.solver_cache_misses->value();
    stats_.solver.solve_ns = ins_.solver_solve_ns->value();
    stats_.solver.budget_stops = ins_.solver_budget_stops->value();
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
Analyzer::storeDefaultSummary(const ir::Function &fn)
{
    // Recovery must not be re-injected: building the default entry interns
    // expressions, which is itself a failpoint site.
    obs::FailpointSuppressScope suppress;
    db_.addComputed(summary::FunctionSummary::defaultFor(
        fn.name(), fn.returnsValue()));
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
    if (n > 0 && ins_.store_record_bytes)
        ins_.store_record_bytes->observe(static_cast<double>(n));
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
        storeDefaultSummary(fn);
        ins_.functions_degraded->inc();
        recordDiagnostic({fn.name(), FnStatus::Degraded, e.what()});
        recordToStore(fn, FnStatus::Degraded, e.what(), false, nullptr, {});
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
        addSolverStats(fn_solver_stats);
        storeDefaultSummary(fn);
        ins_.functions_timeout->inc();
        std::string reason = std::string("budget: ") +
                             obs::budgetStopName(fn_budget.stopReason());
        recordDiagnostic({fn.name(), FnStatus::Timeout, reason});
        recordToStore(fn, FnStatus::Timeout, reason, false, nullptr, {});
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
        tree_opts.path_threads = opts_.path_threads;
        tree_opts.tracer = tracer_.get();
        tree_opts.inst_cache = inst_cache_.get();
        if (opts_.path_threads > 1)
            tree_opts.make_solver = [this, budget]() {
                return makeSolver(budget);
            };
        tree = executeFunctionTree(fn, db_, solver, tree_opts);
    }
    double symexec_seconds = secondsSince(symexec_t0);
    fn_solver_stats += tree.worker_solver_stats;
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
        summary::SummaryEntry dflt;
        dflt.cons = smt::Formula::top();
        if (fn.returnsValue())
            dflt.ret = smt::Expr::ret();
        summary.entries.push_back(std::move(dflt));
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
    if (opts_.compact_summaries) {
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
    ins_.functions_analyzed->inc();
    ins_.paths_enumerated->inc(num_paths);
    ins_.entries_computed->inc(num_entries);
    ins_.blocks_executed->inc(tree.blocks_executed);
    ins_.state_forks->inc(tree.forks);
    ins_.subtrees_pruned->inc(tree.subtrees_pruned);
    ins_.entries_instantiated->inc(tree.entries_instantiated);
    ins_.summary_entries_compacted->inc(compaction.merged +
                                        compaction.dropped);
    if (truncated) {
        ins_.functions_truncated->inc();
        recordDiagnostic({fn.name(), FnStatus::Truncated, trunc_reason});
    }
    ins_.paths_per_function->observe(static_cast<double>(num_paths));
    ins_.symexec_seconds->observe(symexec_seconds);
    ins_.ipp_seconds->observe(ipp_seconds);
    addSolverStats(fn_solver_stats);

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
    stats_.classify_seconds = secondsSince(t0);
    ins_.classify_seconds->set(stats_.classify_seconds);
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
                ins_.store_hits->inc();
                if (action.defaulted) {
                    storeDefaultSummary(*fn);
                    ins_.functions_defaulted->inc();
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
                ins_.store_quarantined->inc();
                storeDefaultSummary(*fn);
                ins_.functions_degraded->inc();
                recordDiagnostic(
                    {fn->name(), FnStatus::Degraded, action.note});
                return {};
            }
            if (store_ && tracked[node])
                ins_.store_misses->inc();

            if (!shouldAnalyze(node, *fn)) {
                if (tracked[node]) {
                    storeDefaultSummary(*fn);
                    ins_.functions_defaulted->inc();
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
                storeDefaultSummary(*fn);
                ins_.functions_timeout->inc();
                std::string reason =
                    std::string("run budget: ") +
                    obs::budgetStopName(run_budget_->stopReason());
                recordDiagnostic({fn->name(), FnStatus::Timeout, reason});
                recordToStore(*fn, FnStatus::Timeout, reason, false,
                              nullptr, {});
                return {};
            }
            double deadline = opts_.function_deadline_seconds;
            uint64_t fuel = opts_.function_solver_fuel;
            if (action.plan == FunctionStore::Plan::Retry) {
                ins_.store_retries->inc();
                deadline = action.retry_deadline_seconds;
                fuel = action.retry_fuel;
            }
            return analyzeFunction(*fn, deadline, fuel);
        } catch (const std::exception &e) {
            // Last-resort isolation for faults outside the guarded
            // analysis path (classification, summary storage, ...).
            if (tracked[node])
                storeDefaultSummary(*fn);
            ins_.functions_error->inc();
            recordDiagnostic({fn->name(), FnStatus::Error, e.what()});
            recordToStore(*fn, FnStatus::Error, e.what(), false, nullptr,
                          {});
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
    stats_.analyze_seconds = secondsSince(t1);
    ins_.analyze_seconds->set(stats_.analyze_seconds);
    refreshStatsFromRegistry();
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
    if (query_cache_) {
        stats_.query_cache = query_cache_->stats();
        const auto &qc = stats_.query_cache;
        metrics_
            ->gauge("rid_query_cache_hits",
                    "Shared query-cache hits (snapshot).")
            .set(static_cast<double>(qc.hits));
        metrics_
            ->gauge("rid_query_cache_misses",
                    "Shared query-cache misses (snapshot).")
            .set(static_cast<double>(qc.misses));
        metrics_
            ->gauge("rid_query_cache_entries",
                    "Resident query-cache entries.")
            .set(static_cast<double>(qc.entries));
        metrics_
            ->gauge("rid_query_cache_evictions",
                    "Query-cache evictions (snapshot).")
            .set(static_cast<double>(qc.evictions));
    }
    if (inst_cache_) {
        stats_.inst_cache = inst_cache_->stats();
        const auto &ic = stats_.inst_cache;
        metrics_
            ->gauge("rid_inst_cache_hits",
                    "Shared instantiation-cache hits (snapshot).")
            .set(static_cast<double>(ic.hits));
        metrics_
            ->gauge("rid_inst_cache_misses",
                    "Shared instantiation-cache misses (snapshot).")
            .set(static_cast<double>(ic.misses));
        metrics_
            ->gauge("rid_inst_cache_entries",
                    "Resident instantiation-cache entries.")
            .set(static_cast<double>(ic.entries));
        metrics_
            ->gauge("rid_inst_cache_evictions",
                    "Instantiation-cache evictions (snapshot).")
            .set(static_cast<double>(ic.evictions));
    }
    if (store_) {
        FunctionStore::IoStats io = store_->ioStats();
        // Sync by delta against the last snapshot: repeated run() calls
        // against one Analyzer must not double-count.
        ins_.store_torn_frames->inc(io.torn_frames -
                                    store_io_synced_.torn_frames);
        store_io_synced_ = io;
        stats_.store.active = true;
        stats_.store.hits = ins_.store_hits->value();
        stats_.store.misses = ins_.store_misses->value();
        stats_.store.retried = ins_.store_retries->value();
        stats_.store.quarantined = ins_.store_quarantined->value();
        stats_.store.torn_frames = io.torn_frames;
        stats_.store.loaded_records = io.loaded_records;
        stats_.store.failed_writes = io.failed_writes;
        stats_.store.bytes_appended = io.bytes_appended;
    }
}

} // namespace rid::analysis
