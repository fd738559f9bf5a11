/**
 * @file
 * Path summary calculation by symbolic execution (Section 4.4).
 *
 * A state is (ip, cons, changes, return, vmap). Instructions are
 * evaluated as in Figure 6; call instructions instantiate the callee's
 * summary entries and fork one state per satisfiable entry (Algorithm 1).
 * When a Return executes, the state becomes a summary entry: the return
 * value is bound to the atom [0], conditions on local state are projected
 * out (by equality substitution where possible, otherwise by dropping the
 * literal — a sound weakening), and the entry is recorded.
 */

#ifndef RID_ANALYSIS_SYMEXEC_H
#define RID_ANALYSIS_SYMEXEC_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/paths.h"
#include "ir/function.h"
#include "smt/solver.h"
#include "summary/db.h"
#include "summary/inst_cache.h"

namespace rid::obs {
class Tracer;
}

namespace rid::analysis {

struct ExecOptions
{
    /** Cap on summary entries produced from a single path ("subcases" in
     *  the paper's configuration; default 10 — Section 6.1). */
    int max_subcases = 10;
};

struct ExecResult
{
    std::vector<summary::SummaryEntry> entries;
    /** True if max_subcases truncated the expansion. */
    bool truncated = false;
    /** Basic blocks stepped while executing this path. A shared prefix
     *  is re-stepped once per path; the tree executor's counter
     *  measures the redundancy it removes. */
    uint64_t blocks_executed = 0;
};

/**
 * Execute one path of @p fn symbolically and produce its summary entries.
 * States whose constraint becomes unsatisfiable are dropped.
 *
 * This is the reference executor: the analyzer never calls it.
 * enumeratePaths + executePath per path is the plain statement of the
 * path-summary semantics that the tests hold executeFunctionTree to
 * (DESIGN.md, "Equivalence").
 *
 * @param fn      the function (definition)
 * @param path    the block sequence to follow
 * @param path_index index recorded in entry provenance
 * @param db      summary database for callee lookup; callees without a
 *                summary get the default (no change, unconstrained)
 * @param solver  satisfiability checker used for pruning
 */
ExecResult executePath(const ir::Function &fn, const Path &path,
                       int path_index, const summary::SummaryDb &db,
                       smt::Solver &solver, const ExecOptions &opts);

/**
 * Project local state out of an entry constraint: rewrite Local/Temp
 * atoms into argument/return terms where an equality in @p cons allows
 * it, then drop any literal still mentioning local state. Exposed for
 * testing and used by executePath().
 */
smt::Formula projectLocals(const smt::Formula &cons);

/** Options of the prefix-sharing tree executor. */
struct TreeExecOptions
{
    /** Cap on summary entries produced from a single path and on live
     *  states per path ("subcases" in the paper's configuration;
     *  default 10 — Section 6.1). */
    int max_subcases = 10;
    /** Prune a state as soon as its condition becomes unsatisfiable;
     *  with prefix sharing this also skips the whole CFG subtree below
     *  an infeasible branch side. */
    bool prune_infeasible = true;
    /** Optional cooperative budget checked once per executed tree node;
     *  expiry stops execution and sets TreeExecResult::deadline_hit. Not
     *  owned; must outlive the call. */
    const obs::Budget *budget = nullptr;
    /** Cap on completed paths; with pruning enabled only feasible
     *  completed paths count against it. */
    int max_paths = 100;
    /** Loop unrolling: max times one block may appear on a path. */
    int max_visits = 2;
    /** Worker threads for subtree-level parallelism (<=1: sequential). */
    int path_threads = 1;
    /** Per-worker solver factory; required when path_threads > 1 (the
     *  shared caller solver is not thread-safe). */
    std::function<smt::Solver()> make_solver;
    /** Tracer re-established inside each worker thread; may be null. */
    obs::Tracer *tracer = nullptr;
    /** Optional shared callee-instantiation cache (summary/inst_cache.h);
     *  null instantiates every call entry from scratch. Semantically
     *  invisible either way. The cache is thread-safe and shared across
     *  path workers. Not owned; must outlive the call. */
    summary::InstCache *inst_cache = nullptr;
};

/** The summary entries of one completed feasible path, in the order
 *  executePath would emit them. */
struct PathOutcome
{
    std::vector<summary::SummaryEntry> entries;
};

struct TreeExecResult
{
    /** Completed paths in DFS order — outcome i holds exactly the
     *  entries executePath would produce for the i-th feasible path. */
    std::vector<PathOutcome> completed;
    /** A deterministic cap (max_paths or max_subcases) cut the tree. */
    bool truncated = false;
    /** Specifically the feasible-path cap was consumed (drives the
     *  enriched truncation diagnostic). */
    bool path_cap_hit = false;
    /** Budget expired mid-tree; results are partial and timing-dependent
     *  and must be discarded by the caller. */
    bool deadline_hit = false;
    /** Basic blocks stepped (each CFG-tree edge once). */
    uint64_t blocks_executed = 0;
    /** State-set forks performed at conditional branches. */
    uint64_t forks = 0;
    /** Branch sides (and mid-block state-set deaths) skipped because the
     *  path condition became unsatisfiable. */
    uint64_t subtrees_pruned = 0;
    /** Callee summary entries instantiated from scratch (inst-cache
     *  misses when a cache is attached; every call entry without). */
    uint64_t entries_instantiated = 0;
    /** Aggregated stats of per-worker solvers (path_threads > 1); the
     *  caller's own solver accumulates sequential work as usual. */
    smt::Solver::Stats worker_solver_stats;
};

/**
 * Execute every path of @p fn in one depth-first walk of the CFG tree,
 * forking state at conditional branches instead of replaying shared
 * prefixes per path. With pruning on and below the path cap, equivalent
 * to enumeratePaths + executePath per path: completed outcomes appear in
 * enumeration order and concatenate to the same entry list (infeasible
 * paths contribute no entries under either executor). With path_threads > 1, independent subtrees execute
 * on worker threads and are merged back in deterministic DFS order.
 */
TreeExecResult executeFunctionTree(const ir::Function &fn,
                                   const summary::SummaryDb &db,
                                   smt::Solver &solver,
                                   const TreeExecOptions &opts);

} // namespace rid::analysis

#endif // RID_ANALYSIS_SYMEXEC_H
