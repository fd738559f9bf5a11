/**
 * @file
 * Post-run cost attribution: the "analysis profile".
 *
 * Path-sensitive analyses concentrate their cost in a handful of
 * pathological functions; knowing which ones is the prerequisite for
 * every targeted optimisation. The analyzer records one FunctionCost
 * per analyzed function (paths, summary entries, per-phase wall time,
 * solver time and query count); buildProfile() ranks them and keeps the
 * top N, which RunResult surfaces after every run.
 *
 * Ranking is by total wall time (symexec + ipp), with solver time, path
 * count and finally name as deterministic tie-breakers.
 */

#ifndef RID_OBS_PROFILE_H
#define RID_OBS_PROFILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace rid::obs {

/** Per-function cost record collected during analysis. */
struct FunctionCost
{
    std::string name;
    uint64_t paths = 0;
    uint64_t entries = 0;
    bool truncated = false;
    double symexec_seconds = 0;
    double ipp_seconds = 0;
    double solver_seconds = 0;
    uint64_t solver_queries = 0;
    /** Basic blocks stepped during symbolic execution (each CFG-tree
     *  edge once). */
    uint64_t blocks_executed = 0;
    /** State-set forks at conditional branches. */
    uint64_t forks = 0;
    /** CFG subtrees skipped on an unsatisfiable path condition. */
    uint64_t subtrees_pruned = 0;
    /** Callee summary entries instantiated from scratch (inst-cache
     *  misses when interning is on). */
    uint64_t entries_instantiated = 0;

    double totalSeconds() const { return symexec_seconds + ipp_seconds; }
};

struct AnalysisProfile
{
    /** Hottest functions, ranked; at most the requested top-N. */
    std::vector<FunctionCost> top;
    /** How many functions were ranked (before top-N truncation). */
    size_t functions_ranked = 0;
    double total_seconds = 0;
    double solver_seconds = 0;
    uint64_t paths_total = 0;

    /** Human-readable table (one line per ranked function). */
    std::string str() const;

    /** JSON object; spliced into RunResult::statsJson(). */
    std::string json() const;
};

/** Rank @p costs and keep the @p top_n hottest (0 = empty profile). */
AnalysisProfile buildProfile(std::vector<FunctionCost> costs,
                             size_t top_n);

} // namespace rid::obs

#endif // RID_OBS_PROFILE_H
