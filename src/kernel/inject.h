/**
 * @file
 * LAVA-style ground-truth bug injection (cf. SNIPPETS.md snippet 1).
 *
 * Each recipe rewrites one known-clean generated function into a buggy
 * variant and records exact ground truth: (function, domain, kind,
 * path). A candidate is only admitted after the viability filter
 * re-analyzes the rewritten function and confirms the injected bug is
 * reachable — a feasible path exists whose net effect in the recipe's
 * domain is nonzero on a non-escaping counter — so recall scored
 * against the injection log never counts unreachable bugs.
 */

#ifndef RID_KERNEL_INJECT_H
#define RID_KERNEL_INJECT_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kernel/generator.h"

namespace rid::kernel {

/** The injection recipes. */
enum class InjectionKind : uint8_t {
    /** Delete the balancing put on the error path of a correct get/put
     *  driver: the Figure 8 missing-decrement shape. */
    MissingDecOnError,
    /** Insert a second increment on the error path: the count drifts up
     *  by one every time the operation fails. */
    DoubleInc,
    /** Delete the unlock on the error path of a get-under-lock region:
     *  the function returns with the lock still held. */
    LeakedAcquireUnderLock,
    /** Delete the put on the error path of a get-under-lock region: a
     *  refcount taken under a lock leaks on failure. */
    RefLeakUnderLock,
    /** Delete the kfree on the error path of a lock-held allocation:
     *  the buffer leaks while the lock is correctly released. */
    AllocLeakUnderLock,
};

const char *injectionKindName(InjectionKind k);

/** The clean pattern a recipe rewrites. */
PatternKind injectionHostKind(InjectionKind k);

/** The effect domain the injected bug lives in. */
const char *injectionDomain(InjectionKind k);

/** Exact ground truth for one admitted injection. */
struct Injection
{
    std::string function;
    std::string domain;
    InjectionKind kind;
    PatternKind host;
    /** Human-readable descriptor of the buggy path. */
    std::string path;
    /** 1-based line of the rewrite site within the generated function's
     *  source snippet. */
    int line = 0;
};

class InjectionEngine
{
  public:
    struct Stats
    {
        int attempted = 0;
        int applied = 0;
        /** The recipe's textual anchor was not found in the host. */
        int rejected_rewrite = 0;
        /** Rewrite succeeded but the bug is unreachable. */
        int rejected_unviable = 0;
    };

    /**
     * Apply @p kind to @p gen in place. On success the function source
     * is the buggy variant, its truth records injected/has_bug, and
     * @p out (if non-null) receives the ground-truth record. Returns
     * false — leaving @p gen untouched — when the rewrite anchor is
     * missing or the viability filter rejects the candidate.
     */
    bool inject(InjectionKind kind, GeneratedFunction &gen,
                Injection *out = nullptr);

    const Stats &stats() const { return stats_; }

    /**
     * The viability filter: compile @p source standalone, symbolically
     * execute the paths of @p function (one tree walk) with the bundled
     * ref/lock/alloc specs loaded, and accept iff some feasible path
     * has a nonzero net change on a non-Ret-rooted counter in
     * @p domain. This checks reachability of the injected bug, not
     * whether RID's pairing logic will report it — so scored recall
     * remains a real measurement.
     */
    static bool viable(const std::string &source,
                       const std::string &function,
                       const std::string &domain);

  private:
    Stats stats_;
};

/** How many injections of each recipe to attempt. */
struct InjectionPlan
{
    std::map<InjectionKind, int> counts;

    int total() const;

    /** A plan proportional to the host populations of @p mix: each
     *  recipe targets a quarter of its host kind's instances, so
     *  recipes sharing a host (the two CorrectGetPut ones) together
     *  rewrite at most half and the rest stays clean. */
    static InjectionPlan calibrated(const CorpusMix &mix);
};

/** Injection log of one generated corpus. */
struct InjectionLog
{
    std::vector<Injection> injections;
    InjectionEngine::Stats stats;
};

/**
 * Streaming variant of generateInjectedCorpus: the same deterministic
 * layout as generateCorpusSharded, with the plan's recipes applied
 * greedily to matching clean hosts as they are emitted. @p log receives
 * the admitted injections in emission order.
 */
void generateInjectedCorpusSharded(
    const CorpusMix &mix, const InjectionPlan &plan, uint64_t seed,
    const ShardOptions &opts,
    const std::function<void(CorpusShard &&)> &sink, InjectionLog &log);

/** A fully resident injected corpus (smoke-scale runs and tests). */
struct InjectedCorpus
{
    Corpus corpus;
    std::vector<Injection> injections;
    InjectionEngine::Stats stats;
};

InjectedCorpus generateInjectedCorpus(const CorpusMix &mix,
                                      const InjectionPlan &plan,
                                      uint64_t seed = 0x101);

} // namespace rid::kernel

#endif // RID_KERNEL_INJECT_H
