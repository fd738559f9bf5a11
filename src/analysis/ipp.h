/**
 * @file
 * Inconsistent path pair checking (Step III, Section 4.5).
 *
 * Given the path summaries of one function, any two entries whose
 * constraints are jointly satisfiable but whose refcount changes differ
 * form an inconsistent path pair: there is an argument/return-value
 * assignment under which both paths are feasible and indistinguishable
 * from outside, yet they change a refcount differently — a refcount bug
 * no matter which path reflects the intended behaviour (Section 3.2).
 *
 * For each IPP one entry is dropped (the paper drops randomly; we use a
 * seeded RNG so runs are reproducible) to avoid cascading reports at call
 * sites. Consistent overlapping entries with identical changes are merged
 * with disjunction. The surviving set is the function summary.
 */

#ifndef RID_ANALYSIS_IPP_H
#define RID_ANALYSIS_IPP_H

#include <cstdint>
#include <string>
#include <vector>

#include "smt/solver.h"
#include "summary/summary.h"

namespace rid::analysis {

/** How a counter misbehaved; which checks run on a counter is selected
 *  by its effect domain's policy (summary/domain.h). */
enum class BugKind : uint8_t {
    /** Two outside-indistinguishable paths changed it differently (the
     *  paper's inconsistent-path-pair check; `ipp` policy). */
    Inconsistent,
    /** One path returns with a nonzero net change (`balanced` policy:
     *  e.g. a lock still held, an allocation neither freed nor
     *  returned). Only the _a fields are populated. */
    Unbalanced,
};

/**
 * Confidence tier assigned by the automated triage pass (src/triage/).
 * Reports are demoted, never deleted: a Refuted report stays in the
 * output, ranked last. Untriaged (the default) keeps pre-triage runs
 * byte-identical — tier and rank render only once triage has run.
 * Semantics: docs/TRIAGE.md.
 */
enum class Tier : uint8_t {
    Untriaged = 0,  ///< triage did not run (or has not reached this report)
    Confirmed,      ///< witness reproduced at higher precision (decisive)
    Unverified,     ///< triage could not decide (fault, budget, truncation,
                    ///< missing source, non-re-derivable report kind)
    LowConfidence,  ///< witness survives only via Unknown verdicts, or a
                    ///< bounded extension search found a downstream release
    Refuted,        ///< complete higher-precision re-execution dissolved
                    ///< the witness
};

/** Stable slug ("confirmed", "unverified", "low-confidence", "refuted",
 *  "untriaged") used by report_format, provenance and ridc. */
const char *tierName(Tier t);

/** Parse a tierName() slug. @return false if @p name is unknown */
bool tierOf(const std::string &name, Tier &out);

/** One reported bug on a tracked counter. */
struct BugReport
{
    std::string function;
    /** The counter, rendered (e.g. "[dev].pm"). */
    std::string refcount;
    /** Effect domain of the counter ("ref" for refcounts). */
    std::string domain = summary::kRefDomain;
    BugKind kind = BugKind::Inconsistent;
    /** Net changes along the two paths (Unbalanced: only delta_a). */
    int delta_a = 0;
    int delta_b = 0;
    /** Rendered constraints of the two entries. */
    std::string cons_a, cons_b;
    /** Source lines of counter-changing calls on each path. */
    std::vector<int> lines_a, lines_b;
    /** Return statement lines of the two paths. */
    int return_line_a = 0, return_line_b = 0;

    /** Stable 64-bit report identity (0 until stamped by the analyzer):
     *  function body fingerprint x domain x counter x kind x witness
     *  shape. Byte-stable across thread counts and cache settings; the
     *  cross-run dedup key of `ridc diff-runs`. */
    uint64_t fingerprint = 0;
    /** ir::Function::fingerprint() of the reported function. */
    uint64_t function_fp = 0;
    /** Solver queries that decided this report: the IPP overlap check,
     *  or the path-feasibility check for must-analysis Unbalanced
     *  reports. Evidence only — excluded from the fingerprint, since
     *  cache hit/miss varies with run configuration. */
    std::vector<smt::QueryInfo> queries;
    /** Callee-summary instantiation chains of the two witness paths. */
    std::vector<std::string> callees_a, callees_b;

    /** Triage verdict (Untriaged until the triage pass runs). Excluded
     *  from the fingerprint: the report's identity is its witness shape,
     *  so a tier flip shows up as `reclassified` in diff-runs, not as a
     *  new + resolved pair. */
    Tier tier = Tier::Untriaged;
    /** 1-based deterministic rank among the run's reports (0 until
     *  triage runs): confirmed first, refuted last, ties broken by
     *  (function, domain, counter, kind, fingerprint). */
    int rank = 0;

    std::string str() const;

    /** Derive the stable report fingerprint from the witness shape.
     *  Deterministic function of fields the determinism suite already
     *  pins byte-identical across threads/cache configs. */
    uint64_t computeFingerprint(uint64_t function_fingerprint) const;
};

struct IppOptions
{
    /** Seed for the drop-one-of-the-pair choice (legacy mode only). */
    uint64_t drop_seed = 0x5eed;
    /** Replace the paper's seeded-random drop with a deterministic
     *  choice that minimizes cross-domain information loss: of the
     *  inconsistent pair, drop the entry more of whose (domain,
     *  counter) keys are still covered by the surviving entries, so the
     *  summary keeps a witness for as many counters as possible. Ties
     *  drop the later entry. Removes every drop_seed dependence from
     *  outputs; the seeded path is kept for differential testing. */
    bool deterministic_drop = true;
    /** Declared effect domains; null means every domain is checked with
     *  the default `ipp` policy (pre-domain behavior). */
    const summary::DomainTable *domains = nullptr;
    /** Domains to check; null or empty enables all. Effects of disabled
     *  domains are stripped from the computed summary entries. */
    const std::vector<std::string> *enabled_domains = nullptr;
};

struct IppResult
{
    std::vector<BugReport> reports;
    /** Surviving, merged entries — the function summary. */
    std::vector<summary::SummaryEntry> entries;
};

/**
 * Check path summaries of @p function for inconsistencies and build the
 * function summary from the consistent remainder.
 */
IppResult checkAndMerge(const std::string &function,
                        std::vector<summary::SummaryEntry> entries,
                        smt::Solver &solver, const IppOptions &opts = {});

} // namespace rid::analysis

#endif // RID_ANALYSIS_IPP_H
