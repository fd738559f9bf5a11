/**
 * @file
 * Thread-safe database of function summaries.
 *
 * Predefined (API specification) summaries take precedence over computed
 * ones and are never overwritten; computed summaries are inserted as the
 * bottom-up traversal completes each function (Section 4.2). Summaries can
 * be saved to and loaded from disk for the separate-compilation workflow
 * of Section 5.3.
 */

#ifndef RID_SUMMARY_DB_H
#define RID_SUMMARY_DB_H

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "summary/domain.h"
#include "summary/summary.h"

namespace rid::summary {

class SummaryDb
{
  public:
    SummaryDb() = default;

    /** Register an effect domain (idempotent for identical policies).
     *  @return false if the name is already declared with a different
     *  policy (the declaration is then ignored). */
    bool declareDomain(const DomainInfo &info);

    /** Snapshot of the declared effect domains. */
    DomainTable domains() const;

    /** Register an API specification summary (wins over computed ones). */
    void addPredefined(FunctionSummary s);

    /** Store a computed summary; no-op if a predefined one exists. */
    void addComputed(FunctionSummary s);

    /** As addComputed() with the default summary (Section 5.2): one
     *  shared, nameless object per return kind, never a copy. */
    void addDefault(const std::string &fn, bool returns_value);

    /** Look up a summary; predefined beats computed. */
    const FunctionSummary *find(const std::string &fn) const;

    bool hasPredefined(const std::string &fn) const;

    /** Names of all functions with predefined summaries. */
    std::vector<std::string> predefinedNames() const;

    /** Names of all known summaries (predefined or computed/imported)
     *  whose entries change a counter in @p enabled_domains (empty = any
     *  domain) — the classifier's seed set. */
    std::vector<std::string>
    namesWithChanges(const std::vector<std::string> &enabled_domains = {})
        const;

    size_t size() const;

    /**
     * Serialize all computed summaries, name-sorted, in the spec format
     * understood by loadSpecFile() (predefined ones are configuration, not
     * results, and are not saved). A default is written under the name
     * it was added for. Sorted output makes the export byte-identical
     * across runs and thread counts.
     */
    std::string saveComputed() const;

  private:
    mutable std::shared_mutex mutex_;
    DomainTable domains_;
    std::unordered_map<std::string, FunctionSummary> predefined_;
    /** Computed and imported summaries; defaults share one object. */
    std::unordered_map<std::string, std::shared_ptr<const FunctionSummary>>
        computed_;
};

} // namespace rid::summary

#endif // RID_SUMMARY_DB_H
