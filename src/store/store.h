/**
 * @file
 * Durable analysis store: crash-safe summaries, reports and statuses.
 *
 * AnalysisStore implements analysis::FunctionStore over the CRC32-framed
 * WAL (store/wal.h). One function frame atomically carries a function's
 * complete outcome — its FnStatus, attempt count, diagnostic reason,
 * computed summary (spec-text payload, the same codec as
 * Rid::exportSummaries) and fully round-tripped bug reports — keyed by
 * (body fingerprint, spec/domain-config fingerprint). Checkpoint frames
 * are durability barriers: everything before one is fsync'd. A barrier
 * with nothing new to cover (no frame appended since the previous one)
 * writes and syncs nothing; the first barrier after opening always
 * commits.
 *
 * Opening with resume runs the recovery scan: torn tails are dropped,
 * corrupt frames are skipped (and counted), and the surviving last
 * record per function becomes the resume state. Lookup consults the
 * supervisor (store/supervisor.h) so previously failed functions climb
 * the retry/quarantine ladder instead of replaying or re-running
 * unbounded. Format details and recovery semantics: docs/STORE.md.
 */

#ifndef RID_STORE_STORE_H
#define RID_STORE_STORE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.h"
#include "store/supervisor.h"
#include "store/wal.h"

namespace rid::store {

/** WAL frame types. */
constexpr uint8_t kFrameFunction = 1;
constexpr uint8_t kFrameCheckpoint = 2;

/**
 * Fingerprint of everything besides the function body that determines a
 * function's analysis output: the declared effect domains, every
 * predefined/imported summary, and the output-affecting AnalyzerOptions
 * (caps, classification, drop seed, enabled domains, summary-check
 * presence). A stale fingerprint misses every key, falling back to
 * clean re-analysis. Thread/cache toggles are excluded — the
 * determinism suite pins them output-identical.
 */
uint64_t configFingerprint(const summary::SummaryDb &db,
                           const analysis::AnalyzerOptions &opts);

class AnalysisStore : public analysis::FunctionStore
{
  public:
    struct Options
    {
        /** Store directory (created if missing); the log lives at
         *  <path>/analysis.wal. */
        std::string path;
        /** Keep the existing log and recover from it; false truncates
         *  and starts fresh. */
        bool resume = false;
        uint64_t config_fp = 0;
        SupervisorPolicy policy;
    };

    /** Open (and, with resume, recover) the store.
     *  @throws std::runtime_error when the directory/log can't be
     *          created — a store the user asked for must not silently
     *          degrade to no persistence. */
    explicit AnalysisStore(Options opts);

    // analysis::FunctionStore
    uint64_t configFingerprint() const override { return opts_.config_fp; }
    Action lookup(const Key &key, const LookupContext &ctx,
                  const summary::DomainTable &domains) override;
    size_t record(const Key &key, analysis::FnStatus status,
                  const std::string &reason, bool defaulted,
                  const summary::FunctionSummary *summary,
                  const std::vector<analysis::BugReport> &reports) override;
    void checkpoint(uint64_t tag) override;
    IoStats ioStats() const override;

    /** Committed function records recovered at open (resume only). */
    size_t recoveredFunctions() const;

    /** The log file path (tests corrupt it directly). */
    const std::string &logPath() const { return log_path_; }

  private:
    /** In-memory image of the last surviving record per function. */
    struct Entry
    {
        uint64_t body_fp = 0;
        uint64_t config_fp = 0;
        analysis::FnStatus status = analysis::FnStatus::Ok;
        bool defaulted = false;
        uint32_t attempts = 0;
        std::string reason;
        bool has_summary = false;
        std::string summary_text;
        std::string reports_blob;
    };

    void applyFrame(const WalFrame &frame);

    Options opts_;
    std::string log_path_;
    WalWriter writer_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    IoStats io_;
    /** True while log bytes exist that no barrier covers: the header or
     *  recovered tail before the first barrier, then any frame append. */
    bool barrier_pending_ = true;
};

} // namespace rid::store

#endif // RID_STORE_STORE_H
