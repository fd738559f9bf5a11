/**
 * @file
 * Durable analysis store tests: WAL framing and recovery at every
 * truncation point, the supervisor's retry/quarantine ladder, and the
 * crash-safety contract end to end through the Rid façade — a killed
 * (truncated) store resumes to reports byte-identical to a cold run,
 * corruption falls back to clean re-analysis of only the affected keys,
 * and a config change invalidates every key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rid.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "obs/failpoint.h"
#include "obs/provenance.h"
#include "store/store.h"
#include "store/supervisor.h"
#include "store/wal.h"
#include "summary/spec.h"

namespace rid {
namespace {

namespace fs = std::filesystem;

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A fresh, empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "rid_store_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// ------------------------------------------------------------------ WAL

TEST(Wal, FramesRoundTripThroughScan)
{
    std::string log = store::encodeWalHeader();
    log += store::encodeWalFrame(1, "hello");
    log += store::encodeWalFrame(2, "");
    log += store::encodeWalFrame(1, std::string(1000, 'x'));

    store::WalScan scan = store::scanWal(log);
    EXPECT_TRUE(scan.header_ok);
    ASSERT_EQ(scan.frames.size(), 3u);
    EXPECT_EQ(scan.frames[0].type, 1);
    EXPECT_EQ(scan.frames[0].payload, "hello");
    EXPECT_EQ(scan.frames[0].offset, store::kWalHeaderSize);
    EXPECT_EQ(scan.frames[1].type, 2);
    EXPECT_TRUE(scan.frames[1].payload.empty());
    EXPECT_EQ(scan.frames[2].payload.size(), 1000u);
    EXPECT_EQ(scan.torn_frames, 0u);
    EXPECT_EQ(scan.durable_size, log.size());
}

TEST(Wal, TornTailIsDroppedAtEveryCutPoint)
{
    std::string log = store::encodeWalHeader();
    std::vector<size_t> frame_ends;
    for (int k = 0; k < 4; k++) {
        log += store::encodeWalFrame(1, "payload-" + std::to_string(k));
        frame_ends.push_back(log.size());
    }
    // Kill the writer at every byte offset: the scan must recover
    // exactly the frames wholly before the cut and report the tail torn.
    for (size_t cut = store::kWalHeaderSize; cut < log.size(); cut++) {
        store::WalScan scan = store::scanWal(log.substr(0, cut));
        ASSERT_TRUE(scan.header_ok) << "cut " << cut;
        size_t complete = 0;
        while (complete < frame_ends.size() &&
               frame_ends[complete] <= cut)
            complete++;
        EXPECT_EQ(scan.frames.size(), complete) << "cut " << cut;
        EXPECT_LE(scan.durable_size, cut) << "cut " << cut;
        if (complete < frame_ends.size() &&
            (complete == 0 ? store::kWalHeaderSize
                           : frame_ends[complete - 1]) < cut) {
            EXPECT_GE(scan.torn_frames, 1u) << "cut " << cut;
        }
    }
}

TEST(Wal, CorruptMiddleFrameIsSkippedAndResynced)
{
    std::string log = store::encodeWalHeader();
    log += store::encodeWalFrame(1, "first");
    size_t second_at = log.size();
    log += store::encodeWalFrame(1, "second");
    log += store::encodeWalFrame(1, "third");

    // Flip one payload byte of the middle frame: its CRC no longer
    // matches, the scan skips forward to the next frame magic, and only
    // that one record is lost.
    std::string corrupt = log;
    corrupt[second_at + store::kFrameHeaderSize] ^= 0x40;
    store::WalScan scan = store::scanWal(corrupt);
    EXPECT_TRUE(scan.header_ok);
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.frames[0].payload, "first");
    EXPECT_EQ(scan.frames[1].payload, "third");
    EXPECT_GE(scan.torn_frames, 1u);
    EXPECT_EQ(scan.durable_size, corrupt.size());
}

TEST(Wal, BadHeaderYieldsNoFrames)
{
    EXPECT_FALSE(store::scanWal("").header_ok);
    EXPECT_FALSE(store::scanWal("short").header_ok);

    std::string wrong_magic = store::encodeWalHeader();
    wrong_magic[0] = 'X';
    wrong_magic += store::encodeWalFrame(1, "data");
    store::WalScan scan = store::scanWal(wrong_magic);
    EXPECT_FALSE(scan.header_ok);
    EXPECT_TRUE(scan.frames.empty());

    std::string wrong_version = store::encodeWalHeader();
    wrong_version[8] = 0x7f; // version u32 lives at offset 8
    wrong_version += store::encodeWalFrame(1, "data");
    EXPECT_FALSE(store::scanWal(wrong_version).header_ok);
}

TEST(WalWriter, ResumeTruncatesTornTailAndContinues)
{
    std::string dir = freshDir("walwriter");
    std::string path = dir + "/test.wal";

    store::WalWriter writer;
    ASSERT_TRUE(writer.open(path, /*fresh=*/true));
    ASSERT_TRUE(writer.appendFrame(1, "alpha"));
    ASSERT_TRUE(writer.appendFrame(1, "beta"));
    ASSERT_TRUE(writer.sync());
    writer.close();

    // Simulate a kill mid-append: garbage (a partial frame) at the tail.
    std::string bytes = slurpFile(path);
    writeFile(path, bytes + "RIDF\x01partial");

    store::WalScan scan = store::scanWal(slurpFile(path));
    ASSERT_TRUE(scan.header_ok);
    EXPECT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.durable_size, bytes.size());

    // Reopening at durable_size drops the torn tail; new appends land
    // cleanly after the surviving frames.
    store::WalWriter resumed;
    ASSERT_TRUE(resumed.open(path, /*fresh=*/false, scan.durable_size));
    ASSERT_TRUE(resumed.appendFrame(1, "gamma"));
    ASSERT_TRUE(resumed.sync());
    resumed.close();

    store::WalScan after = store::scanWal(slurpFile(path));
    ASSERT_EQ(after.frames.size(), 3u);
    EXPECT_EQ(after.frames[2].payload, "gamma");
    EXPECT_EQ(after.torn_frames, 0u);
}

// ----------------------------------------------------------- supervisor

TEST(Supervisor, CleanOutcomesAreLoadEligible)
{
    for (analysis::FnStatus s :
         {analysis::FnStatus::Ok, analysis::FnStatus::Truncated}) {
        store::SupervisorDecision d =
            store::superviseResume({s, 0, ""}, 10.0, 1000);
        EXPECT_EQ(d.kind, store::SupervisorDecision::Kind::LoadEligible);
    }
}

TEST(Supervisor, FailuresClimbTheHalvingLadder)
{
    auto retry = [](uint32_t attempts) {
        return store::superviseResume(
            {analysis::FnStatus::Timeout, attempts, "budget: deadline"},
            8.0, 1600);
    };
    store::SupervisorDecision first = retry(1);
    EXPECT_EQ(first.kind, store::SupervisorDecision::Kind::Retry);
    EXPECT_DOUBLE_EQ(first.retry_deadline_seconds, 4.0);
    EXPECT_EQ(first.retry_fuel, 800u);

    store::SupervisorDecision second = retry(2);
    EXPECT_EQ(second.kind, store::SupervisorDecision::Kind::Retry);
    EXPECT_DOUBLE_EQ(second.retry_deadline_seconds, 2.0);
    EXPECT_EQ(second.retry_fuel, 400u);
}

TEST(Supervisor, UnbudgetedRunsRetryUnderTheFallbackCaps)
{
    // A previously hung function must not run unbounded again even when
    // the run itself configures no budget.
    store::SupervisorDecision d = store::superviseResume(
        {analysis::FnStatus::Error, 1, "boom"}, 0, 0);
    ASSERT_EQ(d.kind, store::SupervisorDecision::Kind::Retry);
    store::SupervisorPolicy defaults;
    EXPECT_DOUBLE_EQ(d.retry_deadline_seconds,
                     defaults.fallback_deadline_seconds / 2);
    EXPECT_EQ(d.retry_fuel, defaults.fallback_fuel / 2);
    EXPECT_GT(d.retry_fuel, 0u);
}

TEST(Supervisor, LadderExhaustionQuarantinesWithAProvenanceNote)
{
    store::SupervisorDecision d = store::superviseResume(
        {analysis::FnStatus::Degraded, 3, "injected fault"}, 10.0, 1000);
    EXPECT_EQ(d.kind, store::SupervisorDecision::Kind::Quarantine);
    EXPECT_NE(d.note.find("quarantined after 3 failed attempt(s)"),
              std::string::npos)
        << d.note;
    EXPECT_NE(d.note.find("degraded"), std::string::npos) << d.note;
    EXPECT_NE(d.note.find("injected fault"), std::string::npos) << d.note;
}

// ------------------------------------------------------------ barriers

/** Frame types of a log, in order. */
std::vector<uint8_t>
frameTypes(const std::string &log)
{
    std::vector<uint8_t> types;
    for (const auto &frame : store::scanWal(log).frames)
        types.push_back(frame.type);
    return types;
}

TEST(StoreBarrier, CheckpointWithNothingNewIsSkipped)
{
    std::string dir = freshDir("barrier_skip");
    store::AnalysisStore::Options opts;
    opts.path = dir;
    store::AnalysisStore st(opts);
    const std::string &log = st.logPath();
    const auto cp = store::kFrameCheckpoint;
    const auto fn = store::kFrameFunction;

    // The first barrier commits even with no frame (it covers the
    // header); a second one with nothing new writes nothing.
    st.checkpoint(0);
    st.checkpoint(1);
    EXPECT_EQ(frameTypes(slurpFile(log)), (std::vector<uint8_t>{cp}));

    // A recorded frame is covered by the next barrier, and only once.
    ASSERT_GT(st.record({"f", 1, 2}, analysis::FnStatus::Ok, "", true,
                        nullptr, {}),
              0u);
    st.checkpoint(2);
    st.checkpoint(3);
    EXPECT_EQ(frameTypes(slurpFile(log)),
              (std::vector<uint8_t>{cp, fn, cp}));
    EXPECT_EQ(st.ioStats().failed_writes, 0u);

    // Reopening for resume starts a new barrier window: the first
    // barrier commits again, covering the recovered log.
    opts.resume = true;
    store::AnalysisStore resumed(opts);
    resumed.checkpoint(0);
    resumed.checkpoint(1);
    EXPECT_EQ(frameTypes(slurpFile(log)),
              (std::vector<uint8_t>{cp, fn, cp, cp}));
}

// --------------------------------------------------- config fingerprint

TEST(StoreConfig, FingerprintTracksSpecsAndOutputAffectingOptions)
{
    summary::SummaryDb empty_db, dpm_db;
    summary::loadSpecsInto(kernel::dpmSpecText(), dpm_db);
    analysis::AnalyzerOptions opts;

    uint64_t base = store::configFingerprint(dpm_db, opts);
    EXPECT_EQ(base, store::configFingerprint(dpm_db, opts));
    EXPECT_NE(base, store::configFingerprint(empty_db, opts));

    analysis::AnalyzerOptions capped = opts;
    capped.max_paths = 7;
    EXPECT_NE(base, store::configFingerprint(dpm_db, capped));

    analysis::AnalyzerOptions filtered = opts;
    filtered.enabled_domains = {"ref"};
    EXPECT_NE(base, store::configFingerprint(dpm_db, filtered));

    // Thread/cache toggles are pinned output-identical by the
    // determinism suite and must NOT invalidate the store.
    analysis::AnalyzerOptions engine = opts;
    engine.threads = 4;
    engine.use_query_cache = false;
    EXPECT_EQ(base, store::configFingerprint(dpm_db, engine));
}

TEST(StoreConfig, DefaultFingerprintIsPinned)
{
    // Every stored record is keyed by this value. Adding a hashed option
    // is a deliberate format change; removing an unhashed one must leave
    // it alone, or every existing store silently misses on its next
    // --resume.
    summary::SummaryDb dpm_db;
    summary::loadSpecsInto(kernel::dpmSpecText(), dpm_db);
    EXPECT_EQ(obs::fpHex(store::configFingerprint(
                  dpm_db, analysis::AnalyzerOptions{})),
              "0x4baba43a0b4bfcbb");
}

// ----------------------------------------------------------- end to end

class StoreEndToEnd : public ::testing::Test
{
  protected:
    static kernel::Corpus corpus_;

    static void
    SetUpTestSuite()
    {
        corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
    }

    void TearDown() override
    {
        obs::FailpointRegistry::instance().disarm();
    }

    static std::unique_ptr<Rid>
    makeTool(const std::string &store_dir, bool resume,
             const std::string &failpoints = "")
    {
        analysis::AnalyzerOptions opts;
        opts.store_path = store_dir;
        opts.resume = resume;
        opts.failpoints = failpoints;
        auto tool = std::make_unique<Rid>(opts);
        tool->loadSpecText(kernel::dpmSpecText());
        for (const auto &file : corpus_.files)
            tool->addSource(file.text);
        return tool;
    }

    /** Byte-identity oracle: the full provenance journal of a run. */
    static std::string
    journalOf(const RunResult &result)
    {
        return obs::renderJournal(provenanceRecords(result));
    }

    /**
     * The determinism-suite digest: sorted report multiset, computed
     * summaries, diagnostics. Unlike the journal it excludes per-query
     * cache-hit evidence, which legitimately differs between a cold run
     * and a partial resume (replayed functions issue no queries, so the
     * shared cache is warmer or colder when re-executed functions run).
     */
    static std::string
    digestOf(const Rid &tool, const RunResult &result)
    {
        std::multiset<std::string> lines;
        for (const auto &report : result.reports)
            lines.insert(report.str());
        std::string out;
        for (const auto &line : lines)
            out += line + "\n";
        out += "--- summaries ---\n";
        out += tool.exportSummaries();
        out += "--- diagnostics ---\n";
        for (const auto &d : result.diagnostics)
            out += d.function + " " + analysis::fnStatusName(d.status) +
                   " " + d.reason + "\n";
        return out;
    }
};

kernel::Corpus StoreEndToEnd::corpus_;

TEST_F(StoreEndToEnd, WarmResumeReplaysEverythingByteIdentically)
{
    // Baseline without any store.
    Rid plain;
    plain.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        plain.addSource(file.text);
    RunResult plain_result = plain.run();
    ASSERT_FALSE(plain_result.reports.empty());
    std::string oracle = journalOf(plain_result);

    // Cold store run: recording must not perturb analysis.
    std::string dir = freshDir("warm_resume");
    auto cold = makeTool(dir, /*resume=*/false);
    RunResult cold_result = cold->run();
    EXPECT_EQ(journalOf(cold_result), oracle);
    ASSERT_TRUE(cold_result.stats.store.active);
    EXPECT_EQ(cold_result.stats.store.hits, 0u);
    EXPECT_GT(cold_result.stats.store.misses, 0u);
    EXPECT_GT(cold_result.stats.store.bytes_appended, 0u);
    EXPECT_EQ(cold_result.stats.store.failed_writes, 0u);

    // Warm resume on the unchanged corpus: every tracked function
    // replays — hit rate 1.0, zero symbolic execution, and the reports
    // (and their journal) are byte-identical.
    auto warm = makeTool(dir, /*resume=*/true);
    RunResult warm_result = warm->run();
    EXPECT_EQ(journalOf(warm_result), oracle);
    ASSERT_TRUE(warm_result.stats.store.active);
    EXPECT_GT(warm_result.stats.store.hits, 0u);
    EXPECT_EQ(warm_result.stats.store.misses, 0u);
    EXPECT_DOUBLE_EQ(warm_result.stats.store.hitRate(), 1.0);
    EXPECT_EQ(warm_result.stats.functions_analyzed, 0u);
    EXPECT_EQ(warm_result.stats.symexec_seconds, 0.0);
    EXPECT_GT(warm_result.stats.store.loaded_records, 0u);

    // The diagnostics (e.g. truncation notes) replay too: RunResult
    // surfaces the same per-function records either way.
    EXPECT_EQ(warm_result.diagnostics.size(),
              cold_result.diagnostics.size());
}

TEST_F(StoreEndToEnd, KilledRunResumesToByteIdenticalReports)
{
    std::string dir = freshDir("kill_resume_seed");
    auto cold = makeTool(dir, /*resume=*/false);
    RunResult cold_result = cold->run();
    std::string oracle = digestOf(*cold, cold_result);
    ASSERT_FALSE(cold_result.reports.empty());

    std::string wal = slurpFile(dir + "/analysis.wal");
    ASSERT_GT(wal.size(), store::kWalHeaderSize);

    // A SIGKILL leaves an arbitrary prefix of the log. Model it as
    // truncation at several fractions (including cuts landing mid-frame)
    // and require every resume to reproduce the cold run byte for byte.
    for (double frac : {0.25, 0.5, 0.8, 0.97}) {
        auto cut = static_cast<size_t>(
            static_cast<double>(wal.size()) * frac);
        if (cut < store::kWalHeaderSize)
            cut = store::kWalHeaderSize;
        std::string dir_k =
            freshDir("kill_resume_" + std::to_string(cut));
        writeFile(dir_k + "/analysis.wal", wal.substr(0, cut));

        auto resumed = makeTool(dir_k, /*resume=*/true);
        RunResult result = resumed->run();
        EXPECT_EQ(digestOf(*resumed, result), oracle) << "cut at " << cut;
        ASSERT_TRUE(result.stats.store.active);
        // The surviving prefix is real work saved; the lost tail is
        // re-executed.
        if (cut > wal.size() / 3) {
            EXPECT_GT(result.stats.store.hits, 0u) << "cut at " << cut;
        }
        EXPECT_GT(result.stats.store.misses, 0u) << "cut at " << cut;
    }
}

TEST_F(StoreEndToEnd, FlippedCrcByteFallsBackOnlyForTheAffectedKeys)
{
    std::string dir = freshDir("crc_flip_seed");
    auto cold = makeTool(dir, /*resume=*/false);
    std::string oracle = digestOf(*cold, cold->run());

    std::string wal_path = dir + "/analysis.wal";
    std::string wal = slurpFile(wal_path);
    store::WalScan scan = store::scanWal(wal);
    ASSERT_GT(scan.frames.size(), 4u);

    // Flip one payload byte of a mid-log frame: exactly the records the
    // corruption lands in are dropped; everything else still replays.
    const store::WalFrame &victim = scan.frames[scan.frames.size() / 2];
    wal[victim.offset + store::kFrameHeaderSize] ^= 0x01;
    std::string dir_c = freshDir("crc_flip");
    writeFile(dir_c + "/analysis.wal", wal);

    auto resumed = makeTool(dir_c, /*resume=*/true);
    RunResult result = resumed->run();
    EXPECT_EQ(digestOf(*resumed, result), oracle);
    ASSERT_TRUE(result.stats.store.active);
    EXPECT_GT(result.stats.store.torn_frames, 0u);
    EXPECT_GT(result.stats.store.hits, 0u);
    EXPECT_GT(result.stats.store.misses, 0u);
}

TEST_F(StoreEndToEnd, WrongVersionHeaderStartsFreshAndRerunsCleanly)
{
    std::string dir = freshDir("wrong_version");
    auto cold = makeTool(dir, /*resume=*/false);
    std::string oracle = journalOf(cold->run());

    std::string wal_path = dir + "/analysis.wal";
    std::string wal = slurpFile(wal_path);
    wal[8] = 0x7f; // version field
    writeFile(wal_path, wal);

    auto resumed = makeTool(dir, /*resume=*/true);
    RunResult result = resumed->run();
    EXPECT_EQ(journalOf(result), oracle);
    ASSERT_TRUE(result.stats.store.active);
    // Nothing in an unknown-version log is trusted: no records load,
    // everything re-analyzes.
    EXPECT_EQ(result.stats.store.loaded_records, 0u);
    EXPECT_EQ(result.stats.store.hits, 0u);
    EXPECT_GT(result.stats.store.misses, 0u);
}

TEST_F(StoreEndToEnd, StaleConfigFingerprintMissesEveryKey)
{
    std::string dir = freshDir("stale_config");
    auto cold = makeTool(dir, /*resume=*/false);
    cold->run();

    // Same corpus, different output-affecting configuration: every key's
    // config fingerprint mismatches, so nothing replays and the run
    // re-analyzes cleanly under the new options.
    analysis::AnalyzerOptions opts;
    opts.store_path = dir;
    opts.resume = true;
    opts.max_paths = 37;
    Rid changed(opts);
    changed.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        changed.addSource(file.text);
    RunResult result = changed.run();
    ASSERT_TRUE(result.stats.store.active);
    EXPECT_GT(result.stats.store.loaded_records, 0u);
    EXPECT_EQ(result.stats.store.hits, 0u);
    EXPECT_GT(result.stats.store.misses, 0u);

    // And the re-analysis matches a cold run under the same new options.
    analysis::AnalyzerOptions fresh_opts;
    fresh_opts.max_paths = 37;
    Rid fresh(fresh_opts);
    fresh.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        fresh.addSource(file.text);
    EXPECT_EQ(journalOf(result), journalOf(fresh.run()));
}

TEST_F(StoreEndToEnd, ChangedFunctionAndItsCallersReexecute)
{
    const char *v1 = R"(
int helper(struct device *d, int x) {
    int s;
    s = pm_runtime_get_sync(d);
    if (x < 0) {
        pm_runtime_put(d);
        return -1;
    }
    return 0;
}
int caller(struct device *d, int x) {
    int r;
    r = helper(d, x);
    if (r)
        return r;
    pm_runtime_put(d);
    return 0;
}
int unrelated(struct device *d) {
    int t;
    t = pm_runtime_get_sync(d);
    pm_runtime_put(d);
    return 0;
}
)";
    // v2 edits only `helper` (an extra statement changes its body
    // fingerprint without changing behavior).
    const char *v2 = R"(
int helper(struct device *d, int x) {
    int s;
    int note;
    note = x;
    s = pm_runtime_get_sync(d);
    if (note < 0) {
        pm_runtime_put(d);
        return -1;
    }
    return 0;
}
int caller(struct device *d, int x) {
    int r;
    r = helper(d, x);
    if (r)
        return r;
    pm_runtime_put(d);
    return 0;
}
int unrelated(struct device *d) {
    int t;
    t = pm_runtime_get_sync(d);
    pm_runtime_put(d);
    return 0;
}
)";
    auto scan = [](const std::string &dir, bool resume,
                   const char *source) {
        analysis::AnalyzerOptions opts;
        opts.store_path = dir;
        opts.resume = resume;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(source);
        return tool.run();
    };

    std::string dir = freshDir("upcone");
    scan(dir, false, v1);

    RunResult result = scan(dir, true, v2);
    ASSERT_TRUE(result.stats.store.active);
    // `helper` changed, so it re-executes — and `caller` sits in its
    // up-cone (its recorded reports could depend on helper's summary),
    // so it must re-execute too. `unrelated` replays.
    EXPECT_EQ(result.stats.store.hits, 1u);
    EXPECT_EQ(result.stats.store.misses, 2u);
    EXPECT_EQ(result.stats.functions_analyzed, 2u);
}

TEST_F(StoreEndToEnd, UnchangedWarmResumeAppendsOnlyOneCheckpoint)
{
    std::string dir = freshDir("warm_barrier");
    makeTool(dir, /*resume=*/false)->run();
    std::string cold = slurpFile(dir + "/analysis.wal");

    // Every function replays, so no function frame is appended and only
    // the run's first barrier (covering the recovered log) commits.
    RunResult warm = makeTool(dir, /*resume=*/true)->run();
    EXPECT_EQ(warm.stats.store.misses, 0u);
    std::string after = slurpFile(dir + "/analysis.wal");
    ASSERT_EQ(after.compare(0, cold.size(), cold), 0)
        << "the resume rewrote the cold log";
    std::vector<uint8_t> added = frameTypes(after);
    added.erase(added.begin(), added.begin() + frameTypes(cold).size());
    EXPECT_EQ(added, (std::vector<uint8_t>{store::kFrameCheckpoint}));
    EXPECT_EQ(warm.stats.store.bytes_appended,
              store::kFrameHeaderSize + 16);
}

TEST_F(StoreEndToEnd, EditedFunctionFrameIsFollowedByACheckpoint)
{
    const char *v1 = R"(
int helper(struct device *d, int x) {
    int s;
    s = pm_runtime_get_sync(d);
    if (x < 0) {
        pm_runtime_put(d);
        return -1;
    }
    return 0;
}
int unrelated(struct device *d) {
    int t;
    t = pm_runtime_get_sync(d);
    pm_runtime_put(d);
    return 0;
}
)";
    // v2 edits only `helper`; its body fingerprint changes.
    const char *v2 = R"(
int helper(struct device *d, int x) {
    int s;
    int note;
    note = x;
    s = pm_runtime_get_sync(d);
    if (x < 0) {
        pm_runtime_put(d);
        return -1;
    }
    return 0;
}
int unrelated(struct device *d) {
    int t;
    t = pm_runtime_get_sync(d);
    pm_runtime_put(d);
    return 0;
}
)";
    auto scan = [](const std::string &dir, bool resume,
                   const char *source) {
        analysis::AnalyzerOptions opts;
        opts.store_path = dir;
        opts.resume = resume;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(source);
        return tool.run();
    };

    std::string dir = freshDir("edit_barrier");
    scan(dir, false, v1);
    size_t before = store::scanWal(slurpFile(dir + "/analysis.wal"))
                        .frames.size();

    RunResult result = scan(dir, true, v2);
    EXPECT_EQ(result.stats.store.misses, 1u);
    store::WalScan after = store::scanWal(slurpFile(dir + "/analysis.wal"));
    ASSERT_EQ(after.frames.size(), before + 2);
    // The edited function's frame, then the barrier that syncs it.
    const store::WalFrame &frame = after.frames[before];
    EXPECT_EQ(frame.type, store::kFrameFunction);
    EXPECT_EQ(frame.payload.compare(4, 6, "helper"), 0);
    EXPECT_EQ(after.frames[before + 1].type, store::kFrameCheckpoint);
}

TEST_F(StoreEndToEnd, FailingFunctionClimbsTheLadderIntoQuarantine)
{
    const char *source = R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
int victim_fn(struct usb_interface *interface) {
    int result;
    result = usb_autopm_get_interface(interface);
    if (result < 0)
        return result;
    usb_autopm_put_interface(interface);
    return 0;
}
void usb_autopm_put_interface(struct usb_interface *i);
)";
    const std::string fault = "analysis.symexec.path@victim_fn=always";
    auto scan = [&](bool resume, const std::string &failpoints) {
        analysis::AnalyzerOptions opts;
        opts.store_path = testing::TempDir() + "rid_store_ladder";
        opts.resume = resume;
        opts.failpoints = failpoints;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(source);
        RunResult result = tool.run();
        obs::FailpointRegistry::instance().disarm();
        return result;
    };
    fs::remove_all(testing::TempDir() + "rid_store_ladder");

    // Attempt 1 (cold): the injected fault degrades the victim.
    RunResult first = scan(false, fault);
    ASSERT_EQ(first.stats.functions_degraded, 1u);

    // Attempts 2 and 3 (resume): the supervisor retries under a halved
    // budget each time; the fault keeps firing.
    for (int attempt = 2; attempt <= 3; attempt++) {
        RunResult retry = scan(true, fault);
        EXPECT_EQ(retry.stats.store.retried, 1u) << "attempt " << attempt;
        EXPECT_EQ(retry.stats.store.quarantined, 0u);
        EXPECT_EQ(retry.stats.functions_degraded, 1u);
    }

    // Attempt 4: the ladder is exhausted — quarantined, a Degraded
    // diagnostic carries the provenance note, symexec never runs.
    RunResult fourth = scan(true, fault);
    EXPECT_EQ(fourth.stats.store.quarantined, 1u);
    EXPECT_EQ(fourth.stats.store.retried, 0u);
    bool noted = false;
    for (const auto &d : fourth.diagnostics) {
        if (d.function == "victim_fn") {
            EXPECT_EQ(d.status, analysis::FnStatus::Degraded);
            EXPECT_NE(d.reason.find("quarantined after 3 failed"),
                      std::string::npos)
                << d.reason;
            noted = true;
        }
    }
    EXPECT_TRUE(noted);

    // Even with the fault gone, the quarantine stands: the function is
    // not silently re-admitted (demote, don't delete — re-admission
    // needs a body/config change or a fresh store).
    RunResult fifth = scan(true, "");
    EXPECT_EQ(fifth.stats.store.quarantined, 1u);
    for (const auto &d : fifth.diagnostics) {
        if (d.function == "victim_fn") {
            EXPECT_EQ(d.status, analysis::FnStatus::Degraded);
        }
    }
}

TEST_F(StoreEndToEnd, StoreWriteFaultsNeverAlterAnalysisResults)
{
    // Baseline without a store.
    Rid plain;
    plain.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        plain.addSource(file.text);
    std::string oracle = journalOf(plain.run());

    // Every append faults; the run must be oblivious (results identical,
    // faults absorbed and counted).
    std::string dir = freshDir("append_fault");
    auto tool = makeTool(dir, /*resume=*/false, "store.append=always");
    RunResult result = tool->run();
    EXPECT_EQ(journalOf(result), oracle);
    ASSERT_TRUE(result.stats.store.active);
    EXPECT_GT(result.stats.store.failed_writes, 0u);
    EXPECT_EQ(result.stats.functions_degraded, 0u);
    EXPECT_EQ(result.stats.functions_error, 0u);
}

} // namespace
} // namespace rid
