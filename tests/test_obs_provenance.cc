/**
 * @file
 * Tests for report provenance (obs/provenance.h): fingerprint rendering,
 * journal round-trips, the explain narrative, run diffing, the
 * exit-flush registry, and the end-to-end journal written by Rid::run()
 * over the injected smoke corpus — every report must round-trip through
 * `ridc explain`-style rendering, and diff-runs must partition a mutated
 * corpus into new/resolved/persisting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "baseline/cpychecker.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "kernel/inject.h"
#include "kernel/score.h"
#include "core/report_format.h"
#include "obs/provenance.h"
#include "obs_test_util.h"

namespace rid {
namespace {

obs::ProvenanceRecord
sampleRecord(uint64_t fp = 0x1234)
{
    obs::ProvenanceRecord r;
    r.tool = "rid";
    r.function = "idmouse_open";
    r.function_fp = 0xabcdef0123456789ull;
    r.fingerprint = fp;
    r.domain = "ref";
    r.kind = "inconsistent";
    r.counter = "[interface].pm";
    r.path_a.cons = "(ret(usb_autopm_get_interface) != 0)";
    r.path_a.delta = 1;
    r.path_a.lines = {3, 7};
    r.path_a.return_line = 12;
    r.path_a.callees = {"usb_autopm_get_interface"};
    r.has_path_b = true;
    r.path_b.cons = "true";
    r.path_b.delta = 0;
    r.path_b.return_line = 12;
    obs::QueryRecord q;
    q.fingerprint = 0x42;
    q.result = "sat";
    q.cache_hit = true;
    q.fuel = 1;
    r.queries.push_back(q);
    r.status = "ok";
    return r;
}

TEST(ProvenanceFp, HexRoundTrip)
{
    EXPECT_EQ(obs::fpHex(0), "0x0000000000000000");
    EXPECT_EQ(obs::fpHex(0xdeadbeefull), "0x00000000deadbeef");
    uint64_t out = 0;
    ASSERT_TRUE(obs::parseFp("0x00000000deadbeef", out));
    EXPECT_EQ(out, 0xdeadbeefull);
    ASSERT_TRUE(obs::parseFp("DEADBEEF", out));
    EXPECT_EQ(out, 0xdeadbeefull);
    ASSERT_TRUE(obs::parseFp(obs::fpHex(~0ull), out));
    EXPECT_EQ(out, ~0ull);
    EXPECT_FALSE(obs::parseFp("", out));
    EXPECT_FALSE(obs::parseFp("0x", out));
    EXPECT_FALSE(obs::parseFp("xyz", out));
    EXPECT_FALSE(obs::parseFp("0x11112222333344445", out));  // 17 digits
}

TEST(ProvenanceRecordTest, JsonIsWellFormedAndRoundTrips)
{
    obs::ProvenanceRecord r = sampleRecord();
    r.path_a.cons = "weird \"chars\"\n\tand \\ slashes";
    r.budget = "budget: fuel";
    r.status = "timeout";

    testutil::JsonValue doc;
    ASSERT_TRUE(testutil::parseJson(r.json(), doc)) << r.json();
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("fingerprint")->string, obs::fpHex(r.fingerprint));
    EXPECT_EQ(doc.find("tool")->string, "rid");
    EXPECT_EQ(doc.find("kind")->string, "inconsistent");
    ASSERT_NE(doc.find("path_b"), nullptr);

    auto parsed = obs::parseJournal(r.json() + "\n");
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_TRUE(parsed[0] == r);
}

TEST(ProvenanceRecordTest, SinglePathRecordOmitsPathB)
{
    obs::ProvenanceRecord r = sampleRecord();
    r.has_path_b = false;
    r.path_b = obs::WitnessPath{};
    r.kind = "unbalanced";
    r.queries.clear();
    testutil::JsonValue doc;
    ASSERT_TRUE(testutil::parseJson(r.json(), doc));
    EXPECT_EQ(doc.find("path_b"), nullptr);
    auto parsed = obs::parseJournal(r.json());
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_TRUE(parsed[0] == r);
}

TEST(ProvenanceJournal, OrderingIsProductionOrderIndependent)
{
    std::vector<obs::ProvenanceRecord> fwd, rev;
    for (uint64_t fp : {7ull, 3ull, 9ull, 1ull})
        fwd.push_back(sampleRecord(fp));
    rev.assign(fwd.rbegin(), fwd.rend());
    std::string a = obs::renderJournal(fwd);
    EXPECT_EQ(a, obs::renderJournal(rev));
    // Parse-and-rerender is also byte-stable.
    EXPECT_EQ(obs::renderJournal(obs::parseJournal(a)), a);
}

TEST(ProvenanceJournal, MalformedInputThrows)
{
    EXPECT_THROW(obs::parseJournal("{not json"), std::runtime_error);
    EXPECT_THROW(obs::parseJournal("{\"fingerprint\": \"0x1\"}"),
                 std::runtime_error);  // missing required keys
    EXPECT_THROW(obs::parseJournal("[1, 2]"), std::runtime_error);
    EXPECT_TRUE(obs::parseJournal("\n  \n").empty());
}

TEST(ProvenanceJournal, BadNumbersAreParseErrors)
{
    // Numbers that do not parse, do not fit or are not integers are
    // malformed records, reported as parse errors like any other.
    std::string line = sampleRecord().json();
    auto with = [&](const std::string &from, const std::string &to) {
        std::string out = line;
        size_t at = out.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return out.replace(at, from.size(), to);
    };
    for (const auto &[from, to] :
         {std::pair<std::string, std::string>{"\"fuel\":1", "\"fuel\":-"},
          {"\"fuel\":1", "\"fuel\":1e999"},
          {"\"fuel\":1", "\"fuel\":-1"},
          {"\"return_line\":12", "\"return_line\":1111111111111111111111"},
          {"\"delta\":1", "\"delta\":0.5"},
          {"\"delta\":1", "\"delta\":\"1\""},
          {"[3,7]", "[3,1e10]"}}) {
        std::string bad = with(from, to);
        EXPECT_THROW(obs::parseJournal(bad), std::runtime_error) << bad;
        EXPECT_EQ(obs::parseJournalTolerant(bad).skipped_lines, 1u) << bad;
    }
}

TEST(ProvenanceJournal, TolerantParseRecoversCompleteRecordsFromTornTail)
{
    std::vector<obs::ProvenanceRecord> records;
    for (uint64_t fp : {7ull, 3ull, 9ull})
        records.push_back(sampleRecord(fp));
    std::string journal = obs::renderJournal(records);

    // A writer killed mid-flush leaves a partially written last line;
    // truncate at every byte offset inside the final record and verify
    // the complete prefix always survives.
    ASSERT_FALSE(journal.empty());
    ASSERT_EQ(journal.back(), '\n');
    size_t last_line_start = journal.rfind('\n', journal.size() - 2);
    ASSERT_NE(last_line_start, std::string::npos);
    last_line_start++;
    for (size_t cut = last_line_start + 1; cut < journal.size() - 1;
         cut += 7) {
        obs::JournalRecovery rec =
            obs::parseJournalTolerant(journal.substr(0, cut));
        EXPECT_EQ(rec.records.size(), 2u) << "cut at " << cut;
        EXPECT_EQ(rec.skipped_lines, 1u) << "cut at " << cut;
        ASSERT_FALSE(rec.errors.empty());
        EXPECT_NE(rec.errors[0].find("line 3"), std::string::npos);
    }

    // An intact journal recovers everything and reports nothing skipped;
    // the recovered records re-render byte-identically.
    obs::JournalRecovery full = obs::parseJournalTolerant(journal);
    EXPECT_EQ(full.records.size(), 3u);
    EXPECT_EQ(full.skipped_lines, 0u);
    EXPECT_TRUE(full.errors.empty());
    EXPECT_EQ(obs::renderJournal(full.records), journal);

    // Garbage between valid lines is skipped, not fatal — and strict
    // parseJournal stays strict on the same input.
    std::string mixed = journal;
    mixed.insert(mixed.find('\n') + 1, "{torn garbage\n");
    obs::JournalRecovery partial = obs::parseJournalTolerant(mixed);
    EXPECT_EQ(partial.records.size(), 3u);
    EXPECT_EQ(partial.skipped_lines, 1u);
    EXPECT_THROW(obs::parseJournal(mixed), std::runtime_error);
}

TEST(ProvenanceExplain, NarrativeNamesTheEvidence)
{
    obs::ProvenanceRecord r = sampleRecord();
    r.budget = "path/subcase cap truncated analysis";
    r.status = "truncated";
    std::string text = obs::explainText(r);
    EXPECT_NE(text.find(obs::fpHex(r.fingerprint)), std::string::npos);
    EXPECT_NE(text.find("idmouse_open"), std::string::npos);
    EXPECT_NE(text.find(r.path_a.cons), std::string::npos);
    EXPECT_NE(text.find("usb_autopm_get_interface"), std::string::npos);
    EXPECT_NE(text.find("cache hit"), std::string::npos);
    EXPECT_NE(text.find("truncated"), std::string::npos);

    r.queries.clear();
    EXPECT_NE(obs::explainText(r).find("must-analysis"),
              std::string::npos);
}

TEST(ProvenanceDiff, PartitionsByFingerprint)
{
    std::vector<obs::ProvenanceRecord> old_run = {
        sampleRecord(1), sampleRecord(2), sampleRecord(2),  // dup
        sampleRecord(3)};
    std::vector<obs::ProvenanceRecord> new_run = {
        sampleRecord(2), sampleRecord(3), sampleRecord(4)};
    obs::RunDiff diff = obs::diffRuns(old_run, new_run);
    ASSERT_EQ(diff.added.size(), 1u);
    EXPECT_EQ(diff.added[0].fingerprint, 4u);
    ASSERT_EQ(diff.resolved.size(), 1u);
    EXPECT_EQ(diff.resolved[0].fingerprint, 1u);
    ASSERT_EQ(diff.persisting.size(), 2u);
    EXPECT_EQ(diff.persisting[0].fingerprint, 2u);
    EXPECT_EQ(diff.persisting[1].fingerprint, 3u);

    std::string text = obs::diffText(diff);
    EXPECT_NE(text.find("new (1)"), std::string::npos);
    EXPECT_NE(text.find("resolved (1)"), std::string::npos);
    EXPECT_NE(text.find("persisting (2)"), std::string::npos);
}

TEST(ProvenanceExitFlush, FlushWritesAndUnregisterPrevents)
{
    std::string kept = testing::TempDir() + "prov_flush_kept.txt";
    std::string dropped = testing::TempDir() + "prov_flush_dropped.txt";
    std::remove(kept.c_str());
    std::remove(dropped.c_str());

    int keep_id =
        obs::registerExitFlush(kept, []() { return std::string("salvaged"); });
    int drop_id = obs::registerExitFlush(
        dropped, []() { return std::string("should not exist"); });
    obs::unregisterExitFlush(drop_id);
    obs::flushRegisteredExits();
    // flushRegisteredExits drains the registry, so keep_id is now dead;
    // unregistering again is a harmless no-op.
    obs::unregisterExitFlush(keep_id);

    std::ifstream in(kept);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "salvaged");
    EXPECT_FALSE(std::ifstream(dropped).good());
    std::remove(kept.c_str());

    // A faulting renderer must not cost other registrations their flush.
    std::string second = testing::TempDir() + "prov_flush_second.txt";
    std::remove(second.c_str());
    obs::registerExitFlush(kept, []() -> std::string {
        throw std::runtime_error("renderer fault");
    });
    obs::registerExitFlush(second, []() { return std::string("ok"); });
    obs::flushRegisteredExits();
    std::ifstream in2(second);
    ASSERT_TRUE(in2.good());
    std::remove(second.c_str());
}

TEST(ProvenanceBaseline, ReportsCarryFingerprintAndDomain)
{
    baseline::Cpychecker checker(kernel::kernelApiAttrs());
    ir::Module m = frontend::compile(R"(
void alloc_leak(void) {
    struct buf *p;
    p = kmalloc();
    do_stuff(p);
}
)");
    auto reports = checker.checkModule(m);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].domain, "alloc");
    EXPECT_NE(reports[0].fingerprint, 0u);
    EXPECT_NE(reports[0].function_fp, 0u);
    EXPECT_EQ(reports[0].fingerprint,
              reports[0].computeFingerprint(reports[0].function_fp));

    // Same claims vocabulary as RID's reports.
    auto claims = kernel::claimsFrom(reports);
    ASSERT_EQ(claims.size(), 1u);
    EXPECT_EQ(claims[0].function, "alloc_leak");
    EXPECT_EQ(claims[0].domain, "alloc");

    // And the uniform provenance conversion.
    auto records = baseline::provenanceRecords(reports);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].tool, "cpychecker");
    EXPECT_EQ(records[0].kind, "escape");
    EXPECT_EQ(records[0].fingerprint, reports[0].fingerprint);
    EXPECT_NE(obs::explainText(records[0]).find("alloc_leak"),
              std::string::npos);
    auto parsed = obs::parseJournal(obs::renderJournal(records));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_TRUE(parsed[0] == records[0]);
}

/** End-to-end fixture over a small injected corpus. */
class ProvenanceEndToEnd : public ::testing::Test
{
  protected:
    static kernel::InjectedCorpus injected_;

    static void
    SetUpTestSuite()
    {
        auto mix = kernel::CorpusMix::cleanCalibrated(0.03);
        injected_ = kernel::generateInjectedCorpus(
            mix, kernel::InjectionPlan::calibrated(mix));
    }

    static RunResult
    runWithJournal(const std::vector<kernel::SourceFile> &files,
                   const std::string &journal_path)
    {
        analysis::AnalyzerOptions opts;
        opts.provenance_path = journal_path;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : files)
            tool.addSource(file.text);
        return tool.run();
    }

    static std::string
    slurp(const std::string &path)
    {
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << path;
        std::stringstream buf;
        buf << in.rdbuf();
        return buf.str();
    }
};

kernel::InjectedCorpus ProvenanceEndToEnd::injected_;

TEST_F(ProvenanceEndToEnd, JournalRoundTripsAndExplainsEveryReport)
{
    std::string path = testing::TempDir() + "prov_e2e.jsonl";
    RunResult result = runWithJournal(injected_.corpus.files, path);
    ASSERT_FALSE(result.reports.empty());

    std::string journal = slurp(path);
    auto records = obs::parseJournal(journal);
    ASSERT_EQ(records.size(), result.reports.size());

    // The journal is keyed by the same fingerprints the reports carry.
    std::multiset<uint64_t> report_fps, record_fps;
    for (const auto &r : result.reports) {
        EXPECT_NE(r.fingerprint, 0u);
        report_fps.insert(r.fingerprint);
    }
    for (const auto &rec : records)
        record_fps.insert(rec.fingerprint);
    EXPECT_EQ(record_fps, report_fps);

    // `ridc explain` round-trips every record: a non-empty narrative
    // naming the function, the fingerprint and the witness constraint.
    for (const auto &rec : records) {
        std::string text = obs::explainText(rec);
        EXPECT_NE(text.find(rec.function), std::string::npos);
        EXPECT_NE(text.find(obs::fpHex(rec.fingerprint)),
                  std::string::npos);
        EXPECT_EQ(rec.tool, "rid");
        EXPECT_FALSE(rec.domain.empty());
        EXPECT_FALSE(rec.kind.empty());
    }

    // Every record carries its deciding evidence: the overlap query for
    // IPP (two-path) records, the path-feasibility query for balanced
    // must-analysis records (which run under the same solver/budget
    // accounting as the pairwise check). Both kinds must occur on the
    // multi-domain injected corpus.
    size_t unbalanced = 0, inconsistent = 0;
    for (const auto &rec : records) {
        EXPECT_FALSE(rec.queries.empty())
            << rec.function << " record lacks deciding evidence";
        (rec.kind == "unbalanced" ? unbalanced : inconsistent)++;
    }
    EXPECT_GT(unbalanced, 0u);
    EXPECT_GT(inconsistent, 0u);

    // Deterministic journal bytes: a second identical run renders the
    // byte-identical file, and re-rendering the parsed records does too.
    std::string path2 = testing::TempDir() + "prov_e2e_2.jsonl";
    runWithJournal(injected_.corpus.files, path2);
    EXPECT_EQ(slurp(path2), journal);
    EXPECT_EQ(obs::renderJournal(records), journal);
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST_F(ProvenanceEndToEnd, DiffRunsPartitionsAMutatedCorpus)
{
    // Two overlapping corpus slices: reports whose file is only in the
    // old slice resolve, only-new ones are added, shared ones persist.
    const auto &files = injected_.corpus.files;
    ASSERT_GE(files.size(), 3u);
    size_t third = files.size() / 3;
    std::vector<kernel::SourceFile> old_files(files.begin(),
                                              files.end() - third);
    std::vector<kernel::SourceFile> new_files(files.begin() + third,
                                              files.end());

    std::string old_path = testing::TempDir() + "prov_old.jsonl";
    std::string new_path = testing::TempDir() + "prov_new.jsonl";
    runWithJournal(old_files, old_path);
    runWithJournal(new_files, new_path);

    auto old_records = obs::parseJournal(slurp(old_path));
    auto new_records = obs::parseJournal(slurp(new_path));
    obs::RunDiff diff = obs::diffRuns(old_records, new_records);

    EXPECT_FALSE(diff.added.empty());
    EXPECT_FALSE(diff.resolved.empty());
    EXPECT_FALSE(diff.persisting.empty());
    EXPECT_EQ(diff.added.size() + diff.persisting.size(),
              new_records.size());

    // Partition sanity: added ∪ persisting fingerprints == new run's,
    // resolved ∩ new run == ∅.
    std::set<uint64_t> new_fps;
    for (const auto &r : new_records)
        new_fps.insert(r.fingerprint);
    for (const auto &r : diff.added)
        EXPECT_TRUE(new_fps.count(r.fingerprint));
    for (const auto &r : diff.resolved)
        EXPECT_FALSE(new_fps.count(r.fingerprint));
    for (const auto &r : diff.persisting)
        EXPECT_TRUE(new_fps.count(r.fingerprint));

    std::string text = obs::diffText(diff);
    EXPECT_NE(text.find("new ("), std::string::npos);
    EXPECT_NE(text.find("resolved ("), std::string::npos);
    EXPECT_NE(text.find("persisting ("), std::string::npos);
    std::remove(old_path.c_str());
    std::remove(new_path.c_str());
}

TEST_F(ProvenanceEndToEnd, ReportJsonCarriesTheFingerprint)
{
    std::string path = testing::TempDir() + "prov_json.jsonl";
    RunResult result = runWithJournal(injected_.corpus.files, path);
    ASSERT_FALSE(result.reports.empty());
    std::remove(path.c_str());

    testutil::JsonValue doc;
    ASSERT_TRUE(testutil::parseJson(toJson(result.reports[0]), doc));
    const testutil::JsonValue *fp = doc.find("fingerprint");
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->string, obs::fpHex(result.reports[0].fingerprint));
}

} // anonymous namespace
} // namespace rid
