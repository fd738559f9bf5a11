/**
 * @file
 * Byte-level mutation fuzz of the analyzer's non-source inputs: spec
 * text, WAL segments and provenance journals.
 *
 * A seeded schedule of byte flips, truncations and line splices (for the
 * binary log: byte-range splices) is applied to
 *  - the bundled spec texts and a run's exported summaries, fed to
 *    parseSpecText();
 *  - a real store log, fed to scanWal() and, as a mutated store
 *    directory, to a resumed run. Some log mutants are re-framed with
 *    encodeWalFrame(), so a valid CRC carries a damaged payload through
 *    to the record decoder;
 *  - a real provenance journal, fed to parseJournal() and
 *    parseJournalTolerant().
 * Every mutant must be accepted or end in a SpecError, a torn or skipped
 * frame or a parse error: never a crash, a hang or another exception.
 * Records the mutation did not touch must come through intact, and a
 * resumed run must reproduce the cold run's reports for every function
 * whose record was not re-framed. scripts/check.sh also runs this suite
 * under ASan+UBSan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/rid.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "kernel/inject.h"
#include "mutation_util.h"
#include "obs/provenance.h"
#include "store/store.h"
#include "store/wal.h"
#include "summary/spec.h"

namespace rid {
namespace {

namespace fs = std::filesystem;
using testutil::Mutant;
using testutil::Rng;

constexpr int kFlips = 24;
constexpr int kSplices = 16;
constexpr int kDigitRuns = 4;
/** Truncation stride floor; long inputs get a wider stride so each
 *  yields at most kMaxTruncations prefixes. */
constexpr size_t kTruncateStride = 97;
constexpr size_t kMaxTruncations = 96;

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

/** This process's scratch root. ctest runs each test of the suite as
 *  its own process, in parallel, so the fixture's stores must not share
 *  paths across processes. */
std::string
scratchRoot()
{
    return testing::TempDir() + "rid_input_fuzz_" +
           std::to_string(::getpid()) + "/";
}

/** A fresh, empty directory under this process's scratch root. */
std::string
freshDir(const std::string &name)
{
    std::string dir = scratchRoot() + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

size_t
truncateStride(const std::string &src)
{
    return std::max(kTruncateStride, src.size() / kMaxTruncations + 1);
}

// ------------------------------------------------------ text mutations

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line + "\n");
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const auto &line : lines)
        out += line;
    return out;
}

/** Line splices: a line moved elsewhere, a line dropped, and a torn
 *  line (the head of one line joined to the tail of another). */
void
addLineSplices(std::vector<Mutant> &out, const std::string &src, Rng &rng)
{
    const std::vector<std::string> lines = splitLines(src);
    if (lines.size() < 2)
        return;
    for (int k = 0; k < kSplices; k++) {
        size_t i = rng.below(lines.size());
        size_t j = rng.below(lines.size());
        std::vector<std::string> edited = lines;
        std::string label;
        switch (k % 3) {
          case 0:
            edited.erase(edited.begin() + static_cast<long>(i));
            edited.insert(edited.begin() +
                              static_cast<long>(std::min(j, edited.size())),
                          lines[i]);
            label = "move";
            break;
          case 1:
            edited.erase(edited.begin() + static_cast<long>(i));
            label = "drop";
            break;
          default:
            edited[i] = lines[i].substr(0, rng.below(lines[i].size())) +
                        lines[j].substr(rng.below(lines[j].size()));
            label = "tear";
            break;
        }
        out.push_back({label + "(" + std::to_string(i) + "," +
                           std::to_string(j) + ")",
                       joinLines(edited)});
    }
}

/** A run of 24 copies of one digit inserted at a digit: a number too
 *  large for any integer type. */
void
addDigitRuns(std::vector<Mutant> &out, const std::string &src, Rng &rng)
{
    std::vector<size_t> digits;
    for (size_t i = 0; i < src.size(); i++)
        if (std::isdigit(static_cast<unsigned char>(src[i])))
            digits.push_back(i);
    for (int k = 0; k < kDigitRuns && !digits.empty(); k++) {
        size_t at = digits[rng.below(digits.size())];
        std::string text = src;
        text.insert(at, 24, src[at]);
        out.push_back({"digits@" + std::to_string(at), std::move(text)});
    }
}

std::vector<Mutant>
textMutants(const std::string &src, uint64_t seed)
{
    std::vector<Mutant> out;
    Rng rng{seed};
    testutil::addFlips(out, src, rng, kFlips);
    testutil::addTruncations(out, src, truncateStride(src));
    addLineSplices(out, src, rng);
    addDigitRuns(out, src, rng);
    return out;
}

// ---------------------------------------------------------------- fixture

class InputFuzzTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
        cold_dir_ = freshDir("cold");
        auto cold = makeTool(cold_dir_, /*resume=*/false);
        cold_result_ = cold->run();
        oracle_ = digestOf(*cold, cold_result_, "");
        exported_ = cold->exportSummaries();
        for (const auto &r : cold_result_.reports)
            reporting_.insert(r.function);
        wal_ = slurpFile(cold_dir_ + "/analysis.wal");
    }

    static void
    TearDownTestSuite()
    {
        fs::remove_all(scratchRoot());
    }

    static std::unique_ptr<Rid>
    makeTool(const std::string &store_dir, bool resume)
    {
        analysis::AnalyzerOptions opts;
        opts.store_path = store_dir;
        opts.resume = resume;
        auto tool = std::make_unique<Rid>(opts);
        tool->loadSpecText(kernel::dpmSpecText());
        for (const auto &file : corpus_.files)
            tool->addSource(file.text);
        return tool;
    }

    /**
     * Sorted reports, computed summaries and diagnostics of one run (the
     * store suite's partial-resume oracle), leaving out everything that
     * belongs to @p skip. With a non-empty @p skip the summaries are left
     * out too: a re-framed record may replay a damaged summary for it.
     */
    static std::string
    digestOf(const Rid &tool, const RunResult &result,
             const std::string &skip)
    {
        std::multiset<std::string> lines;
        for (const auto &report : result.reports)
            if (report.function != skip)
                lines.insert(report.str());
        std::string out;
        for (const auto &line : lines)
            out += line + "\n";
        if (skip.empty()) {
            out += "--- summaries ---\n";
            out += tool.exportSummaries();
        }
        out += "--- diagnostics ---\n";
        for (const auto &d : result.diagnostics)
            if (d.function != skip)
                out += d.function + " " + analysis::fnStatusName(d.status) +
                       " " + d.reason + "\n";
        return out;
    }

    static kernel::Corpus corpus_;
    static std::string cold_dir_;
    static RunResult cold_result_;
    static std::string oracle_;
    static std::string exported_;
    static std::set<std::string> reporting_;
    static std::string wal_;
};

kernel::Corpus InputFuzzTest::corpus_;
std::string InputFuzzTest::cold_dir_;
RunResult InputFuzzTest::cold_result_;
std::string InputFuzzTest::oracle_;
std::string InputFuzzTest::exported_;
std::set<std::string> InputFuzzTest::reporting_;
std::string InputFuzzTest::wal_;

// ------------------------------------------------------------------ specs

TEST_F(InputFuzzTest, SpecMutantsParseOrRaiseSpecError)
{
    const std::pair<const char *, std::string> seeds[] = {
        {"dpm", kernel::dpmSpecText()},
        {"lock", kernel::lockSpecText()},
        {"alloc", kernel::allocSpecText()},
        {"exported", exported_},
    };
    size_t mutants = 0, rejected = 0;
    uint64_t seed = 0x5bec;
    for (const auto &[name, text] : seeds) {
        ASSERT_NO_THROW(summary::parseSpecText(text)) << name;
        for (const Mutant &m : textMutants(text, seed++)) {
            mutants++;
            try {
                summary::parseSpecText(m.text);
            } catch (const summary::SpecError &) {
                rejected++;
            } catch (const std::exception &e) {
                ADD_FAILURE() << name << " " << m.label
                              << ": unexpected exception: " << e.what();
            }
        }
    }
    // The schedule exercises both outcomes.
    EXPECT_GT(rejected, 0u);
    EXPECT_LT(rejected, mutants);
}

// -------------------------------------------------------------------- WAL

/** One mutated log and the original byte range it touched. An insertion
 *  at p touches the empty range [p, p). */
struct WalMutant
{
    std::string label;
    std::string bytes;
    size_t lo = 0;
    size_t hi = 0;
    /** Re-framed: the function whose frame now carries a damaged
     *  payload under a valid CRC (empty otherwise). */
    std::string victim;
};

/** Frame [a, b) of the original log survives a mutation of [lo, hi). */
bool
untouched(const store::WalFrame &f, const WalMutant &m)
{
    size_t a = f.offset;
    size_t b = a + store::kFrameHeaderSize + f.payload.size();
    if (m.lo == m.hi)
        return !(a < m.lo && m.lo < b);
    return b <= m.lo || m.hi <= a;
}

/** The function name a function-frame payload starts with (a u32
 *  little-endian length, then the bytes; docs/STORE.md). */
std::string
frameFunction(const std::string &payload)
{
    if (payload.size() < 4)
        return "";
    uint32_t n = 0;
    for (int k = 0; k < 4; k++)
        n |= static_cast<uint32_t>(static_cast<unsigned char>(payload[k]))
             << (8 * k);
    return payload.substr(4, n);
}

/** The log with frame @p f replaced by a fresh, CRC-valid frame around
 *  @p payload. */
std::string
reframe(const std::string &wal, const store::WalFrame &f,
        const std::string &payload)
{
    std::string out = wal.substr(0, f.offset);
    out += store::encodeWalFrame(f.type, payload);
    out += wal.substr(f.offset + store::kFrameHeaderSize + f.payload.size());
    return out;
}

std::vector<WalMutant>
walMutants(const std::string &wal,
           const std::vector<store::WalFrame> &frames, uint64_t seed)
{
    std::vector<WalMutant> out;
    Rng rng{seed};
    for (int k = 0; k < kFlips; k++) {
        size_t at = rng.below(wal.size());
        std::string bytes = wal;
        bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.below(255)));
        out.push_back({"flip@" + std::to_string(at), std::move(bytes), at,
                       at + 1, ""});
    }
    for (size_t cut = truncateStride(wal); cut < wal.size();
         cut += truncateStride(wal))
        out.push_back({"truncate@" + std::to_string(cut), wal.substr(0, cut),
                       cut, wal.size(), ""});
    for (int k = 0; k < kSplices; k++) {
        size_t from = rng.below(wal.size());
        size_t len = std::min(wal.size() - from, 1 + rng.below(256));
        size_t to = rng.below(wal.size() + 1);
        std::string bytes = wal;
        if (k % 2 == 0) {
            bytes.insert(to, wal, from, len);
            out.push_back({"splice[" + std::to_string(from) + "+" +
                               std::to_string(len) + "]@" +
                               std::to_string(to),
                           std::move(bytes), to, to, ""});
        } else {
            bytes.erase(from, len);
            out.push_back({"delete[" + std::to_string(from) + "+" +
                               std::to_string(len) + "]",
                           std::move(bytes), from, from + len, ""});
        }
    }
    std::vector<const store::WalFrame *> functions;
    for (const auto &f : frames)
        if (f.type == store::kFrameFunction)
            functions.push_back(&f);
    for (int k = 0; k < kSplices && !functions.empty(); k++) {
        const store::WalFrame &f = *functions[rng.below(functions.size())];
        std::string payload = f.payload;
        std::string label;
        if (k % 2 == 0) {
            size_t at = rng.below(payload.size());
            payload[at] =
                static_cast<char>(payload[at] ^ (1 + rng.below(255)));
            label = "reframed-flip@" + std::to_string(at);
        } else {
            payload.resize(rng.below(payload.size()));
            label = "reframed-truncate@" + std::to_string(payload.size());
        }
        out.push_back({label + " in frame@" + std::to_string(f.offset),
                       reframe(wal, f, payload), f.offset, f.offset + 1,
                       frameFunction(f.payload)});
    }
    return out;
}

/** @p want appears in order, frame for frame, within @p got. */
bool
isSubsequence(const std::vector<const store::WalFrame *> &want,
              const std::vector<store::WalFrame> &got)
{
    size_t i = 0;
    for (const auto &g : got)
        if (i < want.size() && g.type == want[i]->type &&
            g.payload == want[i]->payload)
            i++;
    return i == want.size();
}

TEST_F(InputFuzzTest, WalMutantsLoseOnlyTheFramesTheyTouch)
{
    store::WalScan clean = store::scanWal(wal_);
    ASSERT_TRUE(clean.header_ok);
    ASSERT_EQ(clean.torn_frames, 0u);
    ASSERT_GT(clean.frames.size(), 8u);

    size_t torn = 0, mutants = 0;
    for (const WalMutant &m : walMutants(wal_, clean.frames, 0xa11)) {
        mutants++;
        store::WalScan scan = store::scanWal(m.bytes);
        if (m.lo >= store::kWalHeaderSize) {
            EXPECT_TRUE(scan.header_ok) << m.label;
        }
        if (!scan.header_ok)
            continue;
        EXPECT_LE(scan.durable_size, m.bytes.size()) << m.label;
        torn += scan.torn_frames > 0;
        if (!m.victim.empty()) {
            // A valid CRC: the damaged payload is recovered as a frame
            // like any other, and nothing else moves.
            EXPECT_EQ(scan.torn_frames, 0u) << m.label;
            EXPECT_EQ(scan.frames.size(), clean.frames.size()) << m.label;
            continue;
        }
        std::vector<const store::WalFrame *> intact;
        for (const auto &f : clean.frames)
            if (untouched(f, m))
                intact.push_back(&f);
        EXPECT_TRUE(isSubsequence(intact, scan.frames))
            << m.label << ": an untouched frame was lost";
    }
    EXPECT_GT(torn, 0u);
    EXPECT_GT(mutants, 100u);
}

TEST_F(InputFuzzTest, ResumeFromMutatedStoreKeepsUntouchedRecords)
{
    // A mutated store directory is recovered and the run resumed. Frames
    // a mutation damaged are dropped and their functions re-analyzed,
    // so the run reproduces the cold run; a re-framed (CRC-valid)
    // damaged record may only affect its own function.
    store::WalScan clean = store::scanWal(wal_);
    size_t runs = 0, replayed = 0;
    std::vector<WalMutant> mutants = walMutants(wal_, clean.frames, 0xa11);
    for (size_t i = 0; i < mutants.size(); i++) {
        const WalMutant &m = mutants[i];
        // Every fourth truncation: the suite above covers them all at
        // the scan level, and each resume is a full run.
        if (m.label.rfind("truncate@", 0) == 0 && i % 4 != 0)
            continue;
        std::string dir = freshDir("resume");
        writeFile(dir + "/analysis.wal", m.bytes);
        auto tool = makeTool(dir, /*resume=*/true);
        RunResult result = tool->run();
        runs++;
        replayed += result.stats.store.hits > 0;
        if (m.victim.empty()) {
            EXPECT_EQ(digestOf(*tool, result, ""), oracle_) << m.label;
            continue;
        }
        EXPECT_EQ(digestOf(*tool, result, m.victim),
                  digestOf(*tool, cold_result_, m.victim))
            << m.label << " (victim " << m.victim << ")";
    }
    EXPECT_GT(runs, 40u);
    EXPECT_GT(replayed, runs / 2);
}

TEST_F(InputFuzzTest, InflatedCountsInReframedRecordsAreRejected)
{
    // Every byte of a reporting function's record tail gets its high
    // bits set under a valid CRC. Counts inflated this way (report,
    // line, query and callee counts) must be rejected before anything
    // is allocated for them, whatever the decoder is handed.
    store::WalScan clean = store::scanWal(wal_);
    const store::WalFrame *victim = nullptr;
    for (const auto &f : clean.frames)
        if (f.type == store::kFrameFunction &&
            reporting_.count(frameFunction(f.payload)))
            victim = &f;
    ASSERT_NE(victim, nullptr);
    std::string name = frameFunction(victim->payload);

    summary::SummaryDb db;
    summary::loadSpecsInto(kernel::dpmSpecText(), db);
    analysis::AnalyzerOptions opts;
    analysis::FunctionStore::Key key{name, 0,
                                     store::configFingerprint(db, opts)};
    Rid plain;
    for (const auto &file : corpus_.files)
        plain.addSource(file.text);
    const ir::Function *fn = plain.module().find(name);
    ASSERT_NE(fn, nullptr);
    key.body_fp = fn->fingerprint();

    const std::string &payload = victim->payload;
    size_t tail = std::min<size_t>(payload.size(), 256);
    size_t loaded = 0;
    for (size_t at = payload.size() - tail; at < payload.size(); at++) {
        std::string damaged = payload;
        damaged[at] = static_cast<char>(damaged[at] | 0xc0);
        if (damaged == payload)
            continue;
        std::string dir = freshDir("inflate");
        writeFile(dir + "/analysis.wal", reframe(wal_, *victim, damaged));
        store::AnalysisStore::Options sopts;
        sopts.path = dir;
        sopts.resume = true;
        sopts.config_fp = key.config_fp;
        store::AnalysisStore st(sopts);
        auto action = st.lookup(key, {}, db.domains());
        if (action.plan == analysis::FunctionStore::Plan::Load) {
            loaded++;
            EXPECT_LE(action.reports.size(), 64u) << "byte " << at;
        }
    }
    // Damage outside the counts (a line number, a string byte) still
    // decodes; the sweep sees both outcomes.
    EXPECT_GT(loaded, 0u);
    EXPECT_LT(loaded, tail);
}

// --------------------------------------------------------------- journals

TEST(JournalFuzz, MutantsParseOrRaiseParseErrorsAndKeepIntactLines)
{
    // A triaged run over the injected + FP-inducer corpus: records with
    // and without tiers, ranks, second witness paths and queries.
    auto mix = kernel::CorpusMix::cleanCalibrated(0.01);
    mix.counts[kernel::PatternKind::FpBitmask] = 6;
    mix.counts[kernel::PatternKind::FpListOp] = 5;
    auto injected = kernel::generateInjectedCorpus(
        mix, kernel::InjectionPlan::calibrated(mix));
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    for (const auto &file : injected.corpus.files)
        tool.addSource(file.text);
    std::string journal =
        obs::renderJournal(provenanceRecords(tool.run()));
    ASSERT_EQ(obs::parseJournal(journal).size(),
              splitLines(journal).size());
    const std::vector<std::string> original = splitLines(journal);
    const std::set<std::string> original_set(original.begin(),
                                             original.end());

    size_t mutants = 0, rejected = 0;
    for (const Mutant &m : textMutants(journal, 0x10a5)) {
        mutants++;
        bool strict_ok = true;
        try {
            obs::parseJournal(m.text);
        } catch (const std::runtime_error &) {
            strict_ok = false;
            rejected++;
        } catch (const std::exception &e) {
            ADD_FAILURE() << m.label
                          << ": unexpected exception: " << e.what();
        }
        obs::JournalRecovery rec;
        ASSERT_NO_THROW(rec = obs::parseJournalTolerant(m.text)) << m.label;
        if (strict_ok) {
            EXPECT_EQ(rec.skipped_lines, 0u) << m.label;
        }

        // Every line the mutation left whole is recovered.
        std::multiset<uint64_t> recovered;
        for (const auto &r : rec.records)
            recovered.insert(r.fingerprint);
        for (const auto &line : splitLines(m.text)) {
            if (!original_set.count(line))
                continue;
            uint64_t fp = obs::parseJournal(line).at(0).fingerprint;
            auto it = recovered.find(fp);
            EXPECT_NE(it, recovered.end()) << m.label << ": lost " << line;
            if (it != recovered.end())
                recovered.erase(it);
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_LT(rejected, mutants);
}

} // anonymous namespace
} // namespace rid
