/**
 * @file
 * Tests for the Section 5.4 abstraction extensions: bit-test modeling
 * and field-store tracking (frontend/lower.h LowerOptions).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/wait.h>

#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/inject.h"
#include "store/store.h"
#include "summary/domain.h"

namespace rid {
namespace {

size_t
reportsWith(const char *source, bool bits, bool stores)
{
    frontend::LowerOptions lower;
    lower.model_bit_tests = bits;
    lower.model_field_stores = stores;
    Rid tool({}, lower);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(source);
    return tool.run().reports.size();
}

const char *kBitGuardedGet = R"(
int async_get(struct device *dev, int flags) {
    if (flags & 4)
        pm_runtime_get_noresume(dev);
    return 0;
}
)";

TEST(BitTests, FalsePositiveWithoutExtension)
{
    EXPECT_EQ(reportsWith(kBitGuardedGet, false, false), 1u);
}

TEST(BitTests, DistinguishableWithExtension)
{
    EXPECT_EQ(reportsWith(kBitGuardedGet, true, false), 0u);
}

TEST(BitTests, SameBitTwiceIsDeterministic)
{
    // Two tests of the same bit on the same value must agree: the
    // get/put pair is balanced on every feasible path.
    const char *source = R"(
int f(struct device *dev, int flags) {
    if (flags & 1)
        pm_runtime_get_noresume(dev);
    work(dev);
    if (flags & 1)
        pm_runtime_put_noidle(dev);
    return 0;
}
void work(struct device *dev);
)";
    EXPECT_GE(reportsWith(source, false, false), 1u);  // classic FP
    EXPECT_EQ(reportsWith(source, true, false), 0u);
}

TEST(BitTests, DifferentBitsTradeoffDocumented)
{
    // Guarding the get with bit 1 but the put with bit 2 is unbalanced.
    // Without the extension both branches look nondeterministic and the
    // imbalance is reported (as one of many overlapping pairs); with the
    // extension every path pair is distinguishable by its bit values, so
    // nothing is reported. The extension trades the Section 6.4 false
    // positives for possible false negatives of exactly this shape.
    const char *source = R"(
int f(struct device *dev, int flags) {
    if (flags & 1)
        pm_runtime_get_noresume(dev);
    if (flags & 2)
        pm_runtime_put_noidle(dev);
    return 0;
}
)";
    EXPECT_GE(reportsWith(source, false, false), 1u);
    EXPECT_EQ(reportsWith(source, true, false), 0u);
}

TEST(BitTests, BitLoweringEmitsSyntheticField)
{
    frontend::LowerOptions lower;
    lower.model_bit_tests = true;
    ir::Module m = frontend::compile(
        "int f(int flags) { return flags & 12; }", lower);
    bool found = false;
    const ir::Function *fn = m.find("f");
    for (size_t b = 0; b < fn->numBlocks(); b++) {
        for (const auto &in : fn->block(b).instrs) {
            if (in.op == ir::Opcode::FieldLoad &&
                in.field == "bits_12") {
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(BitTests, NonConstantMaskStaysNondet)
{
    frontend::LowerOptions lower;
    lower.model_bit_tests = true;
    ir::Module m = frontend::compile(
        "int f(int a, int b) { return a & b; }", lower);
    const ir::Function *fn = m.find("f");
    int randoms = 0;
    for (size_t b = 0; b < fn->numBlocks(); b++)
        for (const auto &in : fn->block(b).instrs)
            if (in.op == ir::Opcode::Random)
                randoms++;
    EXPECT_EQ(randoms, 1);
}

const char *kListTrackedGet = R"(
int list_get(struct device *dev, struct list *busy) {
    if (probe_ready(dev)) {
        pm_runtime_get_noresume(dev);
        busy->head = dev;
    }
    return 0;
}
int probe_ready(struct device *dev);
)";

TEST(FieldStores, FalsePositiveWithoutExtension)
{
    EXPECT_EQ(reportsWith(kListTrackedGet, false, false), 1u);
}

TEST(FieldStores, DistinguishableWithExtension)
{
    EXPECT_EQ(reportsWith(kListTrackedGet, false, true), 0u);
}

TEST(FieldStores, LocalStoresDoNotDistinguish)
{
    // A store to a function-local object is invisible to callers; paths
    // differing only by it still form an IPP.
    const char *source = R"(
int f(struct device *dev) {
    struct tmp *scratch;
    if (probe_ready(dev)) {
        pm_runtime_get_noresume(dev);
        scratch->mark = 1;
    }
    return 0;
}
int probe_ready(struct device *dev);
)";
    EXPECT_EQ(reportsWith(source, false, true), 1u);
}

TEST(FieldStores, PropagateThroughCalleeSummaries)
{
    // The helper records the taken count in the caller-visible list;
    // its summary carries the store effect, so the caller's paths stay
    // distinguishable too.
    const char *source = R"(
void track_get(struct device *dev, struct list *busy) {
    pm_runtime_get_noresume(dev);
    busy->head = dev;
}
int maybe_get(struct device *dev, struct list *busy) {
    if (probe_ready(dev))
        track_get(dev, busy);
    return 0;
}
int probe_ready(struct device *dev);
)";
    EXPECT_EQ(reportsWith(source, false, true), 0u);
    EXPECT_EQ(reportsWith(source, false, false), 1u);
}

TEST(FieldStores, RealBugsStillDetected)
{
    const char *source = R"(
int f(struct device *dev) {
    int ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    ret = op(dev);
    pm_runtime_put(dev);
    return ret;
}
int op(struct device *dev);
)";
    EXPECT_EQ(reportsWith(source, true, true), 1u);
}

TEST(FieldStores, StoreSetsSurviveSpecRoundTrip)
{
    frontend::LowerOptions lower;
    lower.model_field_stores = true;
    Rid tool({}, lower);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(R"(
void track_get(struct device *dev, struct list *busy) {
    pm_runtime_get_noresume(dev);
    busy->head = dev;
}
)");
    tool.run();
    std::string exported = tool.exportSummaries();
    EXPECT_NE(exported.find("store: [busy].head"), std::string::npos);

    Rid again({}, lower);
    again.loadSpecText(kernel::dpmSpecText());
    again.importSummaries(exported);
    const auto *s = again.summaries().find("track_get");
    ASSERT_NE(s, nullptr);
    ASSERT_FALSE(s->entries.empty());
    EXPECT_EQ(s->entries[0].stores.size(), 1u);
}

TEST(DomainTable, RefIsImplicitAndIpp)
{
    summary::DomainTable table;
    EXPECT_TRUE(table.contains(summary::kRefDomain));
    EXPECT_EQ(table.policyOf("ref"), summary::DomainPolicy::Ipp);
    EXPECT_FALSE(table.anyNonIpp());
    EXPECT_EQ(table.policyOf("unknown"), summary::DomainPolicy::Ipp);
    EXPECT_FALSE(table.contains("unknown"));
}

TEST(DomainTable, DeclareIsIdempotentButConflictChecked)
{
    summary::DomainTable table;
    using R = summary::DomainTable::DeclareResult;
    EXPECT_EQ(table.declare({"lock", summary::DomainPolicy::Balanced}),
              R::Added);
    EXPECT_EQ(table.declare({"lock", summary::DomainPolicy::Balanced}),
              R::Unchanged);
    EXPECT_EQ(table.declare({"lock", summary::DomainPolicy::Ipp}),
              R::Conflict);
    EXPECT_EQ(table.policyOf("lock"), summary::DomainPolicy::Balanced);
    EXPECT_TRUE(table.anyNonIpp());
}

TEST(DomainTable, ListTextIsNameSorted)
{
    summary::DomainTable table;
    table.declare({"lock", summary::DomainPolicy::Balanced});
    table.declare({"alloc", summary::DomainPolicy::Balanced});
    EXPECT_EQ(summary::listDomainsText(table),
              "alloc\tbalanced\nlock\tbalanced\nref\tipp\n");
}

const char *kLockLeakSource = R"(
int do_op(struct device *dev, int a);

int leaky(struct device *dev, int arg) {
    int ret;
    spin_lock(&dev->lock);
    ret = do_op(dev, arg);
    if (ret < 0)
        return ret;
    spin_unlock(&dev->lock);
    return 0;
}
)";

TEST(EnabledDomains, FilterSelectsWhichDomainsAreChecked)
{
    auto scan = [&](std::vector<std::string> domains) {
        Rid tool;
        tool.loadSpecText(kernel::lockSpecText());
        tool.options().enabled_domains = std::move(domains);
        tool.addSource(kLockLeakSource);
        return tool.run();
    };
    RunResult all = scan({});
    ASSERT_EQ(all.reports.size(), 1u);
    EXPECT_EQ(all.reports[0].domain, "lock");
    EXPECT_EQ(all.reports[0].kind, analysis::BugKind::Unbalanced);
    EXPECT_EQ(all.stats.reports_by_domain.at("lock"), 1u);

    EXPECT_EQ(scan({"lock"}).reports.size(), 1u);
    // With only `ref` enabled the lock seeds are never even seeded, so
    // the scan is silent.
    RunResult ref_only = scan({"ref"});
    EXPECT_TRUE(ref_only.reports.empty());
    EXPECT_TRUE(ref_only.stats.reports_by_domain.empty());
}

// --- ridc CLI: --list-domains / --domains -------------------------------

struct CliResult
{
    int exit_code = -1;
    std::string output;
};

/** Run @p binary with @p args; stderr goes to @p stderr_to (a shell
 *  redirection target: "&1" merges it into the captured output). */
CliResult
runProgram(const std::string &binary, const std::string &args,
           const std::string &stderr_to = "&1")
{
    CliResult r;
    std::string cmd = binary + " " + args + " 2>" + stderr_to;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    char buf[512];
    while (fgets(buf, sizeof(buf), pipe))
        r.output += buf;
    int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

/** Run ridc with @p args (see runProgram). */
CliResult
runCli(const std::string &args, const std::string &stderr_to = "&1")
{
    return runProgram(RIDC_PATH, args, stderr_to);
}

/** Write @p text to a temp file private to the running test: ctest -j
 *  runs the CLI tests concurrently, and a shared path would let one
 *  test truncate a file while another test's ridc reads it. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path =
        ::testing::TempDir() +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + name;
    std::ofstream(path) << text;
    return path;
}

TEST(RidcCli, ListDomainsPrintsDeclaredDomains)
{
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string alloc = writeTemp("cli_alloc.spec",
                                  kernel::allocSpecText());
    CliResult r = runCli("--spec " + lock + " --spec " + alloc +
                         " --list-domains");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.output, "alloc\tbalanced\nlock\tbalanced\nref\tipp\n");
}

TEST(RidcCli, UnknownDomainIsAClearError)
{
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    CliResult r = runCli("--spec " + lock + " --domains=locks " + src);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("unknown domain 'locks'"), std::string::npos);
}

TEST(RidcCli, BadNumericFlagIsAClearError)
{
    // Every numeric flag must consume its whole token and land in range;
    // atoi read `--threads 4x` as 4 and `--max-paths abc` as 0, and an
    // out-of-range --threads starts that many workers per SCC level.
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    const std::pair<const char *, const char *> bad[] = {
        {"--threads", "4x"},
        {"--threads", "0"},
        {"--threads", "257"},
        {"--threads", "-1"},
        {"--threads", "99999999999999999999"},
        {"--max-paths", "abc"},
        {"--max-paths", "0"},
        {"--max-subcases", "0"},
        {"--max-subcases", "10.5"},
        {"--top", "-1"},
        {"--top", "3x"},
        {"--solver-fuel", "-5"},
        {"--solver-fuel", "1e3"},
        {"--triage-fuel", "99999999999999999999999"},
        {"--deadline", "nan"},
        {"--deadline", "inf"},
        {"--deadline", "-1"},
        {"--fn-deadline", "1s"},
        {"--fn-deadline", ""},
    };
    for (const auto &[flag, value] : bad) {
        CliResult r = runCli("--spec " + lock + " " + flag + " '" + value +
                             "' " + src);
        EXPECT_EQ(r.exit_code, 2) << flag << " " << value;
        EXPECT_NE(r.output.find(std::string("bad value '") + value +
                                "' for " + flag),
                  std::string::npos)
            << r.output;
    }
    // In-range values, including the bounds, still scan.
    CliResult ok = runCli("--spec " + lock +
                          " --threads 256 --max-paths 1 --max-subcases 1"
                          " --top 0 --solver-fuel 0 --triage-fuel 0"
                          " --deadline 0 --fn-deadline 2.5 " +
                          src);
    EXPECT_EQ(ok.exit_code, 1) << ok.output;
    EXPECT_NE(ok.output.find("unbalanced at return"), std::string::npos);
}

TEST(RidcCli, FailedOutputWriteIsAnError)
{
    // A scan whose --export or --provenance file cannot be written must
    // not exit as if it had been: the open can fail (missing directory)
    // or the write itself (a full device).
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    std::string missing =
        writeTemp("no_such_dir", "") + ".d/sub/out.spec";
    CliResult r =
        runCli("--spec " + lock + " --export " + missing + " " + src);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("cannot write export file: " + missing),
              std::string::npos)
        << r.output;
    EXPECT_FALSE(std::filesystem::exists(missing));

    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full to fail a write on";
    r = runCli("--spec " + lock + " --provenance /dev/full " + src);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("cannot write provenance file: /dev/full"),
              std::string::npos)
        << r.output;
    r = runCli("--spec " + lock + " --export /dev/full " + src);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("cannot write export file: /dev/full"),
              std::string::npos)
        << r.output;
}

TEST(ExampleCli, BadScaleOrSeedWritesNothing)
{
    // corpus_dump and linux_dpm_scan read their positional scale and
    // seed with the same checked parsers as ridc's flags: a value that
    // is not wholly a number in range exits 2 before anything is
    // generated or written.
    std::string out = writeTemp("corpus", "") + ".d";
    std::filesystem::remove_all(out);
    const std::pair<const char *, const char *> bad[] = {
        {"abc", "1"},       {"0.001x", "1"},  {"0", "1"},
        {"-0.5", "1"},      {"inf", "1"},     {"0.001", "0x101z"},
        {"0.001", "-1"},    {"0.001", " 1"},  {"0.001", ""},
        {"0.001", "99999999999999999999999"},
    };
    for (const auto &[scale, seed] : bad) {
        std::string args =
            std::string("'") + scale + "' '" + seed + "' ";
        CliResult dump = runProgram(CORPUS_DUMP_PATH, args + out);
        EXPECT_EQ(dump.exit_code, 2) << scale << " " << seed;
        EXPECT_NE(dump.output.find("corpus_dump: bad value"),
                  std::string::npos)
            << dump.output;
        EXPECT_FALSE(std::filesystem::exists(out)) << scale << " " << seed;

        std::string trace = out + ".trace.json";
        CliResult scan = runProgram(LINUX_DPM_SCAN_PATH, args + trace);
        EXPECT_EQ(scan.exit_code, 2) << scale << " " << seed;
        EXPECT_NE(scan.output.find("linux_dpm_scan: bad value"),
                  std::string::npos)
            << scan.output;
        EXPECT_FALSE(std::filesystem::exists(trace))
            << scale << " " << seed;
    }
    // Hex and decimal seeds, as check.sh and the check target pass them,
    // still dump.
    for (const char *seed : {"0x101", "257"}) {
        CliResult ok = runProgram(CORPUS_DUMP_PATH,
                                  std::string("0.001 ") + seed + " " + out);
        EXPECT_EQ(ok.exit_code, 0) << seed << ": " << ok.output;
        EXPECT_TRUE(std::filesystem::exists(out)) << seed;
        std::filesystem::remove_all(out);
    }
}

TEST(RidcCli, DomainsFilterControlsTheScan)
{
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    CliResult leak = runCli("--spec " + lock + " --domains=lock " + src);
    EXPECT_EQ(leak.exit_code, 1);
    EXPECT_NE(leak.output.find("unbalanced at return"),
              std::string::npos);
    CliResult quiet = runCli("--spec " + lock + " --domains ref " + src);
    EXPECT_EQ(quiet.exit_code, 0);
    EXPECT_NE(quiet.output.find("0 report(s)"), std::string::npos);
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(RidcCli, OutputIsByteIdenticalAcrossThreadsAndRepeats)
{
    // The injected corpus with seeded FP-inducers, dumped to files: ridc
    // stdout, the exported summaries and the provenance journal must not
    // depend on the thread count or differ between repeated runs.
    auto mix = kernel::CorpusMix::cleanCalibrated(0.01);
    mix.counts[kernel::PatternKind::FpBitmask] = 6;
    mix.counts[kernel::PatternKind::FpListOp] = 5;
    auto injected = kernel::generateInjectedCorpus(
        mix, kernel::InjectionPlan::calibrated(mix));
    std::string args = "--builtin-dpm --spec " +
                       writeTemp("lock.spec", kernel::lockSpecText()) +
                       " --spec " +
                       writeTemp("alloc.spec", kernel::allocSpecText());
    for (size_t i = 0; i < injected.corpus.files.size(); i++)
        args += " " + writeTemp("unit" + std::to_string(i) + ".c",
                                injected.corpus.files[i].text);

    struct Outputs
    {
        std::string stdout_text, exported, journal;
    };
    auto scan = [&](int threads, int repeat) {
        std::string tag =
            "t" + std::to_string(threads) + "r" + std::to_string(repeat);
        std::string exported = writeTemp(tag + ".export", "");
        std::string journal = writeTemp(tag + ".jsonl", "");
        CliResult r = runCli("--threads " + std::to_string(threads) +
                                 " --export " + exported +
                                 " --provenance " + journal + " " + args,
                             "/dev/null");
        EXPECT_EQ(r.exit_code, 1) << tag;  // the injected bugs are found
        return Outputs{r.output, readAll(exported), readAll(journal)};
    };
    Outputs base = scan(1, 0);
    EXPECT_FALSE(base.stdout_text.empty());
    EXPECT_FALSE(base.exported.empty());
    EXPECT_FALSE(base.journal.empty());
    for (auto [threads, repeat] :
         {std::pair{1, 1}, std::pair{4, 0}, std::pair{4, 1}}) {
        Outputs o = scan(threads, repeat);
        EXPECT_EQ(o.stdout_text, base.stdout_text)
            << "threads " << threads << " repeat " << repeat;
        EXPECT_EQ(o.exported, base.exported)
            << "threads " << threads << " repeat " << repeat;
        EXPECT_EQ(o.journal, base.journal)
            << "threads " << threads << " repeat " << repeat;
    }

    // A cold --store run writes one function frame per function, whose
    // payload must not depend on the thread count either. Frame order
    // and checkpoint frames follow the schedule, so frames are keyed by
    // the function name that opens each payload (u32 length + bytes).
    auto storeFrames = [&](int threads, int repeat) {
        std::string tag = "store_t" + std::to_string(threads) + "r" +
                          std::to_string(repeat);
        std::string dir = writeTemp(tag, "") + ".d";
        std::filesystem::remove_all(dir);
        CliResult r = runCli("--threads " + std::to_string(threads) +
                                 " --store " + dir + " " + args,
                             "/dev/null");
        EXPECT_EQ(r.exit_code, 1) << tag;
        store::WalScan wal = store::scanWal(readAll(dir + "/analysis.wal"));
        std::filesystem::remove_all(dir);
        EXPECT_TRUE(wal.header_ok) << tag;
        EXPECT_EQ(wal.torn_frames, 0u) << tag;
        std::map<std::string, std::string> frames;
        for (auto &frame : wal.frames) {
            if (frame.type != store::kFrameFunction)
                continue;
            const std::string &p = frame.payload;
            uint32_t n = 0;
            for (size_t k = 0; k < 4 && k < p.size(); k++)
                n |= static_cast<uint32_t>(static_cast<uint8_t>(p[k]))
                     << (8 * k);
            std::string name = p.substr(std::min<size_t>(4, p.size()), n);
            EXPECT_TRUE(frames.emplace(name, std::move(frame.payload)).second)
                << tag << ": two frames for " << name;
        }
        return frames;
    };
    std::map<std::string, std::string> base_frames = storeFrames(1, 0);
    EXPECT_FALSE(base_frames.empty());
    for (auto [threads, repeat] :
         {std::pair{1, 1}, std::pair{4, 0}, std::pair{4, 1}}) {
        std::map<std::string, std::string> frames =
            storeFrames(threads, repeat);
        EXPECT_EQ(frames.size(), base_frames.size())
            << "threads " << threads << " repeat " << repeat;
        for (const auto &[name, payload] : base_frames) {
            auto it = frames.find(name);
            if (it == frames.end()) {
                ADD_FAILURE() << "threads " << threads << " repeat "
                              << repeat << ": no frame for " << name;
                continue;
            }
            EXPECT_EQ(it->second, payload)
                << "threads " << threads << " repeat " << repeat << ": "
                << name;
        }
    }
}

} // anonymous namespace
} // namespace rid
