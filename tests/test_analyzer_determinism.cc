/**
 * @file
 * Determinism regression suite for the whole analyzer.
 *
 * analyzer.cc claims its results are deterministic: path-level results
 * are collected per path index, SCC levels only parallelize independent
 * components, and the IPP drop choice is seeded. This suite pins those
 * guarantees down across the full option matrix the shared query cache
 * introduced: threads/path_threads in {1, 4} x query cache {on, off}
 * must all produce byte-identical sorted report sets AND byte-identical
 * summary exports on a representative corpus (the synthetic DPM corpus
 * plus the paper's Figure 9 wrapper example).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/rid.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "kernel/inject.h"
#include "kernel/score.h"
#include "obs/failpoint.h"
#include "obs/provenance.h"
#include "smt/intern.h"
#include "summary/spec.h"

namespace rid {
namespace {

/** Figure 9 of the paper (also used by examples/ and bench/): a wrapper
 *  whose summary is computed, plus a caller with an early-exit bug. */
const char *kFigure9Source = R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
int idmouse_open(struct usb_interface *interface) {
    int result;
    result = usb_autopm_get_interface(interface);
    if (result)
        goto error;
    result = idmouse_create_image(interface);
    if (result)
        goto error;
    usb_autopm_put_interface(interface);
error:
    return result;
}
int idmouse_create_image(struct usb_interface *i);
void usb_autopm_put_interface(struct usb_interface *i);
)";

/**
 * One full analysis run; the digest is the sorted report multiset, the
 * (name-ordered) computed-summary export and the (name-ordered)
 * function diagnostics, so any divergence in reports, report contents,
 * summaries or degradation outcomes shows up byte-for-byte.
 * With @p trace the run records spans (including per-solver-query
 * spans), which must not perturb any result.
 */
std::string
runDigest(const kernel::Corpus &corpus, int threads, int path_threads,
          bool cache, bool trace = false, double run_deadline = 0,
          double fn_deadline = 0, uint64_t solver_fuel = 0,
          bool prefix_sharing = true, const std::string &failpoints = "",
          const std::vector<std::string> &enabled_domains = {},
          bool load_domain_specs = false, bool compact = true,
          bool intern = true)
{
    analysis::AnalyzerOptions opts;
    opts.threads = threads;
    opts.path_threads = path_threads;
    opts.use_query_cache = cache;
    opts.compact_summaries = compact;
    opts.intern_instantiations = intern;
    opts.run_deadline_seconds = run_deadline;
    opts.function_deadline_seconds = fn_deadline;
    opts.function_solver_fuel = solver_fuel;
    opts.prefix_sharing = prefix_sharing;
    opts.failpoints = failpoints;
    opts.enabled_domains = enabled_domains;
    if (trace) {
        opts.tracer = std::make_shared<obs::Tracer>();
        opts.trace_solver_queries = true;
    }
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    if (load_domain_specs) {
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
    }
    tool.addSource(kFigure9Source);
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    RunResult result = tool.run();
    if (!failpoints.empty())
        obs::FailpointRegistry::instance().disarm();

    std::multiset<std::string> reports;
    for (const auto &report : result.reports)
        reports.insert(report.str());
    std::string digest;
    for (const auto &line : reports)
        digest += line + "\n";
    digest += "--- summaries ---\n";
    digest += tool.exportSummaries();
    digest += "--- diagnostics ---\n";
    for (const auto &d : result.diagnostics)
        digest += d.function + " " + analysis::fnStatusName(d.status) +
                  " " + d.reason + "\n";
    return digest;
}

/** Reports + diagnostics only — the contract summary compaction pins:
 *  it may reshape exported summaries (that is its job) but must not
 *  move a single report or degradation outcome. */
std::string
stripSummaries(const std::string &digest)
{
    size_t summaries = digest.find("--- summaries ---\n");
    size_t diagnostics = digest.find("--- diagnostics ---\n");
    if (summaries == std::string::npos ||
        diagnostics == std::string::npos)
        return digest;
    return digest.substr(0, summaries) + digest.substr(diagnostics);
}

/**
 * What ridc prints to stderr for one run, minus the timing line:
 * RunResult::str(), its reports in emitted (unsorted) order. Both
 * shared caches are off, since their hit counts legitimately depend on
 * scheduling.
 */
std::string
emittedRun(const kernel::Corpus &corpus, int threads)
{
    analysis::AnalyzerOptions opts;
    opts.threads = threads;
    opts.use_query_cache = false;
    opts.intern_instantiations = false;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    tool.addSource(kFigure9Source);
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    std::string text = tool.run().str();
    size_t phases = text.find("phases: ");
    if (phases != std::string::npos)
        text.erase(phases, text.find('\n', phases) + 1 - phases);
    return text;
}

class AnalyzerDeterminismTest : public ::testing::Test
{
  protected:
    static kernel::Corpus corpus_;
    static kernel::Corpus multi_corpus_;

    static void
    SetUpTestSuite()
    {
        corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
        multi_corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::multiDomain(0.001, /*domain_count=*/4));
    }
};

kernel::Corpus AnalyzerDeterminismTest::corpus_;
kernel::Corpus AnalyzerDeterminismTest::multi_corpus_;

TEST_F(AnalyzerDeterminismTest, ThreadsByCacheMatrixIsByteIdentical)
{
    std::string baseline = runDigest(corpus_, 1, 1, false);
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4}) {
        for (bool cache : {false, true}) {
            if (threads == 1 && !cache)
                continue;  // that is the baseline itself
            EXPECT_EQ(runDigest(corpus_, threads, threads, cache),
                      baseline)
                << "threads=" << threads << " cache=" << cache;
        }
    }
}

TEST_F(AnalyzerDeterminismTest, TracingDoesNotPerturbResults)
{
    // Span recording (including per-query solver spans) must be purely
    // observational: the digest stays byte-identical to the untraced
    // baseline at every thread count.
    std::string baseline = runDigest(corpus_, 1, 1, true);
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, threads, true, true),
                  baseline)
            << "threads=" << threads << " trace=on";
    }
}

TEST_F(AnalyzerDeterminismTest, RepeatedRunsAreByteIdentical)
{
    // Same configuration twice: catches any residual run-to-run
    // nondeterminism (iteration over pointer-keyed containers, races on
    // the shared cache, ...).
    EXPECT_EQ(runDigest(corpus_, 4, 4, true), runDigest(corpus_, 4, 4, true));
}

TEST_F(AnalyzerDeterminismTest, EmittedReportOrderIsThreadInvariant)
{
    // Unsorted: SCC-level workers finish in any order, yet the emitted
    // report list must be the sequential (reverse-topological) order,
    // byte for byte, on every thread count and every repetition.
    std::string baseline = emittedRun(multi_corpus_, 1);
    ASSERT_NE(baseline.find("idmouse_open"), std::string::npos);
    for (int rep = 0; rep < 3; rep++) {
        for (int threads : {1, 4}) {
            EXPECT_EQ(emittedRun(multi_corpus_, threads), baseline)
                << "threads=" << threads << " rep=" << rep;
        }
    }
}

TEST_F(AnalyzerDeterminismTest, GenerousBudgetIsByteIdenticalToNoBudget)
{
    // The degradation ladder promises: a budget that never fires leaves
    // the run byte-identical to an unbudgeted one — attaching budgets to
    // the solver, path enumerator and symexec must be purely
    // observational until expiry. An hour-scale deadline and huge fuel
    // allowance cannot plausibly fire on this corpus.
    std::string baseline = runDigest(corpus_, 1, 1, true);
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, threads, true, false,
                            /*run_deadline=*/3600,
                            /*fn_deadline=*/3600,
                            /*solver_fuel=*/1ull << 60),
                  baseline)
            << "threads=" << threads << " with generous budget";
    }
}

TEST_F(AnalyzerDeterminismTest, PrefixSharingMatchesReplayEngine)
{
    // The tentpole differential: the prefix-sharing tree executor and
    // the enumerate-then-replay pipeline must produce byte-identical
    // reports, summaries AND diagnostics over the full corpus, at every
    // thread count and cache setting. The replay engine is the
    // reference semantics; any divergence is a bug in the tree walk.
    std::string replay = runDigest(corpus_, 1, 1, false, false, 0, 0, 0,
                                   /*prefix_sharing=*/false);
    ASSERT_FALSE(replay.empty());
    for (int threads : {1, 4}) {
        for (bool cache : {false, true}) {
            EXPECT_EQ(runDigest(corpus_, threads, threads, cache, false,
                                0, 0, 0, /*prefix_sharing=*/true),
                      replay)
                << "prefix_sharing=on threads=" << threads
                << " cache=" << cache;
            EXPECT_EQ(runDigest(corpus_, threads, threads, cache, false,
                                0, 0, 0, /*prefix_sharing=*/false),
                      replay)
                << "prefix_sharing=off threads=" << threads
                << " cache=" << cache;
        }
    }
}

TEST_F(AnalyzerDeterminismTest, PrefixSharingMatchesReplayUnderBudgets)
{
    // Generous budgets (which never fire) must leave both engines
    // byte-identical to each other: budget plumbing — per-node checks in
    // the tree walk, per-block checks under replay — is purely
    // observational until expiry.
    std::string replay =
        runDigest(corpus_, 1, 1, true, false, /*run_deadline=*/3600,
                  /*fn_deadline=*/3600, /*solver_fuel=*/1ull << 60,
                  /*prefix_sharing=*/false);
    EXPECT_EQ(runDigest(corpus_, 1, 1, true, false, 3600, 3600,
                        1ull << 60, /*prefix_sharing=*/true),
              replay);

    // Solver fuel of 1: any function issuing at least one non-trivial
    // query degrades to Timeout ("budget: fuel"). The engines issue
    // different query COUNTS (that is the whole point of prefix
    // sharing) but the set of functions making >= 1 query is the same,
    // so fuel accounting degrades the same functions with the same
    // diagnostics under both engines.
    std::string replay_fuel =
        runDigest(corpus_, 1, 1, false, false, 0, 0, /*solver_fuel=*/1,
                  /*prefix_sharing=*/false);
    EXPECT_EQ(runDigest(corpus_, 1, 1, false, false, 0, 0, 1,
                        /*prefix_sharing=*/true),
              replay_fuel);
    EXPECT_NE(replay_fuel.find("budget: fuel"), std::string::npos);
}

TEST_F(AnalyzerDeterminismTest, PrefixSharingMatchesReplayUnderFaults)
{
    // Targeted always-faults fire on the first hit inside the victim
    // function under either engine, so fault isolation (degrade the
    // victim, keep every bystander byte-identical) must make whole-run
    // digests engine-independent. Covers the shared per-path site, the
    // path-discovery site the tree walk subsumes, and a solver fault.
    for (const char *spec :
         {"analysis.symexec.path@idmouse_open=always",
          "analysis.paths.enumerate@usb_autopm_get_interface=always",
          "smt.solver.check@idmouse_open=always"}) {
        std::string replay = runDigest(corpus_, 1, 1, true, false, 0, 0,
                                       0, /*prefix_sharing=*/false, spec);
        EXPECT_EQ(runDigest(corpus_, 1, 1, true, false, 0, 0, 0,
                            /*prefix_sharing=*/true, spec),
                  replay)
            << "failpoints=" << spec;
        EXPECT_NE(replay.find("degraded"), std::string::npos)
            << "fault did not fire under spec " << spec << ":\n"
            << replay;
    }
}

TEST_F(AnalyzerDeterminismTest, RefOnlyDomainFilterIsByteIdentical)
{
    // The effect-domain differential, part 1: enabling only the `ref`
    // domain must reproduce the pre-domain run exactly — same reports,
    // same summaries, same diagnostics — across thread counts and both
    // engines. The filter machinery (seed selection, the IPP pre-pass)
    // must be invisible when it selects everything there is.
    std::string baseline = runDigest(corpus_, 1, 1, false);
    for (int threads : {1, 4}) {
        for (bool prefix : {false, true}) {
            EXPECT_EQ(runDigest(corpus_, threads, threads, false, false,
                                0, 0, 0, prefix, "", {"ref"}),
                      baseline)
                << "threads=" << threads << " prefix=" << prefix
                << " domains=ref";
        }
    }
}

TEST_F(AnalyzerDeterminismTest, DomainSpecsDoNotPerturbRefScan)
{
    // Part 2: merely loading the lock/kmalloc specs (which declare two
    // balanced-policy domains and so activate the balanced pre-pass)
    // must not change a single byte of the refcount scan when the
    // corpus never calls a lock/alloc primitive.
    std::string baseline = runDigest(corpus_, 1, 1, false);
    EXPECT_EQ(runDigest(corpus_, 1, 1, false, false, 0, 0, 0, true, "",
                        {}, /*load_domain_specs=*/true),
              baseline);
}

TEST_F(AnalyzerDeterminismTest, MultiDomainScanIsByteIdentical)
{
    // A corpus that mixes refcount, lock and alloc patterns, analyzed
    // with all three domains' specs loaded, must stay byte-identical
    // across the same matrix the refcount corpus is pinned on.
    std::string baseline = runDigest(multi_corpus_, 1, 1, false, false,
                                     0, 0, 0, true, "", {}, true);
    ASSERT_NE(baseline.find("unbalanced at return"), std::string::npos)
        << "multi-domain corpus produced no balanced-policy reports";
    for (int threads : {1, 4}) {
        for (bool prefix : {false, true}) {
            EXPECT_EQ(runDigest(multi_corpus_, threads, threads, true,
                                false, 0, 0, 0, prefix, "", {}, true),
                      baseline)
                << "threads=" << threads << " prefix=" << prefix
                << " multi-domain";
        }
    }
    // Filtering the same corpus down to `ref` suppresses every
    // balanced-policy report deterministically.
    std::string ref_only = runDigest(multi_corpus_, 1, 1, false, false,
                                     0, 0, 0, true, "", {"ref"}, true);
    EXPECT_EQ(ref_only.find("unbalanced at return"), std::string::npos);
    EXPECT_EQ(runDigest(multi_corpus_, 4, 4, true, false, 0, 0, 0, true,
                        "", {"ref"}, true),
              ref_only);
}

TEST_F(AnalyzerDeterminismTest, CompactionPreservesReportsAndDiagnostics)
{
    // Summary compaction merges call-boundary-indistinguishable entries
    // AFTER the function's own reports and diagnostics are final, so
    // toggling it may only change the summary export — reports and
    // diagnostics must stay byte-identical to the uncompacted run,
    // across thread counts and both engines.
    std::string baseline = stripSummaries(
        runDigest(corpus_, 1, 1, false, false, 0, 0, 0, true, "", {},
                  false, /*compact=*/false));
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4}) {
        for (bool prefix : {false, true}) {
            for (bool compact : {false, true}) {
                if (threads == 1 && prefix && !compact)
                    continue;  // the baseline itself
                EXPECT_EQ(stripSummaries(runDigest(
                              corpus_, threads, threads, false, false, 0,
                              0, 0, prefix, "", {}, false, compact)),
                          baseline)
                    << "threads=" << threads << " prefix=" << prefix
                    << " compact=" << compact;
            }
        }
    }
}

TEST_F(AnalyzerDeterminismTest, InterningIsByteIdenticalIncludingSummaries)
{
    // The instantiation cache is pure memoization: a hit returns exactly
    // what a fresh instantiate() would have produced, so the FULL digest
    // — reports, summaries and diagnostics — is byte-identical with the
    // cache off and on, across thread counts and both engines.
    // (Compaction is off so the summaries section exercises the raw
    // per-entry path.)
    std::string baseline =
        runDigest(corpus_, 1, 1, false, false, 0, 0, 0, true, "", {},
                  false, /*compact=*/false, /*intern=*/false);
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4}) {
        for (bool prefix : {false, true}) {
            for (bool intern : {false, true}) {
                if (threads == 1 && prefix && !intern)
                    continue;  // the baseline itself
                EXPECT_EQ(runDigest(corpus_, threads, threads, false,
                                    false, 0, 0, 0, prefix, "", {},
                                    false, false, intern),
                          baseline)
                    << "threads=" << threads << " prefix=" << prefix
                    << " intern=" << intern;
            }
        }
    }
}

class InjectedDeterminismTest : public ::testing::Test
{
  protected:
    static kernel::InjectedCorpus injected_;
    static kernel::InjectedCorpus triage_injected_;

    static void
    SetUpTestSuite()
    {
        auto mix = kernel::CorpusMix::cleanCalibrated(0.05);
        injected_ = kernel::generateInjectedCorpus(
            mix, kernel::InjectionPlan::calibrated(mix));
        // The triage differential needs both tier extremes represented:
        // injected true positives (confirmed) and seeded Section 6.4
        // FP-inducers (refuted).
        auto tmix = kernel::CorpusMix::cleanCalibrated(0.01);
        tmix.counts[kernel::PatternKind::FpBitmask] = 6;
        tmix.counts[kernel::PatternKind::FpListOp] = 5;
        triage_injected_ = kernel::generateInjectedCorpus(
            tmix, kernel::InjectionPlan::calibrated(tmix));
    }

    /** One triaged run's full ordered report list: rank, fingerprint
     *  and the tier-suffixed rendering — any tier or rank divergence
     *  across configurations shows up byte-for-byte. */
    static std::string
    triageDigest(int path_threads, bool prefix_sharing, bool cache)
    {
        analysis::AnalyzerOptions opts;
        opts.path_threads = path_threads;
        opts.prefix_sharing = prefix_sharing;
        opts.use_query_cache = cache;
        opts.triage = true;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : triage_injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();
        EXPECT_FALSE(result.reports.empty());
        std::string digest;
        for (const auto &report : result.reports)
            digest += std::to_string(report.rank) + " " +
                      obs::fpHex(report.fingerprint) + " " +
                      report.str() + "\n";
        return digest;
    }

    struct ScoredRun
    {
        std::string digest;
        kernel::ScoreResult score;
    };

    /** Sorted fingerprint set of one run (one fpHex + report line per
     *  report), asserting every report is stamped. */
    static std::string
    fingerprintDigest(int path_threads, bool prefix_sharing, bool cache)
    {
        analysis::AnalyzerOptions opts;
        opts.path_threads = path_threads;
        opts.prefix_sharing = prefix_sharing;
        opts.use_query_cache = cache;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();
        EXPECT_FALSE(result.reports.empty());
        std::multiset<std::string> lines;
        for (const auto &report : result.reports) {
            EXPECT_NE(report.fingerprint, 0u) << report.str();
            EXPECT_NE(report.function_fp, 0u) << report.str();
            EXPECT_EQ(report.fingerprint,
                      report.computeFingerprint(report.function_fp));
            lines.insert(obs::fpHex(report.fingerprint) + " " +
                         report.str());
        }
        std::string digest;
        for (const auto &line : lines)
            digest += line + "\n";
        return digest;
    }

    static ScoredRun
    run(int path_threads, bool prefix_sharing, bool compact = true,
        bool intern = true)
    {
        analysis::AnalyzerOptions opts;
        opts.path_threads = path_threads;
        opts.prefix_sharing = prefix_sharing;
        opts.compact_summaries = compact;
        opts.intern_instantiations = intern;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();

        ScoredRun out;
        std::multiset<std::string> reports;
        for (const auto &report : result.reports)
            reports.insert(report.str());
        for (const auto &line : reports)
            out.digest += line + "\n";
        out.score = kernel::scoreReports(
            injected_.injections, injected_.corpus.truth,
            kernel::claimsFrom(result.reports));
        return out;
    }
};

kernel::InjectedCorpus InjectedDeterminismTest::injected_;
kernel::InjectedCorpus InjectedDeterminismTest::triage_injected_;

TEST_F(InjectedDeterminismTest, TriageTiersAndRanksAreConfigInvariant)
{
    // The triage contract: tiers and ranks are byte-identical across
    // path_threads {1, 4} x both engines x query cache {on, off}. The
    // digest is the rank-ordered report list, so a rank permutation is
    // as visible as a tier flip.
    std::string baseline =
        triageDigest(1, /*prefix_sharing=*/false, /*cache=*/false);
    ASSERT_FALSE(baseline.empty());
    // Non-vacuity: both tier extremes are present in the baseline.
    ASSERT_NE(baseline.find("{confirmed}"), std::string::npos)
        << baseline;
    ASSERT_NE(baseline.find("{refuted}"), std::string::npos) << baseline;
    for (int path_threads : {1, 4}) {
        for (bool prefix : {false, true}) {
            for (bool cache : {false, true}) {
                if (path_threads == 1 && !prefix && !cache)
                    continue;  // the baseline itself
                EXPECT_EQ(triageDigest(path_threads, prefix, cache),
                          baseline)
                    << "path_threads=" << path_threads
                    << " prefix_sharing=" << prefix << " cache=" << cache;
            }
        }
    }
}

TEST_F(InjectedDeterminismTest, InjectedScoresAreEngineAndThreadInvariant)
{
    // The ground-truth scores are a *measurement* — they must not move
    // with the execution strategy. Scale-0.05 injected corpus: reports
    // byte-identical and precision/recall identical across path_threads
    // {1, 4} and both engines (the replay pipeline is the reference).
    ASSERT_GT(injected_.injections.size(), 10u);
    ScoredRun baseline = run(1, /*prefix_sharing=*/false);
    ASSERT_FALSE(baseline.digest.empty());
    // The clean-mix injected corpus scores perfectly in the reference
    // configuration (the bench gate's smoke invariant).
    EXPECT_EQ(baseline.score.total.fp, 0);
    EXPECT_EQ(baseline.score.total.fn, 0);
    EXPECT_EQ(baseline.score.total.tp,
              static_cast<int>(injected_.injections.size()));

    for (int path_threads : {1, 4}) {
        for (bool prefix : {false, true}) {
            if (path_threads == 1 && !prefix)
                continue;  // the baseline itself
            ScoredRun other = run(path_threads, prefix);
            EXPECT_EQ(other.digest, baseline.digest)
                << "path_threads=" << path_threads
                << " prefix_sharing=" << prefix;
            EXPECT_EQ(other.score.total.tp, baseline.score.total.tp);
            EXPECT_EQ(other.score.total.fp, baseline.score.total.fp);
            EXPECT_EQ(other.score.total.fn, baseline.score.total.fn);
            EXPECT_EQ(other.score.total.precision(),
                      baseline.score.total.precision());
            EXPECT_EQ(other.score.total.recall(),
                      baseline.score.total.recall());
            ASSERT_EQ(other.score.by_domain.size(),
                      baseline.score.by_domain.size());
            for (const auto &[domain, counts] : baseline.score.by_domain) {
                const auto &oc = other.score.by_domain.at(domain);
                EXPECT_EQ(oc.precision(), counts.precision()) << domain;
                EXPECT_EQ(oc.recall(), counts.recall()) << domain;
            }
        }
    }
}

TEST_F(InjectedDeterminismTest, CompactionAndInterningDoNotMoveScores)
{
    // Ground-truth scores on the injected corpus must survive both
    // perf attacks: report digests and per-domain precision/recall are
    // identical with compaction and interning toggled in every
    // combination, across path_threads {1, 4} and both engines.
    ScoredRun baseline =
        run(1, /*prefix_sharing=*/false, /*compact=*/false,
            /*intern=*/false);
    ASSERT_FALSE(baseline.digest.empty());
    for (int path_threads : {1, 4}) {
        for (bool prefix : {false, true}) {
            for (bool compact : {false, true}) {
                for (bool intern : {false, true}) {
                    if (path_threads == 1 && !prefix && !compact &&
                        !intern)
                        continue;  // the baseline itself
                    ScoredRun other =
                        run(path_threads, prefix, compact, intern);
                    EXPECT_EQ(other.digest, baseline.digest)
                        << "path_threads=" << path_threads
                        << " prefix=" << prefix
                        << " compact=" << compact
                        << " intern=" << intern;
                    EXPECT_EQ(other.score.total.tp,
                              baseline.score.total.tp);
                    EXPECT_EQ(other.score.total.fp,
                              baseline.score.total.fp);
                    EXPECT_EQ(other.score.total.fn,
                              baseline.score.total.fn);
                }
            }
        }
    }
}

TEST_F(InjectedDeterminismTest, BodyFingerprintsArePinned)
{
    // Body fingerprints key the store and seed every report fingerprint,
    // so they are pinned twice: to the printed IR they are defined over,
    // and to a recorded digest of every (name, fingerprint) pair.
    Rid tool;
    for (const auto &file : triage_injected_.corpus.files)
        tool.addSource(file.text);
    uint64_t digest = smt::fpBytes("rid-body-fingerprints");
    for (const auto &fn : tool.module().functions()) {
        EXPECT_EQ(fn->fingerprint(), smt::fpBytes(fn->str()))
            << fn->name();
        digest = smt::fpCombine(digest, smt::fpBytes(fn->name()));
        digest = smt::fpCombine(digest, fn->fingerprint());
    }
    EXPECT_EQ(tool.module().size(), 2845u);
    EXPECT_EQ(obs::fpHex(digest), "0x669e6302a3619327");
}

TEST_F(InjectedDeterminismTest, ClassifierSharesTheRunCallGraph)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    for (const auto &file : injected_.corpus.files)
        tool.addSource(file.text);
    const ir::Module &mod = tool.module();
    std::vector<std::string> seeds = tool.summaries().namesWithChanges();

    // A classifier over a shared graph classifies exactly like one that
    // builds its own.
    analysis::CallGraph cg(mod);
    analysis::FunctionClassifier shared(mod, cg, seeds);
    analysis::FunctionClassifier own(mod, seeds);
    size_t refcount_changing = 0;
    for (int node = 0; node < static_cast<int>(cg.size()); node++) {
        const std::string &name = cg.nameOf(node);
        EXPECT_EQ(shared.categoryOf(name), own.categoryOf(name)) << name;
        EXPECT_EQ(shared.categoryOfNode(node), own.categoryOf(name))
            << name;
        refcount_changing +=
            own.categoryOf(name) == analysis::Category::RefcountChanging;
    }
    EXPECT_GT(refcount_changing, 0u);

    // A traced run builds one call graph, shared by classification, the
    // resume plan and the traversal.
    analysis::AnalyzerOptions opts;
    opts.tracer = std::make_shared<obs::Tracer>();
    summary::SummaryDb db;
    summary::loadSpecsInto(kernel::dpmSpecText(), db);
    summary::loadSpecsInto(kernel::lockSpecText(), db);
    summary::loadSpecsInto(kernel::allocSpecText(), db);
    analysis::Analyzer analyzer(mod, db, opts);
    analyzer.run();
    size_t builds = 0;
    for (const auto &event : opts.tracer->sortedEvents())
        builds += std::string(event.name) == "callgraph";
    EXPECT_EQ(builds, 1u);
    ASSERT_NE(analyzer.classifier(), nullptr);
    EXPECT_EQ(analyzer.classifier()->stats().refcount_changing,
              own.stats().refcount_changing);
}

TEST_F(InjectedDeterminismTest, TriageSharesTheRunCallGraph)
{
    // The triage pass walks the analyzer's call graph for its
    // downstream-release search instead of building a second one. The
    // run's tracer is made ambient for the whole run, triage included,
    // so any extra build would record a second span.
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    opts.tracer = std::make_shared<obs::Tracer>();
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    for (const auto &file : triage_injected_.corpus.files)
        tool.addSource(file.text);
    RunResult result;
    {
        obs::ScopedTracer scoped(opts.tracer.get());
        result = tool.run();
    }
    EXPECT_GT(result.triage.extension_searches, 0u);
    size_t builds = 0;
    for (const auto &event : opts.tracer->sortedEvents())
        builds += std::string(event.name) == "callgraph";
    EXPECT_EQ(builds, 1u);
}

TEST_F(InjectedDeterminismTest, FingerprintsAreConfigInvariant)
{
    // The provenance contract: report fingerprints are a stable identity,
    // byte-identical across path_threads {1, 4} x both engines x query
    // cache {on, off} on the injected smoke corpus. Any configuration
    // leaking into the fingerprint recipe (e.g. cache hit/miss evidence)
    // breaks cross-run diffing and shows up here.
    std::string baseline =
        fingerprintDigest(1, /*prefix_sharing=*/false, /*cache=*/false);
    ASSERT_FALSE(baseline.empty());
    for (int path_threads : {1, 4}) {
        for (bool prefix : {false, true}) {
            for (bool cache : {false, true}) {
                if (path_threads == 1 && !prefix && !cache)
                    continue;  // the baseline itself
                EXPECT_EQ(fingerprintDigest(path_threads, prefix, cache),
                          baseline)
                    << "path_threads=" << path_threads
                    << " prefix_sharing=" << prefix << " cache=" << cache;
            }
        }
    }
}

TEST_F(AnalyzerDeterminismTest, CacheDoesNotChangeReportCount)
{
    // Cheap cross-check on the Figure 9 example alone: the cache must
    // not create or mask reports.
    kernel::Corpus empty;
    std::string with = runDigest(empty, 1, 1, true);
    std::string without = runDigest(empty, 1, 1, false);
    EXPECT_EQ(with, without);
    EXPECT_NE(with.find("idmouse_open"), std::string::npos)
        << "Figure 9 bug not reported; digest:\n"
        << with;
}

} // anonymous namespace
} // namespace rid
