/**
 * @file
 * Byte-level mutation fuzz of the frontend.
 *
 * A deterministic, seeded set of mutants of a few generated corpus files
 * (byte flips, truncations at every 97th byte, token splices and token
 * deletions) is fed to tokenize(), parseUnit(), compile() and
 * Rid::addSourceTolerant(). Every mutant must either be accepted or end
 * in a ParseError, an IrError or a FileDiagnostic: never a crash, a hang
 * or another exception. Untouched files scanned beside a mutant must
 * keep byte-identical reports. Token texts are views into the source
 * buffer, so the ASan+UBSan build of this suite (scripts/check.sh) is
 * where a dangling view would show.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rid.h"
#include "frontend/lower.h"
#include "frontend/parser.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "mutation_util.h"
#include "obs/provenance.h"

namespace rid {
namespace {

using testutil::Mutant;
using testutil::Rng;

constexpr int kFlips = 24;
constexpr int kSplices = 16;
constexpr size_t kTruncateStride = 97;

std::vector<Mutant>
mutantsOf(const std::string &src, uint64_t seed)
{
    std::vector<Mutant> out;
    Rng rng{seed};
    testutil::addFlips(out, src, rng, kFlips);
    testutil::addTruncations(out, src, kTruncateStride);

    // Token boundaries: the offsets of every spelled token in the source.
    std::vector<size_t> starts;
    for (const auto &tok : frontend::tokenize(src))
        if (!tok.text.empty())
            starts.push_back(static_cast<size_t>(tok.text.data() -
                                                 src.data()));
    for (int k = 0; k < kSplices && starts.size() > 2; k++) {
        size_t a = rng.below(starts.size() - 1);
        size_t b = std::min(starts.size() - 1, a + 1 + rng.below(8));
        size_t from = starts[a], len = starts[b] - starts[a];
        size_t to = starts[rng.below(starts.size())];
        std::string splice = src;
        splice.insert(to, src, from, len);
        out.push_back({"splice[" + std::to_string(from) + "+" +
                           std::to_string(len) + "]@" + std::to_string(to),
                       std::move(splice)});
        std::string cut = src;
        cut.erase(from, len);
        out.push_back({"delete[" + std::to_string(from) + "+" +
                           std::to_string(len) + "]",
                       std::move(cut)});
    }
    return out;
}

/** Run @p stage on a mutant; only the frontend's own errors may escape. */
template <typename Fn>
void
expectContained(const char *stage, const Mutant &m, Fn &&stage_fn)
{
    try {
        stage_fn();
    } catch (const frontend::ParseError &) {
    } catch (const ir::IrError &) {
    } catch (const std::exception &e) {
        ADD_FAILURE() << stage << " on " << m.label
                      << ": unexpected exception: " << e.what();
    }
}

class FrontendFuzzTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.01), 0x101);
    }

    /** Sorted report lines of the bystander functions in one scan of the
     *  bystanders plus, optionally, @p extra added tolerantly last. */
    static std::vector<std::string>
    bystanderReports(const std::string *extra, bool *extra_accepted)
    {
        Rid tool;
        tool.loadSpecText(kernel::dpmSpecText());
        for (size_t i : bystanders_)
            tool.addSource(corpus_.files[i].text);
        std::vector<std::string> defined;
        for (const auto &fn : tool.module().functions())
            if (!fn->isDeclaration())
                defined.push_back(fn->name());
        std::sort(defined.begin(), defined.end());
        if (extra) {
            *extra_accepted = tool.addSourceTolerant("mutant.c", *extra);
            EXPECT_EQ(tool.fileDiagnostics().size(),
                      *extra_accepted ? 0u : 1u);
        }
        RunResult result = tool.run();
        std::vector<std::string> lines;
        for (const auto &r : result.reports)
            if (std::binary_search(defined.begin(), defined.end(),
                                   r.function))
                lines.push_back(obs::fpHex(r.fingerprint) + " " + r.str());
        std::sort(lines.begin(), lines.end());
        return lines;
    }

    static kernel::Corpus corpus_;
    /** Files that are mutated, and files scanned untouched beside each
     *  mutant (every generated file holds refcount-changing code). */
    static constexpr size_t targets_[] = {0, 1, 2};
    static constexpr size_t bystanders_[] = {3, 4};
};

kernel::Corpus FrontendFuzzTest::corpus_;

TEST_F(FrontendFuzzTest, MutantsAreAcceptedOrRejectedCleanly)
{
    ASSERT_GT(corpus_.files.size(), 4u);
    const std::vector<std::string> baseline = bystanderReports(nullptr,
                                                               nullptr);
    ASSERT_FALSE(baseline.empty());

    size_t mutants = 0, rejected = 0;
    for (size_t target : targets_) {
        const std::string &original = corpus_.files[target].text;
        // The unmutated file compiles and leaves the bystanders alone, so
        // any difference below is the mutation's doing.
        bool accepted = false;
        EXPECT_EQ(bystanderReports(&original, &accepted), baseline);
        EXPECT_TRUE(accepted);

        for (const Mutant &m : mutantsOf(original, 0x5eed + target)) {
            mutants++;
            expectContained("tokenize", m,
                            [&] { frontend::tokenize(m.text); });
            expectContained("parseUnit", m,
                            [&] { frontend::parseUnit(m.text); });
            expectContained("compile", m,
                            [&] { frontend::compile(m.text); });
            bool ok = false;
            EXPECT_EQ(bystanderReports(&m.text, &ok), baseline) << m.label;
            rejected += !ok;
        }
    }
    // The schedule exercises both outcomes.
    EXPECT_GT(rejected, 0u);
    EXPECT_LT(rejected, mutants);
}

} // anonymous namespace
} // namespace rid
