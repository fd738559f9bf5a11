/**
 * @file
 * Unit tests for the prefix-sharing tree executor and its supporting
 * data structures: the copy-on-write value map (analysis/cow.h), the
 * persistent path-condition chain (smt/cond_chain.h) plus its
 * Solver::checkChain contract, the executeFunctionTree equivalence
 * with enumerate-then-replay, the blocks/forks/pruned counters, and
 * the feasible-only truncation semantics (with pruning enabled,
 * max_paths counts only feasible completed paths and the truncation
 * diagnostic says how many infeasible subtrees were pruned).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/cow.h"
#include "analysis/paths.h"
#include "analysis/symexec.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/dpm_specs.h"
#include "smt/cond_chain.h"
#include "smt/solver.h"
#include "summary/spec.h"

namespace rid {
namespace {

using analysis::CowMap;
using smt::CondChain;
using smt::Expr;
using smt::Formula;
using smt::Pred;
using smt::SatResult;
using smt::Solver;

// ---------------------------------------------------------------- CowMap

TEST(CowMap, SetLookupAndShadowing)
{
    CowMap<std::string, int> m;
    EXPECT_EQ(m.lookup("x"), nullptr);
    m.set("x", 1);
    ASSERT_NE(m.lookup("x"), nullptr);
    EXPECT_EQ(*m.lookup("x"), 1);
    m.set("x", 2);  // rebinding shadows, never erases
    EXPECT_EQ(*m.lookup("x"), 2);
    EXPECT_EQ(m.size(), 1u);
}

TEST(CowMap, FreezeSharesBindingsBetweenForks)
{
    CowMap<std::string, int> parent;
    parent.set("a", 1);
    parent.set("b", 2);
    parent.freeze();
    CowMap<std::string, int> child = parent;  // O(1): shared frozen chain

    child.set("b", 3);  // only touches the child's overlay
    EXPECT_EQ(*parent.lookup("b"), 2);
    EXPECT_EQ(*child.lookup("b"), 3);
    EXPECT_EQ(*child.lookup("a"), 1);  // read through the shared layer

    auto flat = child.flattened();
    EXPECT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat.at("a"), 1);
    EXPECT_EQ(flat.at("b"), 3);
}

TEST(CowMap, DeepChainsCompactAndStayCorrect)
{
    using IntMap = CowMap<int, int>;
    IntMap m;
    for (int i = 0; i < 4 * IntMap::kCompactDepth; i++) {
        m.set(i, i);
        m.set(0, i);  // keep rebinding one key across layers
        m.freeze();
    }
    // Compaction bounds the frozen chain well below the write count.
    EXPECT_LE(m.depth(), IntMap::kCompactDepth);
    // The newest binding still wins after flattening.
    int last = 4 * IntMap::kCompactDepth - 1;
    EXPECT_EQ(*m.lookup(0), last);
    EXPECT_EQ(*m.lookup(last), last);
    EXPECT_EQ(m.size(), static_cast<size_t>(last + 1));
}

// -------------------------------------------------------------- CondChain

Formula
lit(const char *a, Pred p, int64_t k)
{
    return Formula::lit(Expr::cmp(p, Expr::arg(a), Expr::intConst(k)));
}

TEST(CondChain, FormulaMatchesConjOfParts)
{
    // The equivalence contract: formula() is structurally identical to
    // Formula::conj of the raw parts in push order — True parts dropped,
    // duplicate conjuncts deduplicated, same fingerprint (so the solver
    // query cache keys match between engines).
    int tag_a = 0, tag_b = 0;
    CondChain chain;
    chain = chain.extended(&tag_a, lit("x", Pred::Gt, 5));
    chain = chain.extended(&tag_a, Formula::top());      // dropped
    chain = chain.extended(&tag_b, lit("y", Pred::Lt, 3));
    chain = chain.extended(&tag_b, lit("x", Pred::Gt, 5));  // dedup

    Formula batch = Formula::conj({lit("x", Pred::Gt, 5), Formula::top(),
                                   lit("y", Pred::Lt, 3),
                                   lit("x", Pred::Gt, 5)});
    EXPECT_TRUE(chain.formula().equals(batch));
    EXPECT_EQ(chain.formula().fingerprint(), batch.fingerprint());
    // The duplicate raw part is retained (withoutSource must be able to
    // replay it) but contributes no conjunct: dedup is per flattened
    // child, exactly as Formula::conj's first-occurrence dedup.
    EXPECT_EQ(chain.depth(), 3);
    EXPECT_EQ(chain.parts().size(), 3u);
}

TEST(CondChain, WithoutSourceReplacesTaggedParts)
{
    // A re-executed branch (loop unrolled once) replaces its earlier
    // condition: withoutSource drops every part with the branch's tag
    // and leaves the rest byte-identical.
    int branch = 0, call = 0;
    CondChain chain;
    chain = chain.extended(&branch, lit("x", Pred::Gt, 5));
    chain = chain.extended(&call, lit("y", Pred::Lt, 3));
    chain = chain.extended(&branch, lit("z", Pred::Eq, 1));

    CondChain without = chain.withoutSource(&branch);
    EXPECT_TRUE(without.formula().equals(
        Formula::conj({lit("y", Pred::Lt, 3)})));

    // Absent tag: no rebuild, same conjunction.
    int absent = 0;
    EXPECT_EQ(chain.withoutSource(&absent).formula().fingerprint(),
              chain.formula().fingerprint());
}

TEST(CondChain, FalsePartLatchesUntilRemoved)
{
    int tag = 0, other = 0;
    CondChain chain;
    chain = chain.extended(&other, lit("x", Pred::Gt, 5));
    EXPECT_FALSE(chain.isFalse());
    chain = chain.extended(&tag, Formula::bottom());
    EXPECT_TRUE(chain.isFalse());
    EXPECT_TRUE(chain.formula().isFalse());
    CondChain revived = chain.withoutSource(&tag);
    EXPECT_FALSE(revived.isFalse());
    EXPECT_TRUE(revived.formula().equals(
        Formula::conj({lit("x", Pred::Gt, 5)})));
}

TEST(CondChain, CheckChainMatchesCheckVerdictAndStats)
{
    // checkChain must reproduce check(formula()) exactly: verdict AND
    // statistics (queries, theory checks, disjunction branches), so the
    // two engines stay byte-identical under fuel budgets.
    std::vector<std::vector<Formula>> cases = {
        {},                                            // trivially true
        {lit("x", Pred::Gt, 5), lit("x", Pred::Lt, 10)},   // sat
        {lit("x", Pred::Gt, 5), lit("x", Pred::Lt, 3)},    // unsat
        {Formula::disj({lit("x", Pred::Lt, 0), lit("x", Pred::Gt, 10)}),
         lit("x", Pred::Gt, 3)},                       // pending Or
        {lit("x", Pred::Gt, 5), Formula::bottom()},    // latched False
    };
    int tag = 0;
    for (const auto &parts : cases) {
        CondChain chain;
        for (const auto &p : parts)
            chain = chain.extended(&tag, p);
        Solver batch, incremental;
        SatResult want = batch.check(chain.formula());
        SatResult got = incremental.checkChain(chain);
        EXPECT_EQ(got, want) << chain.formula().str();
        EXPECT_EQ(incremental.stats().queries, batch.stats().queries);
        EXPECT_EQ(incremental.stats().theory_checks,
                  batch.stats().theory_checks);
        EXPECT_EQ(incremental.stats().branches, batch.stats().branches);
    }
}

// ------------------------------------------- tree-vs-replay equivalence

const char *kSpec = R"(
summary pm_get(dev) -> int {
  entry { cons: true; change: [dev].pm += 1; return: [0]; }
}
summary pm_put(dev) -> int {
  entry { cons: true; change: [dev].pm -= 1; return: [0]; }
}
)";

struct EngineRun
{
    std::vector<std::string> entries;  // SummaryEntry::str() in order
    bool truncated = false;
    uint64_t blocks = 0;
};

EngineRun
runReplay(const ir::Function &fn, const summary::SummaryDb &db)
{
    Solver solver;
    analysis::ExecOptions opts;
    EngineRun out;
    auto paths = analysis::enumeratePaths(fn, 100);
    out.truncated = paths.truncated;
    for (size_t i = 0; i < paths.paths.size(); i++) {
        auto r = analysis::executePath(fn, paths.paths[i],
                                       static_cast<int>(i), db, solver,
                                       opts);
        out.truncated = out.truncated || r.truncated;
        out.blocks += r.blocks_executed;
        for (const auto &e : r.entries)
            out.entries.push_back(e.str());
    }
    return out;
}

analysis::TreeExecResult
runTree(const ir::Function &fn, const summary::SummaryDb &db)
{
    Solver solver;
    analysis::TreeExecOptions opts;
    return analysis::executeFunctionTree(fn, db, solver, opts);
}

std::vector<std::string>
treeEntries(const analysis::TreeExecResult &tree)
{
    std::vector<std::string> out;
    for (const auto &p : tree.completed)
        for (const auto &e : p.entries)
            out.push_back(e.str());
    return out;
}

/** A shared straight-line prefix, two independent diamonds, DPM calls
 *  on one side: 4 feasible paths, every prefix block shared. */
const char *kBranchySource = R"(
int branchy(struct device *dev, int a, int b) {
    int r;
    int s;
    r = 0;
    s = 1;
    r = s + 1;
    s = r + a;
    if (a > 0)
        r = pm_get(dev);
    if (b > 0)
        r = pm_put(dev);
    return r + s;
}
)";

/** Correlated branches: the second condition contradicts the first, so
 *  one of the four structural paths is infeasible and its subtree is
 *  prunable at the branch. */
const char *kCorrelatedSource = R"(
int correlated(struct device *dev, int a) {
    int r;
    r = 0;
    if (a > 0)
        r = pm_get(dev);
    if (a < 0)
        r = pm_put(dev);
    return r;
}
)";

class TreeExecTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        summary::loadSpecsInto(kSpec, db_);
    }

    const ir::Function *
    compile(const char *source, const char *name)
    {
        module_ = frontend::compile(source);
        const ir::Function *fn = module_.find(name);
        EXPECT_NE(fn, nullptr);
        return fn;
    }

    ir::Module module_;
    summary::SummaryDb db_;
};

TEST_F(TreeExecTest, MatchesReplayOnBranchyFunction)
{
    const ir::Function *fn = compile(kBranchySource, "branchy");
    EngineRun replay = runReplay(*fn, db_);
    auto tree = runTree(*fn, db_);
    EXPECT_EQ(treeEntries(tree), replay.entries);
    EXPECT_EQ(tree.truncated, replay.truncated);
    EXPECT_FALSE(tree.truncated);
    EXPECT_EQ(tree.completed.size(), 4u);
}

TEST_F(TreeExecTest, SharesPrefixBlocksAndCountsForks)
{
    // Replay steps the shared prefix once per path; the tree walk steps
    // every CFG-tree edge exactly once, so it must execute strictly
    // fewer blocks while producing the same entries.
    const ir::Function *fn = compile(kBranchySource, "branchy");
    EngineRun replay = runReplay(*fn, db_);
    auto tree = runTree(*fn, db_);
    EXPECT_GT(tree.blocks_executed, 0u);
    EXPECT_LT(tree.blocks_executed, replay.blocks);
    EXPECT_GT(tree.forks, 0u);  // both diamonds fork the state set
    EXPECT_EQ(tree.subtrees_pruned, 0u);  // all four paths feasible
}

TEST_F(TreeExecTest, PrunesContradictedSubtrees)
{
    const ir::Function *fn = compile(kCorrelatedSource, "correlated");
    EngineRun replay = runReplay(*fn, db_);
    auto tree = runTree(*fn, db_);
    // Same entries under both engines — pruning only skips work that
    // could never produce one (a > 0 && a < 0 has no model).
    EXPECT_EQ(treeEntries(tree), replay.entries);
    EXPECT_GT(tree.subtrees_pruned, 0u);
    // Only the three feasible paths complete.
    EXPECT_EQ(tree.completed.size(), 3u);
}

// --------------------------------- feasible-only truncation semantics

RunResult
runAnalyzer(const std::string &source, analysis::AnalyzerOptions opts)
{
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(source);
    return tool.run();
}

/** n correlated `if (a > 0)` diamonds: 2^n structural paths but only 2
 *  feasible ones (all-taken / none-taken). */
std::string
correlatedDiamonds(int n)
{
    std::string source = "int corr(struct device *dev, int a) {\n"
                         "    int r = 0;\n";
    for (int i = 0; i < n; i++)
        source += "    if (a > 0)\n        r = r + 1;\n";
    source += "    pm_runtime_get_noresume(dev);\n"
              "    pm_runtime_put_noidle(dev);\n"
              "    return r;\n}\n";
    return source;
}

TEST(TreeExecTruncation, PathCapCountsOnlyFeasiblePaths)
{
    // Satellite contract: with pruning enabled, max_paths is spent on
    // feasible completed paths only. 16 structural paths trip a 4-path
    // cap in the path enumerator, but the tree walk prunes the 14
    // contradicted subtrees and completes the 2 feasible paths without
    // ever touching the cap.
    std::string source = correlatedDiamonds(4);

    analysis::AnalyzerOptions opts;
    opts.max_paths = 4;
    RunResult with_pruning = runAnalyzer(source, opts);
    EXPECT_EQ(with_pruning.stats.functions_truncated, 0u);
    EXPECT_EQ(with_pruning.stats.paths_enumerated, 2u);
    EXPECT_TRUE(with_pruning.reports.empty());

    // The enumerator (the reference executor's path source) counts
    // structural paths, so the same cap truncates it.
    ir::Module mod = frontend::compile(source);
    auto paths = analysis::enumeratePaths(*mod.find("corr"), 4);
    EXPECT_TRUE(paths.truncated);
    EXPECT_EQ(paths.paths.size(), 4u);
}

TEST(TreeExecTruncation, CapHitDiagnosticReportsPrunedSubtrees)
{
    // Monotone thresholds a>0, a>1, ...: 2^10 structural paths, 11
    // feasible ones. A 4-path cap genuinely fires on feasible paths,
    // and the diagnostic must say how many infeasible subtrees were
    // pruned before the cap was reached — distinguishing "cap hit"
    // from "cap hit after pruning".
    std::string source = "int wide(struct device *dev, int a) {\n"
                         "    int r = 0;\n";
    for (int i = 0; i < 10; i++)
        source += "    if (a > " + std::to_string(i) + ")\n        r = " +
                  std::to_string(i) + ";\n";
    source += "    pm_runtime_get_noresume(dev);\n"
              "    pm_runtime_put_noidle(dev);\n"
              "    return r;\n}\n";

    analysis::AnalyzerOptions opts;
    opts.max_paths = 4;
    RunResult result = runAnalyzer(source, opts);
    EXPECT_EQ(result.stats.functions_truncated, 1u);
    EXPECT_GT(result.stats.subtrees_pruned, 0u);
    EXPECT_GT(result.stats.state_forks, 0u);
    EXPECT_GT(result.stats.blocks_executed, 0u);

    bool found = false;
    for (const auto &d : result.diagnostics) {
        if (d.function != "wide")
            continue;
        found = true;
        EXPECT_EQ(d.status, analysis::FnStatus::Truncated);
        EXPECT_NE(d.reason.find("after pruning"), std::string::npos)
            << d.reason;
        EXPECT_NE(d.reason.find("infeasible subtrees"), std::string::npos)
            << d.reason;
    }
    EXPECT_TRUE(found);
}

} // anonymous namespace
} // namespace rid
