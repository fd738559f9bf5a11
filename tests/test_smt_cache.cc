/**
 * @file
 * Tests for formula interning (hash-consing) and the memoized solver
 * query cache:
 *
 *  - fingerprints are stable, and equal exactly for structurally equal
 *    expressions/formulas on a large random population;
 *  - interning shares construction (observable through InternStats),
 *    also for trees rebuilt concurrently after every handle was dropped;
 *  - the QueryCache respects capacity and evicts LRU-wise, and the
 *    shared ShardedCache turns a fingerprint collision into a miss;
 *  - differential property: a cache-attached solver agrees with a fresh
 *    uncached solver on every one of >= 10k random queries, including
 *    repeated queries and queries after evictions;
 *  - the shared cache is safe and still exact under concurrent use.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "smt/intern.h"
#include "smt/query_cache.h"
#include "smt/sharded_cache.h"
#include "smt/solver.h"

namespace rid::smt {
namespace {

/**
 * Random formula generator over a small pool of atoms, biased toward the
 * shapes RID produces: conjunctions of comparison literals with
 * occasional disjunction/negation nesting. A small pool makes repeated
 * (cache-hitting) formulas likely by construction.
 */
class FormulaGen
{
  public:
    explicit FormulaGen(uint64_t seed) : rng_(seed) {}

    Expr
    atom()
    {
        switch (rng_() % 5) {
          case 0: return Expr::arg("a");
          case 1: return Expr::arg("b");
          case 2: return Expr::ret();
          case 3: return Expr::field(Expr::arg("dev"), "pm");
          default: return Expr::arg("c" + std::to_string(rng_() % 3));
        }
    }

    Expr
    literalExpr()
    {
        Pred preds[] = {Pred::Eq, Pred::Ne, Pred::Lt,
                        Pred::Le, Pred::Gt, Pred::Ge};
        Expr lhs = atom();
        Expr rhs = rng_() % 2
                       ? Expr::intConst(static_cast<int64_t>(rng_() % 7) - 3)
                       : atom();
        return Expr::cmp(preds[rng_() % 6], lhs, rhs);
    }

    Formula
    formula(int depth)
    {
        if (depth <= 0 || rng_() % 3 == 0)
            return Formula::lit(literalExpr());
        switch (rng_() % 4) {
          case 0:
          case 1: {
            std::vector<Formula> parts;
            size_t n = 2 + rng_() % 3;
            for (size_t i = 0; i < n; i++)
                parts.push_back(formula(depth - 1));
            return Formula::conj(std::move(parts));
          }
          case 2: {
            std::vector<Formula> parts;
            size_t n = 2 + rng_() % 3;
            for (size_t i = 0; i < n; i++)
                parts.push_back(formula(depth - 1));
            return Formula::disj(std::move(parts));
          }
          default:
            return Formula::negation(formula(depth - 1));
        }
    }

  private:
    std::mt19937_64 rng_;
};

TEST(Interning, FingerprintEqualsIffStructurallyEqual)
{
    FormulaGen gen(42);
    std::vector<Formula> pool;
    for (int i = 0; i < 400; i++)
        pool.push_back(gen.formula(3));
    for (size_t i = 0; i < pool.size(); i++) {
        for (size_t j = 0; j < pool.size(); j++) {
            bool eq = pool[i].equals(pool[j]);
            bool fp_eq = pool[i].fingerprint() == pool[j].fingerprint();
            // equal => equal fingerprints always; the converse holds on
            // this population (a violation would be a found 64-bit
            // collision, worth knowing about).
            EXPECT_EQ(eq, fp_eq)
                << pool[i].str() << " vs " << pool[j].str();
        }
    }
}

TEST(Interning, RebuildingTheSameTreeSharesNodes)
{
    auto build = []() {
        return Formula::conj(
            {Formula::lit(Expr::cmp(Pred::Ge, Expr::ret(),
                                    Expr::intConst(0))),
             Formula::lit(Expr::cmp(Pred::Ne, Expr::arg("interned_probe"),
                                    Expr::null()))});
    };
    InternStats before = totalInternStats();
    Formula a = build();
    InternStats mid = totalInternStats();
    Formula b = build();
    InternStats after = totalInternStats();

    EXPECT_TRUE(a.equals(b));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    // The second build allocates nothing new: every construction is an
    // intern hit.
    EXPECT_EQ(after.misses, mid.misses);
    EXPECT_GT(after.hits, mid.hits);
    // The first build interned at least the novel atom + literals.
    EXPECT_GT(mid.misses, before.misses);
}

TEST(Interning, FingerprintsAreStableAcrossRebuilds)
{
    // Same construction from two different generator instances.
    FormulaGen g1(7), g2(7);
    for (int i = 0; i < 200; i++) {
        Formula a = g1.formula(3);
        Formula b = g2.formula(3);
        ASSERT_TRUE(a.equals(b));
        ASSERT_EQ(a.fingerprint(), b.fingerprint());
    }
}

TEST(Interning, ConcurrentRebuildsAllocateNoNodes)
{
    // Interned nodes live for the whole process: trees built once, then
    // dropped, are found again when four threads rebuild them at once,
    // so the rebuild allocates no node at all.
    const std::vector<uint64_t> seeds = {1901, 1902, 1903, 1904};
    auto build = [](uint64_t seed) {
        FormulaGen gen(seed);
        std::vector<Formula> out;
        for (int i = 0; i < 100; i++)
            out.push_back(gen.formula(3));
        return out;
    };
    std::vector<std::vector<uint64_t>> fps;
    for (uint64_t seed : seeds) {
        fps.emplace_back();
        for (const Formula &f : build(seed))
            fps.back().push_back(f.fingerprint());
    }  // every handle of the first build is gone here

    constexpr size_t kThreads = 4;
    InternStats before = totalInternStats();
    // rebuilt[t][k]: thread t's rebuild of seeds[k]. Each thread starts
    // at a different seed, so shared atoms are interned concurrently.
    std::vector<std::vector<std::vector<Formula>>> rebuilt(
        kThreads, std::vector<std::vector<Formula>>(seeds.size()));
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; t++) {
        workers.emplace_back([&, t] {
            for (size_t i = 0; i < seeds.size(); i++) {
                size_t k = (t + i) % seeds.size();
                rebuilt[t][k] = build(seeds[k]);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    InternStats after = totalInternStats();

    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.entries, before.entries);
    EXPECT_GT(after.hits, before.hits);
    for (size_t t = 0; t < kThreads; t++) {
        for (size_t k = 0; k < seeds.size(); k++) {
            ASSERT_EQ(rebuilt[t][k].size(), fps[k].size());
            for (size_t i = 0; i < fps[k].size(); i++) {
                EXPECT_TRUE(rebuilt[t][k][i].equals(rebuilt[0][k][i]));
                EXPECT_EQ(rebuilt[t][k][i].fingerprint(), fps[k][i]);
            }
        }
    }
}

TEST(QueryCache, InsertLookupRoundTrip)
{
    QueryCache cache;
    FormulaGen gen(1);
    Formula f = gen.formula(2);
    EXPECT_FALSE(cache.lookup(f).has_value());
    cache.insert(f, SatResult::Unsat);
    auto hit = cache.lookup(f);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, SatResult::Unsat);
    auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(QueryCache, CapacityBoundsResidencyAndEvicts)
{
    QueryCache::Options opts;
    opts.capacity = 16;
    QueryCache cache(opts);
    FormulaGen gen(2);
    std::vector<Formula> pool;
    for (int i = 0; i < 200; i++) {
        Formula f = gen.formula(3);
        pool.push_back(f);
        cache.insert(f, SatResult::Sat);
    }
    auto s = cache.stats();
    EXPECT_LE(s.entries, cache.capacity());
    EXPECT_GT(s.evictions, 0u);
    // Entries that survive still answer correctly.
    std::set<uint64_t> resident;
    for (const auto &f : pool) {
        if (auto hit = cache.lookup(f)) {
            EXPECT_EQ(*hit, SatResult::Sat);
            resident.insert(f.fingerprint());
        }
    }
    EXPECT_LE(resident.size(), cache.capacity());
}

/** A key type whose fingerprint the test chooses, so two different keys
 *  can share one: real 64-bit formula collisions cannot be constructed. */
struct NamedKey
{
    std::string name;

    bool equals(const NamedKey &o) const { return name == o.name; }
};

TEST(ShardedCache, CollisionIsAMissNeverAWrongValue)
{
    ShardedCache<NamedKey, int, 43> cache(16);
    const uint64_t fp = 0x5eed;
    cache.insert(fp, NamedKey{"first"}, 1);

    // Same fingerprint, different key: a miss, counted once as a
    // collision, never the first key's value.
    EXPECT_FALSE(cache.lookup(fp, NamedKey{"second"}).has_value());
    CacheStats s = cache.stats();
    EXPECT_EQ(s.collisions, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 0u);

    // The insert after the miss displaces the older key in place.
    cache.insert(fp, NamedKey{"second"}, 2);
    auto hit = cache.lookup(fp, NamedKey{"second"});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 2);
    EXPECT_FALSE(cache.lookup(fp, NamedKey{"first"}).has_value());
    s = cache.stats();
    EXPECT_EQ(s.collisions, 2u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(ShardedCache, CapacityRoundsUpToWholeShards)
{
    // Capacity is split over 16 shards, rounded up, at least one entry
    // per shard.
    EXPECT_EQ((ShardedCache<NamedKey, int, 37>(0).capacity()), 16u);
    EXPECT_EQ((ShardedCache<NamedKey, int, 37>(16).capacity()), 16u);
    EXPECT_EQ((ShardedCache<NamedKey, int, 37>(17).capacity()), 32u);
    EXPECT_EQ((ShardedCache<NamedKey, int, 37>(1 << 16).capacity()),
              size_t{1} << 16);
}

TEST(SolverCache, AttachedSolverCountsHitsAndMisses)
{
    auto cache = std::make_shared<QueryCache>();
    Solver solver;
    solver.attachCache(cache);
    Formula f = Formula::lit(
        Expr::cmp(Pred::Gt, Expr::arg("x"), Expr::intConst(3)));
    SatResult first = solver.check(f);
    SatResult second = solver.check(f);
    EXPECT_EQ(first, second);
    EXPECT_EQ(solver.stats().cache_hits, 1u);
    EXPECT_EQ(solver.stats().cache_misses, 1u);
    // Trivial formulas bypass the cache entirely.
    solver.check(Formula::top());
    solver.check(Formula::bottom());
    EXPECT_EQ(solver.stats().cache_hits, 1u);
    EXPECT_EQ(solver.stats().cache_misses, 1u);
}

/**
 * The differential property at the heart of this suite: for every query,
 * a cache-attached solver and a fresh uncached solver return the same
 * SatResult. The query stream revisits earlier formulas (guaranteed cache
 * hits) and the cache is deliberately small (guaranteed evictions), so
 * hit, miss, and re-miss-after-eviction paths are all exercised.
 */
TEST(SolverCacheDifferential, CachedAgreesWithUncachedOn10kQueries)
{
    QueryCache::Options cache_opts;
    cache_opts.capacity = 256;  // far below the distinct-formula count
    auto cache = std::make_shared<QueryCache>(cache_opts);
    Solver cached;
    cached.attachCache(cache);

    FormulaGen gen(0xcac4e);
    std::mt19937_64 pick(0x5eed);
    std::vector<Formula> pool{gen.formula(3)};
    size_t queries = 0;
    while (queries < 10500) {
        // Grow the pool slowly so later queries repeat earlier formulas.
        if (pool.size() < 2000 && pick() % 3 != 0)
            pool.push_back(gen.formula(3));
        const Formula &f = pool[pick() % pool.size()];
        Solver fresh;
        SatResult want = fresh.check(f);
        SatResult got = cached.check(f);
        ASSERT_EQ(got, want) << f.str();
        queries++;
    }
    auto s = cache->stats();
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(s.hits, cached.stats().cache_hits);
    // Repeat the whole pool once more after all those evictions.
    for (const auto &f : pool) {
        Solver fresh;
        ASSERT_EQ(cached.check(f), fresh.check(f)) << f.str();
    }
}

TEST(SolverCacheDifferential, SharedCacheIsExactUnderConcurrency)
{
    auto cache = std::make_shared<QueryCache>();
    // One shared pool: all threads query overlapping formulas.
    FormulaGen gen(99);
    std::vector<Formula> pool;
    for (int i = 0; i < 500; i++)
        pool.push_back(gen.formula(3));

    std::atomic<uint64_t> mismatches{0};
    auto worker = [&](uint64_t seed) {
        std::mt19937_64 pick(seed);
        Solver cached;
        cached.attachCache(cache);
        Solver fresh;
        for (int i = 0; i < 800; i++) {
            const Formula &f = pool[pick() % pool.size()];
            if (cached.check(f) != fresh.check(f))
                mismatches.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < 4; t++)
        threads.emplace_back(worker, 1000 + t);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(cache->stats().hits, 0u);
}

} // anonymous namespace
} // namespace rid::smt
