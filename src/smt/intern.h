/**
 * @file
 * Hash-consing (interning) infrastructure for the smt layer.
 *
 * Expression and formula nodes are immutable trees; interning their
 * construction makes syntactically equal trees share one node, so
 *
 *  - structural equality short-circuits to a pointer comparison,
 *  - every tree carries a stable 64-bit *fingerprint* computed once at
 *    construction, usable as a cache key across threads and runs.
 *
 * Fingerprints are deliberately independent of std::hash: they mix the
 * node's kind, payload bytes and child fingerprints with fixed 64-bit
 * constants, so the same formula text fingerprints identically on every
 * run and platform. A fingerprint collision between structurally distinct
 * trees is possible (64 bits) but harmless for correctness: the intern
 * tables compare payloads before sharing a node, and the caches verify
 * full keys with equals() before trusting a match.
 *
 * Interned nodes are immortal: the tables are insert-only, own every
 * node they hand out and are never destroyed. Handles (Expr, Formula)
 * are therefore plain pointers, copied without any atomic reference
 * count, and structural equality is pointer identity. Memory is bounded
 * by the number of distinct trees ever built, not by the number of runs.
 */

#ifndef RID_SMT_INTERN_H
#define RID_SMT_INTERN_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace rid::smt {

/** @name Fingerprint mixing primitives */
/** @{ */

/** Finalizer from splitmix64; good avalanche for single words. */
inline uint64_t
fpMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Fold @p v into running fingerprint @p h (order-sensitive). */
inline uint64_t
fpCombine(uint64_t h, uint64_t v)
{
    return fpMix64(h ^ (v + 0x2545f4914f6cdd1dULL + (h << 6) + (h >> 2)));
}

/** FNV-1a over a byte string; stable across runs. */
inline uint64_t
fpBytes(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Fold a sequence of fingerprints into @p h, length-prefixed so that
 * e.g. {a,b} + {} and {a} + {b} key differently. The workhorse of
 * multi-part cache keys (summary/inst_cache.h).
 */
template <typename It, typename Fp>
inline uint64_t
fpRange(uint64_t h, It first, It last, Fp fingerprintOf)
{
    uint64_t n = 0;
    for (It it = first; it != last; ++it, ++n)
        h = fpCombine(h, fingerprintOf(*it));
    return fpCombine(h, n);
}

/** @} */

/** Counters exposed by one intern table (monotonic except entries). */
struct InternStats
{
    uint64_t hits = 0;       ///< constructions that found an existing node
    uint64_t misses = 0;     ///< constructions that inserted a new node
    size_t entries = 0;      ///< current table size (nodes alive)

    InternStats &operator+=(const InternStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        entries += o.entries;
        return *this;
    }
};

/**
 * Sharded insert-only intern table for immutable nodes of type Node.
 *
 * Thread-safe; each shard is guarded by its own mutex so concurrent
 * construction from analysis worker threads rarely contends. A node is
 * published under its shard's mutex and never changes or dies after
 * that, so readers holding its pointer need no lock. Candidate equality
 * is decided by the caller-supplied predicate, which may be shallow
 * (payload + child pointer identity) when children are always interned
 * first.
 */
template <typename Node>
class InternTable
{
  public:
    using EqFn = bool (*)(const Node &, const Node &);

    /**
     * Return the canonical node equal to @p fresh, keeping @p fresh if
     * it is new and dropping it otherwise.
     *
     * @param fp    fingerprint of @p fresh (bucket key)
     * @param fresh candidate node, consumed
     * @param eq    structural equality predicate
     */
    const Node *
    intern(uint64_t fp, std::unique_ptr<Node> fresh, EqFn eq)
    {
        Shard &shard = shards_[shardOf(fp)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto range = shard.nodes.equal_range(fp);
        for (auto it = range.first; it != range.second; ++it) {
            if (eq(*it->second, *fresh)) {
                shard.hits++;
                return it->second.get();
            }
        }
        shard.misses++;
        return shard.nodes.emplace(fp, std::move(fresh))->second.get();
    }

    InternStats
    stats() const
    {
        InternStats total;
        for (const Shard &s : shards_) {
            std::lock_guard<std::mutex> lock(s.mutex);
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.nodes.size();
        }
        return total;
    }

  private:
    static constexpr size_t kShards = 32;

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_multimap<uint64_t, std::unique_ptr<const Node>> nodes;
        uint64_t hits = 0;
        uint64_t misses = 0;
    };

    static size_t
    shardOf(uint64_t fp)
    {
        // The multimap re-hashes the full fingerprint per bucket; shard
        // selection uses high bits so both stay well distributed.
        return (fp >> 57) & (kShards - 1);
    }

    Shard shards_[kShards];
};

/** Stats of the process-wide expression intern table (see expr.cc). */
InternStats exprInternStats();

/** Stats of the process-wide formula intern table (see formula.cc). */
InternStats formulaInternStats();

/** Combined expression + formula interning stats. */
InternStats totalInternStats();

/** One-line human-readable rendering of @p s. */
std::string internStatsStr(const InternStats &s);

} // namespace rid::smt

#endif // RID_SMT_INTERN_H
