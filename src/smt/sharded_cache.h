/**
 * @file
 * The one memoizing cache design shared by every SCC worker of a run:
 * the solver-verdict cache (smt/query_cache.h) and the instantiation
 * cache (summary/inst_cache.h) are both a ShardedCache.
 *
 * A fingerprint match never answers a lookup alone: the stored key must
 * also be equals() to the queried one, so a 64-bit collision is a miss
 * (counted once, at that lookup), never another key's value; the insert
 * after it displaces the older key. Entries spread over kShards shards,
 * each with its own mutex, LRU list and index. Capacity is split evenly
 * over the shards, rounded up, at least one entry per shard.
 */

#ifndef RID_SMT_SHARDED_CACHE_H
#define RID_SMT_SHARDED_CACHE_H

#include <algorithm>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace rid::smt {

/** Counters of one ShardedCache, summed over its shards. */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /** Fingerprint matched but the stored key differed (treated as a
     *  miss, so also counted in misses). */
    uint64_t collisions = 0;
    size_t entries = 0;

    double
    hitRate() const
    {
        uint64_t lookups = hits + misses;
        return lookups ? static_cast<double>(hits) / lookups : 0.0;
    }
};

/**
 * Fingerprint-sharded, key-verified LRU cache. @p Key needs only
 * `bool equals(const Key &) const`; callers pass the fingerprint. The 4
 * fingerprint bits from @p Shift up select the shard.
 */
template <typename Key, typename Value, unsigned Shift>
class ShardedCache
{
  public:
    static constexpr size_t kShards = 16;

    /** @p capacity entries across all shards. */
    explicit ShardedCache(size_t capacity)
        : shard_capacity_(
              std::max<size_t>(1, (capacity + kShards - 1) / kShards))
    {}

    /** The value stored for @p key, or nullopt. Promotes a hit to MRU. */
    std::optional<Value>
    lookup(uint64_t fp, const Key &key)
    {
        Shard &shard = shardOf(fp);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.index.find(fp);
        if (it == shard.index.end()) {
            shard.stats.misses++;
            return std::nullopt;
        }
        if (!it->second->key.equals(key)) {
            shard.stats.collisions++;
            shard.stats.misses++;
            return std::nullopt;
        }
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        shard.stats.hits++;
        return it->second->value;
    }

    /** Store @p value for @p key as MRU: overwrite the entry holding
     *  @p fp (refresh, or displace a colliding key), else evict the
     *  shard's LRU entry if the shard is full. */
    void
    insert(uint64_t fp, const Key &key, Value value)
    {
        Shard &shard = shardOf(fp);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.index.find(fp);
        if (it != shard.index.end()) {
            it->second->key = key;
            it->second->value = std::move(value);
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return;
        }
        if (shard.lru.size() >= shard_capacity_) {
            shard.index.erase(shard.lru.back().fp);
            shard.lru.pop_back();
            shard.stats.evictions++;
        }
        shard.lru.push_front(Entry{fp, key, std::move(value)});
        shard.index[fp] = shard.lru.begin();
        shard.stats.insertions++;
    }

    /** Counters summed over the shards. */
    CacheStats
    stats() const
    {
        CacheStats total;
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total.hits += shard.stats.hits;
            total.misses += shard.stats.misses;
            total.insertions += shard.stats.insertions;
            total.evictions += shard.stats.evictions;
            total.collisions += shard.stats.collisions;
            total.entries += shard.lru.size();
        }
        return total;
    }

    size_t capacity() const { return shard_capacity_ * kShards; }

  private:
    struct Entry
    {
        uint64_t fp;
        Key key;  // verifies fingerprint hits
        Value value;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::list<Entry> lru;  // front = most recently used
        std::unordered_map<uint64_t, typename std::list<Entry>::iterator>
            index;
        CacheStats stats;  // `entries` unused: lru.size() is the count
    };

    Shard &shardOf(uint64_t fp) { return shards_[(fp >> Shift) % kShards]; }

    size_t shard_capacity_;
    Shard shards_[kShards];
};

} // namespace rid::smt

#endif // RID_SMT_SHARDED_CACHE_H
