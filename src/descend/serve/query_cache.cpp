#include "descend/serve/query_cache.h"

#include <functional>
#include <utility>

#include "descend/query/query.h"
#include "descend/util/errors.h"

namespace descend::serve {
namespace {

/**
 * Canonical text of a kMulti query field: per line parse → re-serialize,
 * joined back with '\n' in request order. Unparseable lines keep their
 * raw text — canonicalization must never turn a kBadQuery response into
 * a cache-key exception; build() reports the QueryError on the miss path.
 */
std::string canonical_query_set(const std::string& queries)
{
    std::string canonical;
    canonical.reserve(queries.size());
    for (const std::string& line : split_query_set(queries)) {
        if (!canonical.empty()) {
            canonical += '\n';
        }
        try {
            canonical += query::Query::parse(line).to_string();
        } catch (const QueryError&) {
            canonical += line;
        }
    }
    return canonical;
}

}  // namespace

QueryCache::QueryCache(std::size_t capacity, std::size_t shards)
{
    if (capacity == 0) {
        capacity = 1;
    }
    if (shards == 0) {
        shards = 1;
    }
    if (shards > capacity) {
        shards = capacity;
    }
    // Ceiling division: total capacity is honoured within one entry per
    // shard, which is the precision sharded LRU can offer without a
    // global lock.
    shard_capacity_ = (capacity + shards - 1) / shards;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

std::string QueryCache::make_key(RequestMode mode, const std::string& query,
                                 const EngineLimits& limits)
{
    // Mode classes that share compiled artifacts share keys: single and
    // NDJSON both use the single-query artifact; multi is its own class,
    // canonicalized so spelling variants of one set share an entry.
    const bool is_multi = mode == RequestMode::kMulti;
    const char mode_class = is_multi ? 'm' : 's';
    std::string key;
    key.reserve(query.size() + 64);
    key += mode_class;
    key += '\x1f';
    key += std::to_string(limits.max_depth);
    key += '\x1f';
    key += std::to_string(limits.max_document_size);
    key += '\x1f';
    key += std::to_string(limits.max_match_count);
    key += '\x1f';
    if (is_multi) {
        key += canonical_query_set(query);
    } else {
        // Same canonicalization (and same unparseable-text fallback) for
        // the single-query classes: $.a, $['a'] and $["a"] are one entry.
        try {
            key += query::Query::parse(query).to_string();
        } catch (const QueryError&) {
            key += query;
        }
    }
    return key;
}

CachedQueryPtr QueryCache::build(RequestMode mode, const std::string& query,
                                 const EngineOptions& options)
{
    auto entry = std::make_shared<CachedQuery>();
    if (mode == RequestMode::kMulti) {
        entry->multi_engine = multi::make_fused_engine(
            multi::MultiQuery::compile(split_query_set(query)), options);
    } else {
        entry->engine = std::make_unique<DescendEngine>(
            automaton::CompiledQuery::compile(query), options);
    }
    return entry;
}

CachedQueryPtr QueryCache::lookup(RequestMode mode, const std::string& query,
                                  const EngineOptions& options, bool& hit)
{
    const std::string key = make_key(mode, query, options.limits);
    Shard& shard =
        *shards_[std::hash<std::string>{}(key) % shards_.size()];
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto found = shard.index.find(key);
        if (found != shard.index.end()) {
            // Refresh LRU position.
            shard.order.splice(shard.order.begin(), shard.order,
                               found->second);
            hit = true;
            hits_.fetch_add(1, std::memory_order_relaxed);
            return found->second->second;
        }
    }
    // Compile outside the shard lock: a slow compilation must not block
    // hits on unrelated queries that hash to the same shard. Two racing
    // misses may both compile; the insert below keeps whichever lands
    // last and both callers run on a valid entry.
    hit = false;
    misses_.fetch_add(1, std::memory_order_relaxed);
    CachedQueryPtr entry = build(mode, query, options);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto found = shard.index.find(key);
        if (found != shard.index.end()) {
            // The racing compiler won; adopt its entry.
            shard.order.splice(shard.order.begin(), shard.order,
                               found->second);
            return found->second->second;
        }
        shard.order.emplace_front(key, entry);
        shard.index.emplace(key, shard.order.begin());
        entries_.fetch_add(1, std::memory_order_relaxed);
        while (shard.order.size() > shard_capacity_) {
            shard.index.erase(shard.order.back().first);
            shard.order.pop_back();
            evictions_.fetch_add(1, std::memory_order_relaxed);
            entries_.fetch_sub(1, std::memory_order_relaxed);
        }
    }
    return entry;
}

CacheStats QueryCache::stats() const
{
    CacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.entries = entries_.load(std::memory_order_relaxed);
    return stats;
}

void QueryCache::clear()
{
    for (std::unique_ptr<Shard>& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        std::size_t dropped = shard->order.size();
        shard->order.clear();
        shard->index.clear();
        entries_.fetch_sub(dropped, std::memory_order_relaxed);
    }
}

std::vector<std::string> split_query_set(const std::string& queries)
{
    std::vector<std::string> set;
    std::size_t begin = 0;
    while (begin <= queries.size()) {
        std::size_t end = queries.find('\n', begin);
        if (end == std::string::npos) {
            end = queries.size();
        }
        std::string line = queries.substr(begin, end - begin);
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        if (!line.empty()) {
            set.push_back(std::move(line));
        }
        begin = end + 1;
    }
    return set;
}

}  // namespace descend::serve
