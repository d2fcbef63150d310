/**
 * @file
 * The fused multi-query engine interface and its backends.
 *
 * Two backends execute a compiled query set in one document pass:
 *
 *  - `lanes` (multi_engine.h): N independent depth-stack simulations off
 *    one classification pass; skips by unanimous consensus. O(N) automaton
 *    work per structural event, but never fails to compile.
 *  - `product` (product_engine.h): ONE depth stack over the set-compiled
 *    product automaton (product_query.h); skips decided by a precomputed
 *    per-state bit, matches fanned out through subscriber bitsets. O(1)
 *    automaton work per event — the backend that scales to 1k+
 *    subscriptions — but subset construction is capped, so adversarial
 *    sets (many descendants × wildcards) can exceed the state budget.
 *    Filter selectors compile as wildcard arcs; each filter-bearing
 *    subscriber's predicate runs when the product reports a candidate.
 *
 * `auto` resolves the tradeoff: compile the product, fall back to lanes
 * only when the cap trips. Both backends report through MultiSink with input
 * query indexing (duplicates deduplicated at compile time each receive
 * their own callbacks) and enforce per-query match limits exactly as N
 * independent runs would.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "descend/engine/api.h"
#include "descend/engine/padded_string.h"
#include "descend/multi/multi_query.h"
#include "descend/obs/run_stats.h"

namespace descend::multi {

/** Receiver of fused-run matches, tagged with the originating query. */
class MultiSink {
public:
    virtual ~MultiSink() = default;

    /** @param query_index position of the query in the compiled set. */
    virtual void on_match(std::size_t query_index, std::size_t offset) = 0;
};

/** Collects per-query match offsets (document order within each query). */
class CollectingMultiSink final : public MultiSink {
public:
    explicit CollectingMultiSink(std::size_t num_queries)
        : offsets_(num_queries)
    {
    }

    void on_match(std::size_t query_index, std::size_t offset) override
    {
        offsets_[query_index].push_back(offset);
    }

    const std::vector<std::size_t>& offsets(std::size_t query_index) const
    {
        return offsets_[query_index];
    }

    const std::vector<std::vector<std::size_t>>& all() const noexcept
    {
        return offsets_;
    }

private:
    std::vector<std::vector<std::size_t>> offsets_;
};

/** Counts matches per query — the benchmark sink. */
class CountingMultiSink final : public MultiSink {
public:
    explicit CountingMultiSink(std::size_t num_queries) : counts_(num_queries) {}

    void on_match(std::size_t query_index, std::size_t) override
    {
        ++counts_[query_index];
    }

    std::size_t count(std::size_t query_index) const
    {
        return counts_[query_index];
    }

    std::size_t total() const noexcept
    {
        std::size_t sum = 0;
        for (std::size_t c : counts_) {
            sum += c;
        }
        return sum;
    }

private:
    std::vector<std::size_t> counts_;
};

/**
 * A fused multi-query engine: executes its whole compiled set in one pass
 * over a document. Const run paths touch no mutable engine state — one
 * instance serves concurrent runs (the stream executor shares one).
 *
 * Status semantics: the document is a single byte stream, so the run has a
 * single EngineStatus — malformed input fails the set as a whole, and a
 * per-query limit violation (EngineLimits::max_match_count applies per
 * input query, mirroring N independent runs) fails the run at that offset.
 */
class FusedEngine {
public:
    virtual ~FusedEngine() = default;

    virtual std::string name() const = 0;

    EngineStatus run(const PaddedString& document, MultiSink& sink) const
    {
        return run(PaddedView(document), sink);
    }

    /** Zero-copy slice run (record of an NDJSON stream); offsets are
     *  relative to the slice start, as DescendEngine::run. */
    virtual EngineStatus run(PaddedView document, MultiSink& sink) const = 0;

    /** Like run(), additionally reporting what the fused pass did. */
    virtual RunStats run_with_stats(PaddedView document, MultiSink& sink) const = 0;

    /**
     * Budget-override run: governs this one run by @p budget instead of
     * options().budget — how the multi-stream executor gives each record
     * its own slice of a stream-level budget without rebuilding engines.
     */
    virtual RunStats run_with_stats(PaddedView document, MultiSink& sink,
                                    const RunBudget& budget) const = 0;

    virtual const MultiQuery& query_set() const noexcept = 0;
    virtual const EngineOptions& options() const noexcept = 0;
};

/** Which fused execution backend to build. */
enum class FusedBackend {
    kAuto,     ///< product when it compiles within the state cap, else lanes
    kLanes,    ///< per-query lanes with consensus skipping
    kProduct,  ///< set-compiled product automaton
};

/** Parses a --fused flag value ("auto" | "lanes" | "product"). */
std::optional<FusedBackend> parse_fused_backend(std::string_view text);

/** The flag spelling of @p backend. */
std::string_view fused_backend_name(FusedBackend backend) noexcept;

/** Builds the requested backend over an already-compiled set. @throws
 *  LimitError when `product` is requested explicitly and the set exceeds
 *  the product state cap (`auto` falls back to lanes instead). */
std::unique_ptr<FusedEngine> make_fused_engine(
    MultiQuery queries, EngineOptions options = {},
    FusedBackend backend = FusedBackend::kAuto);

/** Convenience: parse + compile + build. */
std::unique_ptr<FusedEngine> make_fused_engine(
    const std::vector<std::string>& query_texts, EngineOptions options = {},
    FusedBackend backend = FusedBackend::kAuto);

}  // namespace descend::multi
