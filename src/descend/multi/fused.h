/**
 * @file
 * The fused multi-query engine: a whole query set in one document pass.
 *
 * QuerySetCompiler (product_query.h) lowers the deduplicated set to ONE
 * product automaton, and the engine advances a single depth stack over
 * it: one shared-alphabet label resolution and one transition per
 * structural event, skips decided by precomputed per-state bits, matches
 * fanned out through subscriber bitsets. Neither per-event step grows
 * with N beyond a binary search's logarithm — a flat hash-table label
 * lookup (Alphabet::label_symbol) and a bounded exception-list search
 * (ProductAutomaton::transition) — so the engine scales to 1k+
 * subscriptions. Filter
 * selectors compile as wildcard arcs; each filter-bearing subscriber's
 * predicate runs when the product reports a candidate.
 *
 * Subset construction is capped (max_states): adversarial sets (many
 * descendants × wildcards, paper Section 3.1) can exceed it. The engine
 * then bisects the distinct queries, in first-occurrence order, into
 * *parts* that each compile under the cap, and runs the parts back to
 * back over the same view. Every part's accept sets index the whole set's
 * distinct ids, so fan-out uses the same owner lists. A set that fits is
 * one part; a single query whose product alone exceeds the cap is a
 * LimitError.
 *
 * Matches are reported through MultiSink with input query indexing
 * (duplicates deduplicated at compile time each receive their own
 * callbacks), and per-query match limits hold exactly as N independent
 * runs would.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "descend/engine/api.h"
#include "descend/engine/padded_string.h"
#include "descend/multi/multi_query.h"
#include "descend/multi/product_query.h"
#include "descend/obs/run_stats.h"
#include "descend/simd/dispatch.h"

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
 * The fused multi-query engine: executes its whole compiled set in one pass
 * over a document (one pass per part when the set was split). Const run
 * paths touch no mutable engine state — one instance serves concurrent
 * runs (the stream executor shares one).
 *
 * Status semantics: the document is a single byte stream, so the run has a
 * single EngineStatus — malformed input fails the set as a whole, and a
 * per-query limit violation (EngineLimits::max_match_count applies per
 * input query, mirroring N independent runs) fails the run at that offset.
 * A split run buffers its matches: its status is the failure at the
 * smallest offset across parts (a deadline or cancellation stops it at
 * once), and no match past that offset is delivered.
 */
class FusedEngine {
public:
    /** Compiles @p queries into product parts of at most @p max_states
     *  states each. @throws LimitError when one query alone exceeds it. */
    explicit FusedEngine(MultiQuery queries, EngineOptions options = {},
                         int max_states = 1 << 15);
    /** Out of line, so owners do not inline the teardown of the set and
     *  its automata. */
    ~FusedEngine();

    std::string name() const;

    EngineStatus run(const PaddedString& document, MultiSink& sink) const
    {
        return run(PaddedView(document), sink);
    }

    /** Zero-copy slice run (record of an NDJSON stream); offsets are
     *  relative to the slice start, as DescendEngine::run. */
    EngineStatus run(PaddedView document, MultiSink& sink) const;

    /** Like run(), additionally reporting what the fused pass did. */
    RunStats run_with_stats(PaddedView document, MultiSink& sink) const
    {
        return run_with_stats(document, sink, options_.budget);
    }

    /**
     * Budget-override run: governs this one run by @p budget instead of
     * options().budget — how the multi-stream executor gives each record
     * its own slice of a stream-level budget without rebuilding engines.
     */
    RunStats run_with_stats(PaddedView document, MultiSink& sink,
                            const RunBudget& budget) const;

    const MultiQuery& query_set() const noexcept { return queries_; }
    const EngineOptions& options() const noexcept { return options_; }

    /** The product automata, one per part, in run order; more than one
     *  only when the whole set exceeds the state cap. */
    const std::vector<ProductAutomaton>& parts() const noexcept
    {
        return parts_;
    }

private:
    RunStats dispatch(PaddedView document, MultiSink& sink,
                      const RunBudget& budget) const;
    RunStats run_part(const ProductAutomaton& part, PaddedView document,
                      MultiSink& sink, const RunBudget& budget) const;

    MultiQuery queries_;
    std::vector<ProductAutomaton> parts_;
    EngineOptions options_;
    const simd::Kernels* kernels_;
};

/** Builds the engine over an already-compiled set. @throws LimitError when
 *  one query alone exceeds the product state cap. */
std::unique_ptr<FusedEngine> make_fused_engine(MultiQuery queries,
                                               EngineOptions options = {});

/** Convenience: parse + compile + build. */
std::unique_ptr<FusedEngine> make_fused_engine(
    const std::vector<std::string>& query_texts, EngineOptions options = {});

}  // namespace descend::multi
