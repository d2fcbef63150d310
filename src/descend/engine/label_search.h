/**
 * @file
 * Skipping to a label (paper Sections 3.3 and 3.4): when a query begins
 * with a descendant selector `..label`, the initial DFA state is *waiting*
 * and the engine jumps straight from one occurrence of the label to the
 * next, running the main algorithm only on the associated subdocuments.
 *
 * rsonpath uses memchr's memmem for this. Here the search is built from
 * the same block kernels as the rest of the pipeline: each block yields
 * the mask of *string-opening* quote positions (unescaped quotes that are
 * outside strings — the quote classifier keeps running, so occurrences of
 * the pattern inside string values are rejected for free), pre-filtered by
 * the label's first byte; the surviving candidates are verified bytewise
 * and must be followed by a colon to count as a member label.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "descend/classify/block_batch.h"
#include "descend/classify/quote_classifier.h"
#include "descend/engine/structural_iterator.h"

namespace descend {

class LabelSearch {
public:
    /** @param input the document or record slice to search; size() is a
     *  hard end bound (candidates in the final partial block are masked to
     *  it, matching StructuralIterator's slice contract).
     *  @param escaped_label the label's comparison form (raw bytes between
     *  quotes in a minimally-escaped document).
     *  @param validator optional whole-document validator shared with the
     *  structural iterator; blocks this search classifies are accounted
     *  there (the resume protocol guarantees each block is accounted by
     *  exactly one of the two pipelines).
     *  @param accountant optional shared obs accountant: blocks this
     *  search classifies first are attributed to head-skip, and the
     *  candidate/hit counters of the bytewise verification are fed.
     *  @param budget optional run budget, polled at batch-refill
     *  granularity; a violation parks the search (next() reports end) and
     *  latches status(). Must outlive the search when non-null. */
    LabelSearch(PaddedView input, const simd::Kernels& kernels,
                std::string_view escaped_label,
                StructuralValidator* validator = nullptr,
                obs::BlockAccountant* accountant = nullptr,
                const RunBudget* budget = nullptr);

    /**
     * Governance flag raised while searching: a budget violation parks the
     * search at end of input, so the engine observes the status when
     * next() runs dry (mirroring StructuralIterator::status()).
     */
    const EngineStatus& status() const noexcept { return status_; }

    struct Occurrence {
        std::size_t quote_pos;  ///< the label's opening quote
        std::size_t colon_pos;  ///< the colon following the label
    };

    /** Finds the next genuine label occurrence, or nullopt at end. */
    std::optional<Occurrence> next();

    /**
     * Rolls the quote pipeline forward to @p pos (which must be at or
     * beyond the current position) and returns a ResumePoint there, for a
     * StructuralIterator to take over.
     */
    ResumePoint resume_point_at(std::size_t pos);

    /** Takes the pipeline back over from an iterator's ResumePoint. */
    void resume(const ResumePoint& point);

private:
    /**
     * The search's one block walk: enters blocks from @p from on, with the
     * position and the candidate test in locals, and stops at the first
     * block that holds a candidate or starts at or after @p stop_at. That
     * block becomes current; the run is accounted once, as head-skip.
     * Returns false (parked, candidates_ empty) at end of input or on a
     * latched budget interrupt.
     */
    bool enter(std::size_t from, std::size_t stop_at);
    /** Takes a budget interrupt the block stream latched into status(). */
    [[gnu::cold]] void latch_interrupt();
    bool verify(std::size_t quote_pos, std::size_t& colon_pos) const;

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t end_;
    classify::BatchedBlockStream blocks_;
    std::string label_;
    StructuralValidator* validator_ = nullptr;
    obs::BlockAccountant* accountant_ = nullptr;
    EngineStatus status_;

    std::size_t block_start_ = 0;
    std::uint64_t candidates_ = 0;
    classify::QuoteState block_entry_quote_state_;
};

}  // namespace descend
