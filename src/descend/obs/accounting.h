/**
 * @file
 * Per-block attribution: which pipeline mode first consumed each block.
 *
 * The acceptance invariant of the observability layer is
 *
 *     blocks_structural + blocks_child_skipped + blocks_sibling_skipped
 *       + blocks_within_skipped + blocks_head_skip + blocks_tail
 *       == ceil(document_size / kBlockSize)
 *
 * and it holds by construction: the BlockAccountant uses the same
 * monotone-cursor idiom as StructuralValidator::account_run
 * (validation.h) — a run of blocks is attributed exactly when it starts at
 * the cursor, so the stop/resume protocol's re-classification of a block
 * the other pipeline already consumed is ignored, and every block is
 * counted exactly once under the mode of the walk that first classified
 * it (each pipeline names the mode when it accounts the run). finish()
 * closes the books by attributing the never-classified tail (blocks after
 * the root closer hold only whitespace — the engine's trailing-content
 * check guarantees it — so no pipeline ever pulls them).
 *
 * Like everything in obs/, the class collapses to a no-op shell when
 * DESCEND_OBS is off; the pipeline call sites stay unconditional.
 */
#pragma once

#include "descend/obs/counters.h"
#include "descend/simd/dispatch.h"

namespace descend::obs {

/** The pipeline mode a block is attributed to. */
enum class BlockMode : std::uint8_t {
    kStructural,    ///< normal structural iteration
    kChildSkip,     ///< depth-classifier fast-forward over a rejected subtree
    kSiblingSkip,   ///< depth-classifier fast-forward to the parent's closer
    kWithinSkip,    ///< §4.5 within-element label scan
    kHeadSkip,      ///< head-skip label search
};

constexpr Counter block_mode_counter(BlockMode mode) noexcept
{
    switch (mode) {
        case BlockMode::kStructural: return Counter::kBlocksStructural;
        case BlockMode::kChildSkip: return Counter::kBlocksChildSkipped;
        case BlockMode::kSiblingSkip: return Counter::kBlocksSiblingSkipped;
        case BlockMode::kWithinSkip: return Counter::kBlocksWithinSkipped;
        case BlockMode::kHeadSkip: return Counter::kBlocksHeadSkip;
    }
    return Counter::kBlocksStructural;
}

#if DESCEND_OBS_ENABLED

/** One accountant is shared by every pipeline over one document, exactly
 *  like the shared StructuralValidator. */
class BlockAccountant {
public:
    explicit BlockAccountant(Counters* counters) noexcept : counters_(counters) {}

    /** The registry the pipelines should also feed (ring refills). */
    Counters* counters() const noexcept { return counters_; }

    /** Attributes the blocks [@p from, @p to), a run one pipeline walked
     *  in @p mode, with one counter add. First classification wins: the
     *  run counts only if it starts at the cursor (a resume's
     *  re-classification of a block the other pipeline already consumed
     *  is ignored), the same rule StructuralValidator::account_run keeps. */
    void account_run(std::size_t from, std::size_t to, BlockMode mode) noexcept
    {
        if (counters_ == nullptr || from != counted_until_ || to <= from) {
            return;
        }
        counted_until_ = to;
        counters_->add(block_mode_counter(mode), (to - from) / simd::kBlockSize);
    }

    /** Attributes every remaining (never-classified) block to the tail.
     *  Idempotent; call once per dispatch return path. */
    void finish(std::size_t document_size) noexcept
    {
        if (counters_ == nullptr) {
            return;
        }
        std::size_t total =
            (document_size + simd::kBlockSize - 1) / simd::kBlockSize;
        std::size_t accounted = counted_until_ / simd::kBlockSize;
        if (total > accounted) {
            counters_->add(Counter::kBlocksTail, total - accounted);
            counted_until_ = total * simd::kBlockSize;
        }
    }

private:
    Counters* counters_;
    std::size_t counted_until_ = 0;
};

#else  // DESCEND_OBS_ENABLED

class BlockAccountant {
public:
    explicit BlockAccountant(Counters*) noexcept {}
    Counters* counters() const noexcept { return nullptr; }
    void account_run(std::size_t, std::size_t, BlockMode) noexcept {}
    void finish(std::size_t) noexcept {}
};

#endif  // DESCEND_OBS_ENABLED

}  // namespace descend::obs
