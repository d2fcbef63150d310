/**
 * @file
 * The batched block stream: a small ring of pre-classified blocks feeding
 * the pipeline consumers (structural iterator, label search).
 *
 * Instead of paying one indirect kernel call per primitive per block (quote
 * eq, backslash eq, structural shuffle, depth cmpeq all re-loading the same
 * bytes), consumers ask this ring for the block's BlockMasks; a cache miss
 * classifies the next kBatchBlocks blocks with one classify_batch kernel
 * call that loads each byte exactly once. Derived views — the structural
 * mask with commas/colons toggled, depth masks for one bracket kind — are
 * cheap recompositions of the cached masks, so toggling never invalidates
 * the ring. Each cached block also carries its four bracket counts outside
 * strings and the mask of its bytes equal to the stream's probe byte (see
 * simd::BlockMasks): full-block consumers add counts instead of
 * popcounting, and label search reads its first-byte prefilter off the
 * probe mask.
 *
 * The stop/resume protocol is preserved exactly: each cached block records
 * the quote-carry state at its entry (a classify::QuoteState on a block
 * boundary), and restart() re-seeds the carry for out-of-band jumps.
 *
 * Access pattern contract: requests must be block-aligned and either hit
 * the ring, continue it contiguously (block_start == ring end), or follow
 * a restart(). All pipeline consumers walk blocks monotonically, so this
 * holds by construction.
 *
 * Consumer contract: a consumer that moves over blocks does so with walk(),
 * which steps through the ring with its position in locals and sums the
 * blocks' bracket balances (RunBalance) as it goes. The consumer keeps its
 * own per-block state in locals too, writes it back once when the walk
 * stops, and accounts the whole run once (StructuralValidator::account_run,
 * obs::BlockAccountant::account_run) — not block by block through
 * pointers, which forces every store and reload on the hot path.
 *
 * Padding contract: a refill at block_start reads kBatchSize bytes from
 * there. The last possible refill starts at the final (possibly partial)
 * block of the input, so the buffer must keep PaddedString::kPadding >=
 * kBatchSize readable bytes past the logical end — see padded_string.h.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "descend/classify/quote_classifier.h"
#include "descend/obs/counters.h"
#include "descend/simd/dispatch.h"
#include "descend/util/bits.h"
#include "descend/util/budget.h"
#include "descend/util/status.h"

namespace descend::classify {

/** Positions of the block at @p block_start that lie below @p size: all
 *  ones except in the final partial block of an input, where the bytes
 *  past @p size belong to the surrounding buffer. Quote and escape
 *  analysis run strictly left to right within a block, so the masks'
 *  bits below the bound are right whatever the tail bytes hold: clipping
 *  them is all a slice needs. */
inline std::uint64_t valid_mask(std::size_t block_start, std::size_t size) noexcept
{
    std::size_t remaining = size - block_start;
    return remaining >= simd::kBlockSize
               ? ~std::uint64_t{0}
               : bits::mask_below(static_cast<int>(remaining));
}

/**
 * What the whole-document structural check needs of a run of consecutive
 * blocks: the per-kind bracket balances outside strings, and whether the
 * run's last valid position is inside a string. walk() sums it in the
 * consumer's locals; StructuralValidator::account_run takes it once.
 */
struct RunBalance {
    std::int64_t object = 0;  ///< '{' minus '}'
    std::int64_t array = 0;   ///< '[' minus ']'
    bool ends_in_string = false;

    /** Adds one block. @p valid is its valid_mask(): a whole block adds
     *  the batch's counts, a partial last block counts its clipped masks. */
    void add(const simd::BlockMasks& masks, std::uint64_t valid) noexcept
    {
        if (valid != ~std::uint64_t{0}) [[unlikely]] {
            // By value, so the walk's balance never escapes its registers.
            RunBalance clipped = partial(masks, valid);
            object += clipped.object;
            array += clipped.array;
            ends_in_string = clipped.ends_in_string;
            return;
        }
        object += static_cast<int>(masks.counts.open_braces) -
                  static_cast<int>(masks.counts.close_braces);
        array += static_cast<int>(masks.counts.open_brackets) -
                 static_cast<int>(masks.counts.close_brackets);
        ends_in_string = (masks.in_string >> 63) != 0;
    }

private:
    /** The balance of a partial block, from its masks clipped to @p valid. */
    static RunBalance partial(const simd::BlockMasks& masks,
                              std::uint64_t valid) noexcept;
};

class BatchedBlockStream {
public:
    /** @param counters optional obs registry: refill() feeds the batch-
     *  refill and blocks-classified counters, restart() the stop/resume
     *  switch counter. Null (and any build with DESCEND_OBS=OFF) counts
     *  nothing.
     *  @param budget optional run budget, polled once per refill (one
     *  check per kBatchSize input bytes). A violation latches interrupt()
     *  with the refill's block offset; consumers observe the latch after
     *  pulling masks and park their pipelines. Null (the default, and
     *  what engines pass for an inactive budget) costs one null test.
     *  @param probe the byte every cached block's probe mask marks; fixed
     *  for the stream's lifetime (restart() keeps it). */
    BatchedBlockStream(const std::uint8_t* data, const simd::Kernels& kernels,
                       obs::Counters* counters = nullptr,
                       const RunBudget* budget = nullptr,
                       std::uint8_t probe = 0) noexcept
        : data_(data), kernels_(&kernels), counters_(counters), budget_(budget)
    {
        carry_.probe = probe;
    }

    /**
     * Masks for the block starting at @p block_start (must be a multiple
     * of simd::kBlockSize). Refills the ring on a miss; see the access
     * pattern contract above.
     */
    const simd::BlockMasks& masks(std::size_t block_start) noexcept
    {
        assert(block_start % simd::kBlockSize == 0);
        if (ring_start_ != kInvalid && block_start - ring_start_ < simd::kBatchSize) {
            return ring_[(block_start - ring_start_) / simd::kBlockSize];
        }
        return refill(block_start);
    }

    /**
     * The block's cached masks if it is in the ring, else null — a peek
     * that never refills. Lets out-of-band consumers (span extension, which
     * re-enters the stream once per match) detect that the block they want
     * was already classified and skip the restart()+refill pair: the
     * caller compares entry_state() against its independently recovered
     * carry before trusting the hit.
     */
    const simd::BlockMasks* cached(std::size_t block_start) const noexcept
    {
        assert(block_start % simd::kBlockSize == 0);
        if (ring_start_ != kInvalid &&
            block_start - ring_start_ < simd::kBatchSize) {
            return &ring_[(block_start - ring_start_) / simd::kBlockSize];
        }
        return nullptr;
    }

    /**
     * Re-seeds the quote/escape carry at an arbitrary block boundary and
     * invalidates the ring; the next masks() call classifies from exactly
     * that boundary. This is the resume() half of the stop/resume protocol.
     */
    void restart(const QuoteState& state) noexcept
    {
        carry_.escape = state.escape_carry;
        carry_.in_string = state.in_string_carry;
        ring_start_ = kInvalid;
        obs::add(counters_, obs::Counter::kPipelineResumes);
    }

    /**
     * The consumer block walk. Offers the blocks from @p pos on, in order,
     * to @p stop(masks, block_start, bound), stepping through the ring
     * with the position in locals, and ends at the first block @p stop
     * accepts. @p bound is the block's valid_mask(block_start, size); for
     * the first block also ANDed with @p live. Every block the walk
     * enters is added to @p balance before it is offered. With
     * @p at_current the first block is the consumer's current block,
     * already entered: it is offered (from the bits of @p live on, e.g. a
     * floor) but not added again.
     *
     * Returns the stopping block's masks with @p pos at its start. Returns
     * null with @p pos at the block-aligned end of input when no block
     * stopped the walk, or with @p pos at the first block of a refill that
     * latched interrupt() (that block is not added).
     */
    template <typename Stop>
    const simd::BlockMasks* walk(std::size_t& pos, std::size_t size,
                                 RunBalance& balance, Stop&& stop,
                                 bool at_current = false,
                                 std::uint64_t live = ~std::uint64_t{0}) noexcept
    {
        bool entered = !at_current;
        while (pos < size) {
            const simd::BlockMasks* block = &masks(pos);
            if (!interrupt_.ok()) {
                return nullptr;
            }
            const simd::BlockMasks* batch_end = ring_ + simd::kBatchBlocks;
            do {
                std::uint64_t valid = valid_mask(pos, size);
                if (entered) {
                    balance.add(*block, valid);
                }
                if (stop(*block, pos, valid & live)) {
                    return block;
                }
                entered = true;
                live = ~std::uint64_t{0};
                pos += simd::kBlockSize;
            } while (++block != batch_end && pos < size);
        }
        return nullptr;
    }

    /** The quote state at the entry of a block's cached masks. */
    static QuoteState entry_state(const simd::BlockMasks& masks) noexcept
    {
        return {masks.entry_escaped, masks.entry_in_string};
    }

    const simd::Kernels& kernels() const noexcept { return *kernels_; }

    /**
     * The budget/failpoint interrupt latch: ok() until a refill observes
     * an exceeded budget (or an armed batch_refill failpoint), then the
     * violation's status with the refill's first block offset, held for
     * the stream's lifetime. The masks of the interrupting refill are
     * still valid — consumers check the latch after masks() and stop.
     */
    const EngineStatus& interrupt() const noexcept { return interrupt_; }

private:
    static constexpr std::size_t kInvalid = ~std::size_t{0};

    /** Ring miss: classify the next batch starting at @p block_start. */
    const simd::BlockMasks& refill(std::size_t block_start) noexcept;

    const std::uint8_t* data_;
    const simd::Kernels* kernels_;
    obs::Counters* counters_;
    const RunBudget* budget_ = nullptr;
    EngineStatus interrupt_;
    simd::BatchCarry carry_;
    std::size_t ring_start_ = kInvalid;
    simd::BlockMasks ring_[simd::kBatchBlocks];
};

}  // namespace descend::classify
