#include "descend/classify/block_batch.h"

#include "descend/fault/failpoints.h"

namespace descend::classify {

RunBalance RunBalance::partial(const simd::BlockMasks& masks,
                               std::uint64_t valid) noexcept
{
    std::uint64_t in_string = masks.in_string & valid;
    std::uint64_t not_string = ~in_string & valid;
    RunBalance clipped;
    clipped.object = bits::popcount(masks.open_braces & not_string) -
                     bits::popcount(masks.close_braces & not_string);
    clipped.array = bits::popcount(masks.open_brackets & not_string) -
                    bits::popcount(masks.close_brackets & not_string);
    // The string state at the end bound: the highest valid position's
    // in-string bit (valid is a contiguous low mask, so its popcount is
    // the index one past the top bit).
    int top = bits::popcount(valid) - 1;
    clipped.ends_in_string = top >= 0 && ((in_string >> top) & 1) != 0;
    return clipped;
}

const simd::BlockMasks& BatchedBlockStream::refill(std::size_t block_start) noexcept
{
    // Refills are contiguous-only: either the ring was just invalidated by
    // restart() (the carry is seeded for exactly this boundary), or the
    // request continues the previous batch (the carry was threaded there by
    // the last classify_batch call). Anything else would classify with a
    // stale carry.
    assert(ring_start_ == kInvalid || block_start == ring_start_ + simd::kBatchSize);
    kernels_->classify_batch(data_ + block_start, carry_, ring_);
    ring_start_ = block_start;
    obs::add(counters_, obs::Counter::kBatchRefills);
    obs::add(counters_, obs::Counter::kBlocksClassified, simd::kBatchBlocks);
    // Governance rides the refill boundary: one poll per kBatchSize bytes.
    // The violation latches with this refill's offset — the masks just
    // produced stay valid, consumers park when they see the latch.
    if (budget_ != nullptr && interrupt_.ok()) {
        StatusCode over = budget_->exceeded();
        if (over != StatusCode::kOk) {
            interrupt_ = {over, block_start};
        }
    }
    if constexpr (fault::kEnabled) {
        if (interrupt_.ok() && fault::should_fire(fault::Site::kBatchRefill)) {
            // Payload: the StatusCode to force; anything out of range (or
            // kOk) defaults to a deadline hit.
            auto code = static_cast<StatusCode>(
                fault::payload(fault::Site::kBatchRefill));
            if (static_cast<std::size_t>(code) >= kStatusCodeCount ||
                code == StatusCode::kOk) {
                code = StatusCode::kDeadlineExceeded;
            }
            interrupt_ = {code, block_start};
        }
    }
    return ring_[0];
}

}  // namespace descend::classify
