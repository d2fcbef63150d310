#include "descend/engine/label_search.h"

#include <cstring>

#include "descend/util/bits.h"
#include "descend/util/chars.h"

namespace descend {

using chars::is_ws_byte;

LabelSearch::LabelSearch(PaddedView input, const simd::Kernels& kernels,
                         std::string_view escaped_label,
                         StructuralValidator* validator,
                         obs::BlockAccountant* accountant,
                         const RunBudget* budget)
    : data_(input.data()),
      size_(input.size()),
      end_((input.size() + simd::kBlockSize - 1) / simd::kBlockSize * simd::kBlockSize),
      // Probe byte = the label's first byte: enter() reads its
      // first-byte prefilter off each block's probe mask.
      blocks_(input.data(), kernels,
              accountant == nullptr ? nullptr : accountant->counters(), budget,
              escaped_label.empty() ? std::uint8_t{0}
                                    : static_cast<std::uint8_t>(escaped_label[0])),
      label_(escaped_label),
      validator_(validator),
      accountant_(accountant)
{
    if (end_ > 0) {
        enter(0, 0);
    }
}

bool LabelSearch::enter(std::size_t from, std::size_t stop_at)
{
    // Candidates are string-opening quotes: unescaped quotes whose
    // in-string bit is set (the opening quote is inside its own string
    // under our convention), clipped to the slice end bound. First-byte
    // prefilter: the byte after the quote must be the label's first byte,
    // the stream's probe byte. Bit 63's successor lives in the next block,
    // so it is kept unconditionally and left to bytewise verification.
    const std::uint64_t keep =
        label_.empty() ? ~std::uint64_t{0} : std::uint64_t{1} << 63;
    std::uint64_t candidates = 0;
    std::size_t pos = from;
    classify::RunBalance balance;
    const simd::BlockMasks* masks = blocks_.walk(
        pos, size_, balance,
        [&](const simd::BlockMasks& block, std::size_t block_start,
            std::uint64_t valid) {
            candidates = block.unescaped_quotes & block.in_string & valid &
                         ((block.probe >> 1) | keep);
            return candidates != 0 || block_start >= stop_at;
        });
    const std::size_t to = masks != nullptr ? pos + simd::kBlockSize : pos;
    if (validator_ != nullptr) {
        validator_->account_run(from, to, balance);
    }
    if (accountant_ != nullptr) {
        accountant_->account_run(from, to, obs::BlockMode::kHeadSkip);
    }
    if (masks == nullptr) {
        // End of input, or a budget violation latched by a refill: park
        // the search; the engine reads status() once next() runs dry.
        if (!blocks_.interrupt().ok() && status_.ok()) {
            latch_interrupt();
        }
        block_start_ = end_;
        candidates_ = 0;
        return false;
    }
    block_start_ = pos;
    candidates_ = candidates;
    block_entry_quote_state_ = classify::BatchedBlockStream::entry_state(*masks);
    return true;
}

void LabelSearch::latch_interrupt()
{
    status_ = blocks_.interrupt();
}

bool LabelSearch::verify(std::size_t quote_pos, std::size_t& colon_pos) const
{
    std::size_t content = quote_pos + 1;
    if (content + label_.size() + 1 > size_) {
        return false;
    }
    if (std::memcmp(data_ + content, label_.data(), label_.size()) != 0) {
        return false;
    }
    if (data_[content + label_.size()] != '"') {
        return false;
    }
    std::size_t after = content + label_.size() + 1;
    while (after < size_ && is_ws_byte(data_[after])) {
        ++after;
    }
    if (after >= size_ || data_[after] != ':') {
        return false;
    }
    colon_pos = after;
    return true;
}

std::optional<LabelSearch::Occurrence> LabelSearch::next()
{
    while (block_start_ < end_) {
        while (candidates_ != 0) {
            int bit = bits::trailing_zeros(candidates_);
            candidates_ = bits::clear_lowest_bit(candidates_);
            std::size_t quote_pos = block_start_ + static_cast<std::size_t>(bit);
            std::size_t colon_pos = 0;
            obs::Counters* counters =
                accountant_ == nullptr ? nullptr : accountant_->counters();
            obs::add(counters, obs::Counter::kLabelSearchCandidates);
            if (verify(quote_pos, colon_pos)) {
                obs::add(counters, obs::Counter::kLabelSearchHits);
                return Occurrence{quote_pos, colon_pos};
            }
        }
        if (!enter(block_start_ + simd::kBlockSize, end_)) {
            break;
        }
    }
    return std::nullopt;
}

ResumePoint LabelSearch::resume_point_at(std::size_t pos)
{
    std::size_t target_block = pos / simd::kBlockSize * simd::kBlockSize;
    while (block_start_ < target_block &&
           enter(block_start_ + simd::kBlockSize, target_block)) {
    }
    ResumePoint point;
    point.block_start = block_start_;
    point.quote_state = block_entry_quote_state_;
    // Normalize the floor into [0, kBlockSize): when @p pos sits at or past
    // the end of the classified range (a block boundary, or beyond the
    // final partial block), enter() parked at end_ and the naive
    // pos - block_start_ would be >= 64 — an out-of-range shift amount for
    // the receiver's resume mask. Park such points at the aligned end with
    // floor 0 instead; every receiver treats block_start >= end as spent.
    if (pos <= block_start_) {
        point.floor = 0;
    } else if (pos - block_start_ >= simd::kBlockSize) {
        point.block_start = end_;
        point.floor = 0;
    } else {
        point.floor = static_cast<int>(pos - block_start_);
    }
    return point;
}

void LabelSearch::resume(const ResumePoint& point)
{
    block_start_ = point.block_start;
    if (block_start_ >= end_) {
        block_start_ = end_;
        candidates_ = 0;
        return;
    }
    blocks_.restart(point.quote_state);
    if (!enter(block_start_, block_start_)) {
        return;  // parked on a budget interrupt
    }
    // An iterator that consumed bit 63 legitimately hands over floor == 64
    // ("this block is spent"); clamp so the mask index stays in range.
    int floor = point.floor < 0 ? 0 : point.floor;
    if (floor >= static_cast<int>(simd::kBlockSize)) {
        candidates_ = 0;
        return;
    }
    candidates_ &= bits::mask_from(floor);
}

}  // namespace descend
