#include "descend/engine/structural_iterator.h"

#include <cassert>
#include <cstring>

#include "descend/util/bits.h"
#include "descend/util/chars.h"

namespace descend {

using chars::is_ws_byte;

StructuralIterator::StructuralIterator(PaddedView input,
                                       const simd::Kernels& kernels,
                                       StructuralValidator* validator,
                                       std::size_t max_skip_depth,
                                       obs::BlockAccountant* accountant,
                                       const RunBudget* budget)
    : data_(input.data()),
      size_(input.size()),
      end_((input.size() + simd::kBlockSize - 1) / simd::kBlockSize * simd::kBlockSize),
      blocks_(input.data(), kernels,
              accountant == nullptr ? nullptr : accountant->counters(), budget),
      validator_(validator),
      accountant_(accountant),
      max_skip_depth_(max_skip_depth)
{
    if (end_ > 0) {
        enter_structural(0, /*first_only=*/true);
    }
}

void StructuralIterator::fail(StatusCode code, std::size_t offset)
{
    if (status_.ok()) {
        status_ = {code, offset};
    }
    // Park at end of input: struct_mask_ stays empty, next() reports
    // kNone, and the engine observes status() in its end-of-input path.
    block_start_ = end_;
    struct_mask_ = 0;
    in_string_ = 0;
}

std::uint64_t StructuralIterator::compose_structural(
    const simd::BlockMasks& masks) const noexcept
{
    std::uint64_t composed = masks.open_braces | masks.close_braces |
                             masks.open_brackets | masks.close_brackets;
    if (commas_on_) {
        composed |= masks.commas;
    }
    if (colons_on_) {
        composed |= masks.colons;
    }
    return composed;
}

template <typename Stop>
const simd::BlockMasks* StructuralIterator::enter(std::size_t from,
                                                 obs::BlockMode mode, Stop&& stop,
                                                 bool at_current)
{
    std::size_t pos = from;
    classify::RunBalance balance;
    const simd::BlockMasks* masks =
        blocks_.walk(pos, size_, balance, stop, at_current,
                     at_current ? bits::mask_from(floor_) : ~std::uint64_t{0});
    // The run: the blocks the walk entered (not a current block it began in).
    const std::size_t run_from = at_current ? from + simd::kBlockSize : from;
    const std::size_t to = masks != nullptr ? pos + simd::kBlockSize : pos;
    if (validator_ != nullptr) {
        validator_->account_run(run_from, to, balance);
    }
    if (accountant_ != nullptr) {
        accountant_->account_run(run_from, to, mode);
    }
    if (masks != nullptr) {
        block_start_ = pos;
        std::uint64_t valid = block_valid_mask();
        in_string_ = masks->in_string & valid;
        unescaped_quotes_ = masks->unescaped_quotes & valid;
        block_entry_quote_state_ = classify::BatchedBlockStream::entry_state(*masks);
        return masks;
    }
    end_walk(pos > run_from, balance.ends_in_string);
    return nullptr;
}

void StructuralIterator::end_walk(bool entered, bool ends_in_string)
{
    // End of input inside a string: nothing within the bound can close
    // it, so the final string is unterminated. The last in-bound in-string
    // bit of the final block is exactly "still open" (opening quotes are
    // in-string inclusive, closing exclusive): the walk's balance holds it
    // when the walk entered that block, the current block's in_string_
    // when it is the final one.
    bool open_at_end = ends_in_string;
    if (!entered) {
        std::size_t tail = size_ % simd::kBlockSize;
        int last_bit = tail == 0 ? 63 : static_cast<int>(tail) - 1;
        open_at_end = ((in_string_ >> last_bit) & 1) != 0;
    }
    block_start_ = end_;
    floor_ = 0;
    struct_mask_ = 0;
    in_string_ = 0;
    if (!blocks_.interrupt().ok()) {
        // A refill latched a budget violation (or an armed failpoint):
        // parked exactly like malformed input — validator accounting
        // stops before the refill's block, which is fine because a non-ok
        // status means the structural verdict is never consulted.
        if (status_.ok()) {
            latch_interrupt();
        }
        return;
    }
    if (open_at_end) {
        fail(StatusCode::kTruncatedString, size_);
    }
}

void StructuralIterator::latch_interrupt()
{
    status_ = blocks_.interrupt();
}

bool StructuralIterator::enter_structural(std::size_t from, bool first_only)
{
    std::uint64_t mask = 0;
    if (enter(from, obs::BlockMode::kStructural,
              [&](const simd::BlockMasks& masks, std::size_t,
                  std::uint64_t valid) {
                  mask = compose_structural(masks) & ~masks.in_string & valid;
                  return first_only || mask != 0;
              }) == nullptr) {
        return false;
    }
    floor_ = 0;
    struct_mask_ = mask;
    return true;
}

bool StructuralIterator::advance()
{
    return block_start_ < end_ &&
           enter_structural(block_start_ + simd::kBlockSize, /*first_only=*/false);
}

void StructuralIterator::set_commas(bool enabled, bool eager_disable)
{
    if (commas_on_ == enabled) {
        return;
    }
    commas_on_ = enabled;
    if ((enabled || eager_disable) && block_start_ < end_) {
        struct_mask_ = compose_structural(blocks_.masks(block_start_)) &
                       ~in_string_ & bits::mask_from(floor_) & block_valid_mask();
    }
}

void StructuralIterator::set_colons(bool enabled, bool eager_disable)
{
    if (colons_on_ == enabled) {
        return;
    }
    colons_on_ = enabled;
    if ((enabled || eager_disable) && block_start_ < end_) {
        struct_mask_ = compose_structural(blocks_.masks(block_start_)) &
                       ~in_string_ & bits::mask_from(floor_) & block_valid_mask();
    }
}

std::optional<std::string_view> StructuralIterator::label_before(std::size_t pos) const
{
    // Backtrack over whitespace (and the colon, when called for an opening
    // character) to the closing quote of the label.
    std::size_t i = pos;
    while (i > 0 && is_ws_byte(data_[i - 1])) {
        --i;
    }
    if (i == 0) {
        return std::nullopt;
    }
    if (data_[i - 1] == classify::kColon) {
        --i;
        while (i > 0 && is_ws_byte(data_[i - 1])) {
            --i;
        }
        if (i == 0) {
            return std::nullopt;
        }
    }
    if (data_[i - 1] != '"') {
        // A comma, an opening bracket, or the start of the document: the
        // element is an array entry (or the root) and carries the
        // artificial label.
        return std::nullopt;
    }
    std::size_t close = i - 1;
    // Find the matching opening quote, skipping escaped quotes: a quote is
    // escaped iff preceded by an odd-length backslash run.
    std::size_t j = close;
    while (j > 0) {
        --j;
        if (data_[j] != '"') {
            continue;
        }
        std::size_t backslashes = 0;
        while (j > backslashes && data_[j - 1 - backslashes] == '\\') {
            ++backslashes;
        }
        if (backslashes % 2 == 0) {
            // Unescaped quote: the label starts after it.
            return std::string_view(reinterpret_cast<const char*>(data_ + j + 1),
                                    close - j - 1);
        }
        j -= backslashes;
    }
    return std::nullopt;
}

void StructuralIterator::skip_until_depth_zero(classify::BracketKind kind,
                                               bool consume_closer,
                                               std::size_t base_depth,
                                               obs::BlockMode mode)
{
    if (block_start_ >= end_) {
        return;  // parked
    }
    // The limit is absolute: @p base_depth containers surround the element
    // whose nesting the counters below track, so the relative bound is
    // what remains of the budget. Callers guarantee the skipped element
    // itself is within the limit (base_depth < max_skip_depth_).
    //
    // Two counters: relative_depth counts @p kind only — per §4.3 the
    // matching closer is the same-kind closer at depth zero, so one kind
    // suffices to *terminate*. The depth LIMIT is about total nesting, and
    // a subtree can nest arbitrarily through the other bracket kind while
    // the kind-counter stays flat — true_depth counts every bracket so the
    // budget cannot be dodged that way.
    const std::size_t max_relative =
        max_skip_depth_ - (base_depth < max_skip_depth_ ? base_depth
                                                        : max_skip_depth_);
    constexpr std::size_t kNoLimitHit = ~std::size_t{0};
    int relative_depth = 1;
    int true_depth = 1;
    int index = -1;
    std::size_t limit_hit = kNoLimitHit;
    // One block of the fast-forward; true stops the walk there (the
    // closer found, or the depth limit hit). @p bound: the block's
    // positions within the end bound and above the floor.
    auto step = [&](const simd::BlockMasks& block_masks, std::size_t block_start,
                    std::uint64_t bound) {
        const simd::BracketCounts& all = block_masks.counts;
        const int all_opener_count = all.open_braces + all.open_brackets;
        const bool whole = bound == ~std::uint64_t{0};
        classify::DepthCounts counts;
        if (whole) {
            // The batch counts settle a whole block when its closers are
            // fewer than the relative depth (the depth cannot reach zero
            // here, Section 4.4) and its openers cannot pass the absolute
            // limit: two adds, no mask work.
            counts = classify::depth_counts(block_masks, kind);
            if (counts.closers < relative_depth &&
                static_cast<std::size_t>(true_depth) +
                        static_cast<std::size_t>(all_opener_count) <=
                    max_relative) {
                relative_depth += counts.openers - counts.closers;
                true_depth += all_opener_count - all.close_braces - all.close_brackets;
                return false;
            }
        }
        classify::DepthMasks masks = classify::depth_masks(block_masks, kind);
        const std::uint64_t in_bound = ~block_masks.in_string & bound;
        masks.openers &= in_bound;
        masks.closers &= in_bound;
        const std::uint64_t all_openers =
            (block_masks.open_braces | block_masks.open_brackets) & in_bound;
        const std::uint64_t all_closers =
            (block_masks.close_braces | block_masks.close_brackets) & in_bound;
        // The first block (clipped by the floor) and a slice's partial
        // last block count their clipped masks.
        int opener_count = all_opener_count;
        int closer_count = all.close_braces + all.close_brackets;
        if (!whole) {
            counts = {bits::popcount(masks.openers), bits::popcount(masks.closers)};
            opener_count = bits::popcount(all_openers);
            closer_count = bits::popcount(all_closers);
        }
        if (static_cast<std::size_t>(true_depth) +
                static_cast<std::size_t>(opener_count) >
            max_relative) {
            // The bit-parallel step would hide an intra-block depth
            // excursion past the limit: enforce it with an exact scan of
            // this block (the guard almost never fires at sane limits).
            for (bits::BitIter it(all_openers | all_closers); !it.done();
                 it.advance()) {
                int bit = it.index();
                std::uint64_t bit_mask = 1ULL << bit;
                if (all_openers & bit_mask) {
                    // true_depth can be negative on malformed input (stray
                    // other-kind closers); that is unbalanced structure for
                    // a later stage, not a depth-limit hit.
                    if (true_depth >= 0 &&
                        static_cast<std::size_t>(true_depth) >= max_relative) {
                        limit_hit = block_start + static_cast<std::size_t>(bit);
                        return true;
                    }
                    ++true_depth;
                    if (masks.openers & bit_mask) {
                        ++relative_depth;
                    }
                } else {
                    --true_depth;
                    if ((masks.closers & bit_mask) && --relative_depth == 0) {
                        index = bit;
                        return true;
                    }
                }
            }
        } else {
            index = classify::find_depth_zero(masks, counts, relative_depth);
            if (index >= 0) {
                return true;
            }
            true_depth += opener_count - closer_count;
        }
        if (true_depth > 0 &&
            static_cast<std::size_t>(true_depth) > max_relative) {
            limit_hit = block_start + simd::kBlockSize;
            return true;
        }
        return false;
    };
    const simd::BlockMasks* masks = enter(block_start_, mode, step, /*at_current=*/true);
    if (masks == nullptr) {
        // Malformed input: the element never closed. enter() already
        // flagged a truncated string if one swallowed the closer (or a
        // latched interrupt); otherwise the structure is unbalanced.
        fail(StatusCode::kUnbalancedStructure, size_);
        return;
    }
    if (limit_hit != kNoLimitHit) {
        fail(StatusCode::kDepthLimit, limit_hit);
        return;
    }
    floor_ = consume_closer ? index + 1 : index;
    struct_mask_ = compose_structural(*masks) & ~in_string_ &
                   bits::mask_from(floor_) & block_valid_mask();
}

void StructuralIterator::skip_element(std::uint8_t opening_byte,
                                      std::size_t base_depth)
{
    skip_until_depth_zero(opening_byte == classify::kOpenBrace
                              ? classify::BracketKind::kObject
                              : classify::BracketKind::kArray,
                          /*consume_closer=*/true, base_depth,
                          obs::BlockMode::kChildSkip);
}

void StructuralIterator::skip_to_parent_close(bool parent_is_object,
                                              std::size_t base_depth)
{
    skip_until_depth_zero(parent_is_object ? classify::BracketKind::kObject
                                           : classify::BracketKind::kArray,
                          /*consume_closer=*/false, base_depth,
                          obs::BlockMode::kSiblingSkip);
}

void StructuralIterator::seek(std::size_t pos, obs::BlockMode mode)
{
    if (block_start_ >= end_) {
        // Parked (failed/interrupted) before reaching @p pos: stay parked
        // instead of computing a negative floor against end_.
        return;
    }
    const std::size_t target_block = pos / simd::kBlockSize * simd::kBlockSize;
    const simd::BlockMasks* masks =
        enter(block_start_, mode,
              [&](const simd::BlockMasks&, std::size_t block_start,
                  std::uint64_t) { return block_start >= target_block; },
              /*at_current=*/true);
    if (masks == nullptr) {
        return;
    }
    floor_ = static_cast<int>(pos - block_start_);
    struct_mask_ = compose_structural(*masks) & ~in_string_ &
                   bits::mask_from(floor_) & block_valid_mask();
}

StructuralIterator::WithinResult StructuralIterator::skip_to_label_within(
    std::string_view escaped_label, BitStack& opened, int& relative_depth,
    std::size_t base_depth)
{
    WithinResult result;  // kInputEnd until the scan finds better
    if (block_start_ >= end_) {
        return result;  // parked
    }
    const simd::Kernels& kernels = blocks_.kernels();
    // Absolute-depth budget, as in skip_until_depth_zero.
    const std::size_t max_relative =
        max_skip_depth_ - (base_depth < max_skip_depth_ ? base_depth
                                                        : max_skip_depth_);
    constexpr std::size_t kNotFound = ~std::size_t{0};
    std::size_t limit_hit = kNotFound;
    std::size_t closer_pos = kNotFound;
    // One block of the scan; true stops the walk at the element's closer,
    // a found label or the depth limit.
    auto step = [&](const simd::BlockMasks& block_masks, std::size_t block_start,
                    std::uint64_t bound) {
        std::uint64_t not_string = ~block_masks.in_string & bound;
        std::uint64_t openers =
            (block_masks.open_braces | block_masks.open_brackets) & not_string;
        std::uint64_t closers =
            (block_masks.close_braces | block_masks.close_brackets) & not_string;
        // Candidate labels: string-opening quotes, prefiltered by the
        // label's first byte (bit 63's successor lives in the next block,
        // so it is kept and left to bytewise verification).
        std::uint64_t candidates =
            block_masks.unescaped_quotes & block_masks.in_string & bound;
        if (!escaped_label.empty()) {
            std::uint64_t first = kernels.eq_mask(
                data_ + block_start, static_cast<std::uint8_t>(escaped_label[0]));
            candidates &= (first >> 1) | (1ULL << 63);
        }
        std::uint64_t combined = openers | closers | candidates;
        for (bits::BitIter it(combined); !it.done(); it.advance()) {
            int bit = it.index();
            std::uint64_t bit_mask = 1ULL << bit;
            std::size_t pos = block_start + static_cast<std::size_t>(bit);
            if (openers & bit_mask) {
                ++relative_depth;
                if (static_cast<std::size_t>(relative_depth) > max_relative) {
                    limit_hit = pos;
                    return true;
                }
                opened.push(data_[pos] == classify::kOpenBrace);
                continue;
            }
            if (closers & bit_mask) {
                if (--relative_depth == 0) {
                    closer_pos = pos;  // the element closed
                    return true;
                }
                opened.pop();
                continue;
            }
            // Candidate: verify "<label>" followed by a colon.
            obs::add(obs_counters(), obs::Counter::kLabelSearchCandidates);
            std::size_t content = pos + 1;
            if (content + escaped_label.size() + 1 > size_ ||
                std::memcmp(data_ + content, escaped_label.data(),
                            escaped_label.size()) != 0 ||
                data_[content + escaped_label.size()] != '"') {
                continue;
            }
            std::size_t after = first_non_ws(content + escaped_label.size() + 1);
            if (after >= size_ || data_[after] != classify::kColon) {
                continue;
            }
            obs::add(obs_counters(), obs::Counter::kLabelSearchHits);
            result.outcome = WithinResult::Outcome::kFoundLabel;
            result.colon_pos = after;
            result.value_pos = first_non_ws(after + 1);
            return true;
        }
        return false;
    };
    if (enter(block_start_, obs::BlockMode::kWithinSkip, step,
              /*at_current=*/true) == nullptr) {
        // The element never closed (or its closer sits beyond the
        // in-string flag enter() raised): unbalanced structure.
        fail(StatusCode::kUnbalancedStructure, size_);
        return result;
    }
    if (limit_hit != kNotFound) {
        fail(StatusCode::kDepthLimit, limit_hit);
        return result;
    }
    if (closer_pos != kNotFound) {
        // Leave the closer pending.
        seek(closer_pos, obs::BlockMode::kWithinSkip);
        result.outcome = WithinResult::Outcome::kElementEnd;
        return result;
    }
    seek(result.value_pos, obs::BlockMode::kWithinSkip);
    return result;
}

ResumePoint StructuralIterator::resume_point() const
{
    return {block_start_, block_entry_quote_state_, floor_};
}

void StructuralIterator::resume(const ResumePoint& point)
{
    // floor == 64 is a legal "block spent" handoff (a producer that
    // consumed bit 63); mask_from copes with it, but never let a negative
    // floor reach the shift below.
    const int floor = point.floor < 0 ? 0 : point.floor;
    block_start_ = point.block_start;
    floor_ = floor;
    if (block_start_ >= end_) {
        block_start_ = end_;
        struct_mask_ = 0;
        in_string_ = 0;
        return;
    }
    blocks_.restart(point.quote_state);
    if (enter_structural(block_start_, /*first_only=*/true)) {
        floor_ = floor;
        struct_mask_ &= bits::mask_from(floor);
    }
}

std::size_t StructuralIterator::first_non_ws(std::size_t pos) const noexcept
{
    while (pos < size_ && is_ws_byte(data_[pos])) {
        ++pos;
    }
    return pos;
}

}  // namespace descend
