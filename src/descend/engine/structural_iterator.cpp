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
        classify_block(/*with_structural=*/true);
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

std::uint64_t StructuralIterator::block_valid_mask() const noexcept
{
    // Quote and escape analysis are strictly left-to-right within a block,
    // so bits below the end bound are correct no matter what the tail
    // bytes hold; clipping the masks is all slice support needs.
    std::size_t remaining = size_ - block_start_;
    return remaining >= simd::kBlockSize
               ? ~std::uint64_t{0}
               : bits::mask_below(static_cast<int>(remaining));
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

void StructuralIterator::classify_block(bool with_structural)
{
    const simd::BlockMasks& masks = blocks_.masks(block_start_);
    if (!blocks_.interrupt().ok()) {
        // A refill latched a budget violation (or an armed failpoint):
        // park exactly like malformed input — validator accounting stops
        // here too, which is fine because a non-ok status means the
        // structural verdict is never consulted.
        fail(blocks_.interrupt().code, blocks_.interrupt().offset);
        return;
    }
    block_entry_quote_state_ = classify::BatchedBlockStream::entry_state(masks);
    std::uint64_t valid = block_valid_mask();
    in_string_ = masks.in_string & valid;
    unescaped_quotes_ = masks.unescaped_quotes & valid;
    if (validator_ != nullptr) {
        validator_->account(masks, block_start_, valid);
    }
    if (accountant_ != nullptr) {
        accountant_->account(block_start_);
    }
    struct_mask_ =
        with_structural ? (compose_structural(masks) & ~in_string_ & valid) : 0;
}

bool StructuralIterator::advance_block(bool with_structural)
{
    block_start_ += simd::kBlockSize;
    floor_ = 0;
    if (block_start_ >= end_) {
        block_start_ = end_;
        struct_mask_ = 0;
        // End of input inside a string: nothing within the bound can close
        // it, so the final string is unterminated. The last in-bound
        // in-string bit of the previous block is exactly "still open"
        // (opening quotes are in-string inclusive, closing exclusive);
        // for block-aligned input that is the block's top bit, which
        // equals the quote carry.
        std::size_t tail = size_ % simd::kBlockSize;
        int last_bit = tail == 0 ? 63 : static_cast<int>(tail) - 1;
        bool open_at_end = ((in_string_ >> last_bit) & 1) != 0;
        in_string_ = 0;
        if (open_at_end) {
            fail(StatusCode::kTruncatedString, size_);
        }
        return false;
    }
    classify_block(with_structural);
    // classify_block may have parked the iterator (budget interrupt): the
    // parked position is end_, which callers must observe as exhaustion —
    // a seek() or skip continuing past a park would underflow its floor.
    return block_start_ < end_;
}

StructuralIterator::Event StructuralIterator::event_at(int bit) const
{
    std::size_t pos = block_start_ + static_cast<std::size_t>(bit);
    std::uint8_t byte = data_[pos];
    Kind kind;
    switch (byte) {
        case classify::kOpenBrace:
        case classify::kOpenBracket: kind = Kind::kOpening; break;
        case classify::kCloseBrace:
        case classify::kCloseBracket: kind = Kind::kClosing; break;
        case classify::kColon: kind = Kind::kColon; break;
        default: kind = Kind::kComma; break;
    }
    return {kind, byte, pos};
}

StructuralIterator::Event StructuralIterator::next()
{
    while (struct_mask_ == 0) {
        if (block_start_ >= end_ || !advance_block(/*with_structural=*/true)) {
            return {Kind::kNone, 0, size_};
        }
    }
    int bit = bits::trailing_zeros(struct_mask_);
    struct_mask_ = bits::clear_lowest_bit(struct_mask_);
    floor_ = bit + 1;
    return event_at(bit);
}

StructuralIterator::Event StructuralIterator::peek()
{
    while (struct_mask_ == 0) {
        if (block_start_ >= end_ || !advance_block(/*with_structural=*/true)) {
            return {Kind::kNone, 0, size_};
        }
    }
    return event_at(bits::trailing_zeros(struct_mask_));
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
                                               std::size_t base_depth)
{
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
    int relative_depth = 1;
    int true_depth = 1;
    std::uint64_t live = bits::mask_from(floor_);
    while (block_start_ < end_) {
        const simd::BlockMasks& block_masks = blocks_.masks(block_start_);
        classify::DepthMasks masks = classify::depth_masks(block_masks, kind);
        std::uint64_t valid = block_valid_mask();
        std::uint64_t in_bound = ~in_string_ & live & valid;
        masks.openers &= in_bound;
        masks.closers &= in_bound;
        std::uint64_t all_openers =
            (block_masks.open_braces | block_masks.open_brackets) & in_bound;
        std::uint64_t all_closers =
            (block_masks.close_braces | block_masks.close_brackets) & in_bound;
        // A whole block takes its counts from the batch; the first block
        // (clipped by the floor) and a slice's partial last block count
        // their clipped masks.
        classify::DepthCounts counts;
        int all_opener_count;
        int all_closer_count;
        if ((live & valid) == ~std::uint64_t{0}) {
            counts = classify::depth_counts(block_masks, kind);
            all_opener_count =
                block_masks.counts.open_braces + block_masks.counts.open_brackets;
            all_closer_count =
                block_masks.counts.close_braces + block_masks.counts.close_brackets;
        } else {
            counts = {bits::popcount(masks.openers), bits::popcount(masks.closers)};
            all_opener_count = bits::popcount(all_openers);
            all_closer_count = bits::popcount(all_closers);
        }
        int index;
        if (static_cast<std::size_t>(true_depth) +
                static_cast<std::size_t>(all_opener_count) >
            max_relative) {
            // The bit-parallel step would hide an intra-block depth
            // excursion past the limit: enforce it with an exact scan of
            // this block (the guard almost never fires at sane limits).
            index = -1;
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
                        fail(StatusCode::kDepthLimit,
                             block_start_ + static_cast<std::size_t>(bit));
                        return;
                    }
                    ++true_depth;
                    if (masks.openers & bit_mask) {
                        ++relative_depth;
                    }
                } else {
                    --true_depth;
                    if ((masks.closers & bit_mask) && --relative_depth == 0) {
                        index = bit;
                        break;
                    }
                }
            }
        } else {
            index = classify::find_depth_zero(masks, counts, relative_depth);
            true_depth += all_opener_count - all_closer_count;
        }
        if (index >= 0) {
            floor_ = consume_closer ? index + 1 : index;
            struct_mask_ = compose_structural(block_masks) & ~in_string_ &
                           bits::mask_from(floor_) & valid;
            return;
        }
        if (true_depth > 0 &&
            static_cast<std::size_t>(true_depth) > max_relative) {
            fail(StatusCode::kDepthLimit, block_start_ + simd::kBlockSize);
            return;
        }
        if (!advance_block(/*with_structural=*/false)) {
            // Malformed input: the element never closed. advance_block
            // already flagged a truncated string if one swallowed the
            // closer; otherwise the structure is unbalanced.
            fail(StatusCode::kUnbalancedStructure, size_);
            return;
        }
        live = ~0ULL;
    }
}

void StructuralIterator::skip_element(std::uint8_t opening_byte,
                                      std::size_t base_depth)
{
    obs::ModeScope mode(accountant_, obs::BlockMode::kChildSkip);
    skip_until_depth_zero(opening_byte == classify::kOpenBrace
                              ? classify::BracketKind::kObject
                              : classify::BracketKind::kArray,
                          /*consume_closer=*/true, base_depth);
}

void StructuralIterator::skip_to_parent_close(bool parent_is_object,
                                              std::size_t base_depth)
{
    obs::ModeScope mode(accountant_, obs::BlockMode::kSiblingSkip);
    skip_until_depth_zero(parent_is_object ? classify::BracketKind::kObject
                                           : classify::BracketKind::kArray,
                          /*consume_closer=*/false, base_depth);
}

void StructuralIterator::seek(std::size_t pos)
{
    std::size_t target_block = pos / simd::kBlockSize * simd::kBlockSize;
    while (block_start_ < target_block) {
        if (!advance_block(/*with_structural=*/false)) {
            return;
        }
    }
    if (block_start_ >= end_) {
        // Parked (failed/interrupted) before reaching @p pos: stay parked
        // instead of computing a negative floor against end_.
        return;
    }
    floor_ = static_cast<int>(pos - block_start_);
    struct_mask_ = compose_structural(blocks_.masks(block_start_)) & ~in_string_ &
                   bits::mask_from(floor_) & block_valid_mask();
}

StructuralIterator::WithinResult StructuralIterator::skip_to_label_within(
    std::string_view escaped_label, BitStack& opened, int& relative_depth,
    std::size_t base_depth)
{
    const simd::Kernels& kernels = blocks_.kernels();
    obs::ModeScope mode(accountant_, obs::BlockMode::kWithinSkip);
    // Absolute-depth budget, as in skip_until_depth_zero.
    const std::size_t max_relative =
        max_skip_depth_ - (base_depth < max_skip_depth_ ? base_depth
                                                        : max_skip_depth_);
    WithinResult result;
    std::uint64_t live = bits::mask_from(floor_);
    while (block_start_ < end_) {
        const std::uint8_t* block = data_ + block_start_;
        const simd::BlockMasks& block_masks = blocks_.masks(block_start_);
        std::uint64_t not_string = ~in_string_ & live & block_valid_mask();
        std::uint64_t openers =
            (block_masks.open_braces | block_masks.open_brackets) & not_string;
        std::uint64_t closers =
            (block_masks.close_braces | block_masks.close_brackets) & not_string;
        // Candidate labels: string-opening quotes, prefiltered by the
        // label's first byte (bit 63's successor lives in the next block,
        // so it is kept and left to bytewise verification).
        std::uint64_t candidates = unescaped_quotes_ & in_string_ & live;
        if (!escaped_label.empty()) {
            std::uint64_t first = kernels.eq_mask(
                block, static_cast<std::uint8_t>(escaped_label[0]));
            candidates &= (first >> 1) | (1ULL << 63);
        }
        std::uint64_t combined = openers | closers | candidates;
        for (bits::BitIter it(combined); !it.done(); it.advance()) {
            int bit = it.index();
            std::uint64_t bit_mask = 1ULL << bit;
            std::size_t pos = block_start_ + static_cast<std::size_t>(bit);
            if (openers & bit_mask) {
                ++relative_depth;
                if (static_cast<std::size_t>(relative_depth) > max_relative) {
                    fail(StatusCode::kDepthLimit, pos);
                    result.outcome = WithinResult::Outcome::kInputEnd;
                    return result;
                }
                opened.push(data_[pos] == classify::kOpenBrace);
                continue;
            }
            if (closers & bit_mask) {
                if (--relative_depth == 0) {
                    // The element closed: leave the closer pending.
                    seek(pos);
                    result.outcome = WithinResult::Outcome::kElementEnd;
                    return result;
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
            seek(result.value_pos);
            return result;
        }
        if (!advance_block(/*with_structural=*/false)) {
            // The element never closed (or its closer sits beyond the
            // in-string flag advance_block raised): unbalanced structure.
            fail(StatusCode::kUnbalancedStructure, size_);
            break;
        }
        live = ~0ULL;
    }
    result.outcome = WithinResult::Outcome::kInputEnd;
    return result;
}

ResumePoint StructuralIterator::resume_point() const
{
    return {block_start_, block_entry_quote_state_, floor_};
}

void StructuralIterator::resume(const ResumePoint& point)
{
    block_start_ = point.block_start;
    // floor == 64 is a legal "block spent" handoff (a producer that
    // consumed bit 63); mask_from copes with it, but never let a negative
    // floor reach the shift below.
    floor_ = point.floor < 0 ? 0 : point.floor;
    if (block_start_ >= end_) {
        block_start_ = end_;
        struct_mask_ = 0;
        in_string_ = 0;
        return;
    }
    blocks_.restart(point.quote_state);
    classify_block(/*with_structural=*/true);
    struct_mask_ &= bits::mask_from(floor_);
}

std::size_t StructuralIterator::first_non_ws(std::size_t pos) const noexcept
{
    while (pos < size_ && is_ws_byte(data_[pos])) {
        ++pos;
    }
    return pos;
}

}  // namespace descend
