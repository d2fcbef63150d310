#include "descend/project/span.h"

#include "descend/classify/block_batch.h"
#include "descend/classify/depth_classifier.h"
#include "descend/classify/quote_classifier.h"
#include "descend/engine/extract.h"
#include "descend/util/bits.h"
#include "descend/util/chars.h"

namespace descend::project {
namespace {

using chars::is_ws_byte;

/** Valid-bit mask for the block at @p block_start: all ones except past
 *  the view's logical end (a PaddedView's padding bytes may be following
 *  records, so they must never contribute events — see padded_string.h). */
std::uint64_t valid_bits(std::size_t block_start, std::size_t size) noexcept
{
    if (size - block_start >= simd::kBlockSize) {
        return ~std::uint64_t{0};
    }
    return bits::mask_below(static_cast<int>(size - block_start));
}

/** All-ones iff @p in_string_mask ends inside a string (sign-extended top
 *  bit), the carry convention of quote_classifier.h. */
std::uint64_t string_carry(std::uint64_t in_string_mask) noexcept
{
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(in_string_mask) >> 63);
}

/**
 * How many blocks the lean per-block walk covers before handing off to
 * the batch ring. A batch refill classifies kBatchSize bytes whether the
 * value needs them or not — a fixed cost that only amortizes on subtrees
 * spanning several blocks. The lean walk classifies exactly the blocks it
 * touches (one quote classification plus a bracket eq-mask pair each), so
 * mid-sized values never pay for bytes past their closer; anything still
 * open after this many blocks is large enough for the batch to win.
 */
constexpr int kLeanBlocks = 6;

}  // namespace

ValueSpan SpanExtender::extend(std::size_t offset) noexcept
{
    const std::size_t size = document_.size();
    if (offset >= size) {
        return {size, size};
    }
    const std::uint8_t* data = document_.data();
    const std::uint8_t first = data[offset];
    std::size_t end;
    if (first == '{' || first == '[') {
        end = extend_container(offset);
    } else if (first == '"') {
        end = extend_string(offset);
    } else {
        // Atoms (numbers, literals) end at the next delimiter; they are
        // short by construction, so a bytewise scan is already optimal.
        end = offset;
        while (end < size && !is_ws_byte(data[end]) && data[end] != ',' &&
               data[end] != '}' && data[end] != ']') {
            ++end;
        }
    }
    obs::add(counters_, obs::Counter::kProjectedValues);
    obs::add(counters_, obs::Counter::kProjectedBytes, end - offset);
    return {offset, end};
}

/*
 * First-block recovery, shared by the container and string walks.
 *
 * The match offset lands mid-block, and the bytes before it sit under an
 * unknown carry (the block may even *open* inside a string). But the
 * state AT the offset is known exactly: a value's first byte is never
 * inside a string and never escaped, and no backslash run can cross the
 * offset — the byte there is the opener itself, not a backslash. So the
 * whole aligned block is classified once with a cold seed, the sub-offset
 * bits are cleared, and the in-string mask is recomputed with a
 * prefix-XOR re-seeded at "outside a string": every bit at or after the
 * offset is then exact, with no bytewise prologue at all. The escape
 * carry the classifier leaves is equally exact — a run reaching the
 * block's last byte necessarily starts at or after the offset.
 */

std::size_t SpanExtender::extend_container(std::size_t offset) noexcept
{
    const std::uint8_t* data = document_.data();
    const std::size_t size = document_.size();
    const std::uint8_t open = data[offset];
    const classify::BracketKind kind = open == '{'
                                           ? classify::BracketKind::kObject
                                           : classify::BracketKind::kArray;

    const int shift = static_cast<int>(offset % simd::kBlockSize);
    const std::size_t block0 = offset - static_cast<std::size_t>(shift);
    classify::QuoteClassifier quotes(*kernels_);
    const classify::QuoteMasks first = quotes.classify(data + block0);
    const std::uint64_t tail = bits::mask_from(shift);
    const std::uint64_t in_string =
        kernels_->prefix_xor(first.unescaped_quotes & tail);
    quotes.set_state(classify::QuoteState{quotes.state().escape_carry,
                                          string_carry(in_string)});

    const std::uint64_t usable = ~in_string & tail & valid_bits(block0, size);
    classify::DepthMasks depth_mask =
        classify::depth_masks(*kernels_, data + block0, kind);
    // The opener at the offset itself is consumed as the initial depth;
    // find_depth_zero requires a positive entry depth.
    depth_mask.openers &= usable & ~(std::uint64_t{1} << shift);
    depth_mask.closers &= usable;
    int relative_depth = 1;
    int bit = classify::find_depth_zero(depth_mask, relative_depth);
    if (bit >= 0) {
        return block0 + static_cast<std::size_t>(bit) + 1;
    }
    std::size_t pos = block0 + simd::kBlockSize;

    // Lean per-block walk: the same depth-zero test (SWAR counts), on
    // masks classified for exactly the blocks touched (see kLeanBlocks).
    for (int lean = 0; lean < kLeanBlocks && pos < size; ++lean) {
        const classify::QuoteMasks quote_masks = quotes.classify(data + pos);
        const std::uint64_t lean_usable =
            ~quote_masks.in_string & valid_bits(pos, size);
        classify::DepthMasks lean_mask =
            classify::depth_masks(*kernels_, data + pos, kind);
        lean_mask.openers &= lean_usable;
        lean_mask.closers &= lean_usable;
        bit = classify::find_depth_zero(lean_mask, relative_depth);
        if (bit >= 0) {
            return pos + static_cast<std::size_t>(bit) + 1;
        }
        pos += simd::kBlockSize;
    }
    if (pos >= size) {
        return size;  // never closed: malformed input, clamp (as extract_value)
    }

    // Whole-block walk on pre-classified masks: the skip-children scan of
    // the engine (depth_classifier.h), resumed at the boundary with the
    // carry the lean walk's classifier holds (reusing ring blocks a
    // previous match already classified — see seek()).
    seek(pos, quotes.state().escape_carry,
         quotes.state().in_string_carry != 0);
    while (pos < size) {
        const simd::BlockMasks& masks = stream_.masks(pos);
        classify::DepthMasks batch_mask = classify::depth_masks(masks, kind);
        const std::uint64_t valid = valid_bits(pos, size);
        const std::uint64_t batch_usable = ~masks.in_string & valid;
        batch_mask.openers &= batch_usable;
        batch_mask.closers &= batch_usable;
        // Whole blocks use the batch's bracket counts; only the view's
        // partial last block counts its clipped masks.
        bit = valid == ~std::uint64_t{0}
                  ? classify::find_depth_zero(
                        batch_mask, classify::depth_counts(masks, kind),
                        relative_depth)
                  : classify::find_depth_zero(batch_mask, relative_depth);
        if (bit >= 0) {
            return pos + static_cast<std::size_t>(bit) + 1;
        }
        pos += simd::kBlockSize;
    }
    return size;
}

std::size_t SpanExtender::extend_string(std::size_t offset) noexcept
{
    const std::uint8_t* data = document_.data();
    const std::size_t size = document_.size();

    const int shift = static_cast<int>(offset % simd::kBlockSize);
    const std::size_t block0 = offset - static_cast<std::size_t>(shift);
    classify::QuoteClassifier quotes(*kernels_);
    const classify::QuoteMasks first = quotes.classify(data + block0);
    const std::uint64_t tail = bits::mask_from(shift);
    // Force the opening quote's bit: the byte at the offset IS the opener
    // by the engine's match convention, whatever the cold-seeded escape
    // scan concluded about the (discarded) bytes before it.
    const std::uint64_t q =
        (first.unescaped_quotes & tail) | (std::uint64_t{1} << shift);
    const std::uint64_t closers =
        q & ~(std::uint64_t{1} << shift) & valid_bits(block0, size);
    if (closers != 0) {
        return block0 +
               static_cast<std::size_t>(bits::trailing_zeros(closers)) + 1;
    }
    quotes.set_state(classify::QuoteState{
        quotes.state().escape_carry, string_carry(kernels_->prefix_xor(q))});
    std::size_t pos = block0 + simd::kBlockSize;

    // Lean per-block walk: classify only the blocks touched until the
    // string closes or kLeanBlocks is exhausted.
    for (int lean = 0; lean < kLeanBlocks && pos < size; ++lean) {
        const classify::QuoteMasks quote_masks = quotes.classify(data + pos);
        const std::uint64_t lean_closers =
            quote_masks.unescaped_quotes & valid_bits(pos, size);
        if (lean_closers != 0) {
            return pos +
                   static_cast<std::size_t>(
                       bits::trailing_zeros(lean_closers)) + 1;
        }
        pos += simd::kBlockSize;
    }
    if (pos >= size) {
        return size;  // unterminated string: clamp
    }

    // In-string mask walk: with the carry seeded inside the string, the
    // first unescaped quote is the closer.
    seek(pos, quotes.state().escape_carry, /*in_string=*/true);
    while (pos < size) {
        const simd::BlockMasks& masks = stream_.masks(pos);
        const std::uint64_t batch_closers =
            masks.unescaped_quotes & valid_bits(pos, size);
        if (batch_closers != 0) {
            return pos +
                   static_cast<std::size_t>(
                       bits::trailing_zeros(batch_closers)) + 1;
        }
        pos += simd::kBlockSize;
    }
    return size;
}

void SpanExtender::seek(std::size_t block_start, bool escape,
                        bool in_string) noexcept
{
    const std::uint64_t in_string_carry =
        in_string ? ~std::uint64_t{0} : std::uint64_t{0};
    // Every restart seeds the TRUE document state at its boundary (the
    // first-block recovery computes it exactly), so ring contents are
    // always faithful classifications — a cached block whose recorded
    // entry state equals the freshly recovered carry can be served as-is,
    // and the carry the ring holds at its end is equally true, so walking
    // past the ring continues correctly without another restart. The
    // entry-state check is the guard that keeps a (theoretical)
    // disagreeing hit safe: it falls back to restart rather than trusting
    // stale masks.
    const simd::BlockMasks* hit = stream_.cached(block_start);
    if (hit != nullptr && hit->entry_escaped == escape &&
        hit->entry_in_string == in_string_carry) {
        return;
    }
    stream_.restart(classify::QuoteState{escape, in_string_carry});
}

ValueSpan extend_value_span(PaddedView document, std::size_t offset) noexcept
{
    if (offset >= document.size()) {
        return {document.size(), document.size()};
    }
    const std::string_view value = extract_value(document, offset);
    return {offset, offset + value.size()};
}

}  // namespace descend::project
