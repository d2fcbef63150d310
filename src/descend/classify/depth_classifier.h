/**
 * @file
 * The depth classifier (paper Section 4.4): fast-forwards through an entire
 * subdocument by tracking only one opening/closing character pair.
 *
 * Per block it takes two masks (openers, closers) for one bracket kind and
 * advances the relative depth. The block-skip heuristic from the paper is
 * applied: when the number of closers in the (rest of the) block is
 * smaller than the current relative depth, the depth cannot reach zero
 * here, so the whole block is consumed with one add instead of per-closer
 * iteration. On a whole pre-classified block the two counts come from the
 * batch (simd::BlockMasks' bracket counts, computed while the block's
 * bytes were still in registers), so the test costs no popcount at all;
 * a block clipped by a skip floor or a slice end counts its clipped masks
 * with the SWAR bits::popcount.
 */
#pragma once

#include <cassert>
#include <cstdint>

#include "descend/simd/dispatch.h"
#include "descend/util/bits.h"

namespace descend::classify {

/** Which bracket pair the depth classifier tracks. */
enum class BracketKind : std::uint8_t {
    kObject,  ///< '{' and '}'
    kArray,   ///< '[' and ']'
};

/** Opening/closing masks of one block for a bracket kind. */
struct DepthMasks {
    std::uint64_t openers = 0;
    std::uint64_t closers = 0;
};

/** Opener/closer counts matching a DepthMasks (the popcounts of its two
 *  masks). */
struct DepthCounts {
    int openers = 0;
    int closers = 0;
};

/** Computes the opener/closer masks of one 64-byte block. The caller is
 *  responsible for ANDing out in-string positions. */
DepthMasks depth_masks(const simd::Kernels& kernels, const std::uint8_t* block,
                       BracketKind kind) noexcept;

/** Same view over a pre-classified block's masks — a free recomposition,
 *  no kernel call. The caller still ANDs out in-string positions. */
inline DepthMasks depth_masks(const simd::BlockMasks& masks,
                              BracketKind kind) noexcept
{
    if (kind == BracketKind::kObject) {
        return {masks.open_braces, masks.close_braces};
    }
    return {masks.open_brackets, masks.close_brackets};
}

/** The batch's counts outside strings for one bracket kind. They match
 *  depth_masks(masks, kind) with in-string positions ANDed out — i.e.
 *  only for a whole block, with no floor or end bound clipping it. */
inline DepthCounts depth_counts(const simd::BlockMasks& masks,
                                BracketKind kind) noexcept
{
    if (kind == BracketKind::kObject) {
        return {masks.counts.open_braces, masks.counts.close_braces};
    }
    return {masks.counts.open_brackets, masks.counts.close_brackets};
}

/**
 * The per-closer half of find_depth_zero, without the block-skip test:
 * walks @p masks' closers in order and returns the index of the one that
 * brings @p relative_depth to zero, or consumes the block and returns -1.
 */
int walk_to_depth_zero(DepthMasks masks, int& relative_depth) noexcept;

/**
 * Advances the relative depth through one block (whose masks must already
 * exclude in-string positions and already-consumed bits).
 *
 * On entry @p relative_depth is the number of unmatched openers so far
 * (>= 1). If some closer in the block brings it to zero, returns that
 * closer's bit index and leaves @p relative_depth at zero; otherwise
 * consumes the whole block, updates @p relative_depth, and returns -1.
 *
 * @p counts must be the popcounts of @p masks: depth_counts() of a whole
 * batch-classified block, or the overload below for anything clipped.
 */
inline int find_depth_zero(DepthMasks masks, DepthCounts counts,
                           int& relative_depth) noexcept
{
    assert(relative_depth >= 1);
    // Block-skip heuristic (Section 4.4): fewer closers than the current
    // depth means the depth cannot reach zero anywhere in this block.
    if (counts.closers < relative_depth) {
        relative_depth += counts.openers - counts.closers;
        return -1;
    }
    return walk_to_depth_zero(masks, relative_depth);
}

/** Same, counting @p masks itself (SWAR popcounts). */
inline int find_depth_zero(DepthMasks masks, int& relative_depth) noexcept
{
    return find_depth_zero(
        masks, {bits::popcount(masks.openers), bits::popcount(masks.closers)},
        relative_depth);
}

}  // namespace descend::classify
