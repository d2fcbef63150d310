/**
 * @file
 * Malformed-input detection shared by the streaming engines.
 *
 * Two pieces:
 *
 *  - preflight_document(): O(1)-ish checks every engine performs before
 *    touching the classifier pipeline — size limit, UTF-8 BOM, and
 *    empty/whitespace-only input.
 *
 *  - StructuralValidator: a whole-document structural check that rides
 *    along with block classification instead of re-scanning. Every 64-byte
 *    block flows through exactly one quote-classification site (the
 *    structural iterator or the label search; the stop/resume protocol
 *    guarantees in-order, no-gap coverage), and each site reports its
 *    block here once. The validator accumulates per-kind bracket balances
 *    ('{'/'}' and '['/']' counted separately, in-string positions masked
 *    out) and remembers whether the final block ended inside a string.
 *
 *    The per-kind balances catch what the skipping engines structurally
 *    cannot see locally: any single byte-level corruption of a bracket
 *    (delete / insert / kind-flip) leaves at least one balance nonzero,
 *    even when a kind-filtered fast-forward would happily jump across the
 *    damage. The end-of-input string state catches unterminated strings,
 *    including a lone '\\' swallowing the padding. Cost per full block:
 *    four adds of the bracket counts classify_batch already produced, no
 *    popcount and no kernel call; only a slice's final partial block
 *    re-derives its counts from masks clipped to the end bound.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "descend/engine/padded_string.h"
#include "descend/simd/dispatch.h"
#include "descend/util/status.h"

namespace descend {

/** Size / BOM / emptiness checks shared by all four engines. */
EngineStatus preflight_document(PaddedView document, const EngineLimits& limits);

class StructuralValidator {
public:
    /**
     * Accounts one classified block from its pre-computed batch masks.
     * Blocks must arrive in order and are counted exactly once
     * (re-classification of an already-counted block, as the resume
     * protocol performs, is ignored via the monotone counter).
     *
     * @param valid mask of positions within the input's end bound. All
     *        ones for full blocks, which add the batch's bracket counts; a
     *        low-bits mask for the final partial block of a PaddedView
     *        slice, whose tail bytes belong to the surrounding buffer and
     *        must not move any balance, so its counts come from the masks
     *        clipped to @p valid.
     */
    void account(const simd::BlockMasks& masks, std::size_t block_start,
                 std::uint64_t valid = ~std::uint64_t{0}) noexcept
    {
        if (block_start != counted_until_) {
            return;
        }
        counted_until_ += simd::kBlockSize;
        if (valid == ~std::uint64_t{0}) {
            obj_balance_ += static_cast<std::int64_t>(masks.counts.open_braces) -
                            static_cast<std::int64_t>(masks.counts.close_braces);
            arr_balance_ += static_cast<std::int64_t>(masks.counts.open_brackets) -
                            static_cast<std::int64_t>(masks.counts.close_brackets);
            ends_in_string_ = (masks.in_string >> 63) != 0;
            return;
        }
        account_partial(masks, valid);
    }

    /** Number of bytes covered by accounted blocks so far. */
    std::size_t counted_until() const noexcept { return counted_until_; }

    /**
     * Final verdict once the engine has either classified the whole
     * document or verified that the unclassified tail is whitespace-only
     * (whitespace holds no brackets and cannot keep a string open, so the
     * accounted prefix is the whole structural story either way).
     */
    EngineStatus verdict(std::size_t document_size) const noexcept
    {
        if (ends_in_string_) {
            return {StatusCode::kTruncatedString, document_size};
        }
        if (obj_balance_ != 0 || arr_balance_ != 0) {
            return {StatusCode::kUnbalancedStructure, document_size};
        }
        return {};
    }

private:
    /** The masked path of account() for a slice's final partial block. */
    void account_partial(const simd::BlockMasks& masks,
                         std::uint64_t valid) noexcept;

    std::size_t counted_until_ = 0;
    std::int64_t obj_balance_ = 0;
    std::int64_t arr_balance_ = 0;
    bool ends_in_string_ = false;
};

}  // namespace descend
