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
 *    guarantees in-order, no-gap coverage), and each site reports each
 *    run of blocks it walked here once. The validator accumulates
 *    per-kind bracket balances ('{'/'}' and '['/']' counted separately,
 *    in-string positions masked out) and remembers whether the final
 *    block ended inside a string.
 *
 *    The per-kind balances catch what the skipping engines structurally
 *    cannot see locally: any single byte-level corruption of a bracket
 *    (delete / insert / kind-flip) leaves at least one balance nonzero,
 *    even when a kind-filtered fast-forward would happily jump across the
 *    damage. The end-of-input string state catches unterminated strings,
 *    including a lone '\\' swallowing the padding. Cost per full block:
 *    four adds of the bracket counts classify_batch already produced, in
 *    the walking consumer's locals (classify::RunBalance), no popcount and
 *    no kernel call; only a slice's final partial block re-derives its
 *    counts from masks clipped to the end bound.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "descend/classify/block_batch.h"
#include "descend/engine/padded_string.h"
#include "descend/simd/dispatch.h"
#include "descend/util/status.h"

namespace descend {

/** Size / BOM / emptiness checks shared by all four engines. */
EngineStatus preflight_document(PaddedView document, const EngineLimits& limits);

class StructuralValidator {
public:
    /**
     * Accounts the blocks [@p from, @p to) as one run, with @p run summed
     * over exactly those blocks by classify::BatchedBlockStream::walk (a
     * whole block adds the batch's bracket counts; a slice's final partial
     * block counts its masks clipped to the input's end bound, since its
     * tail bytes belong to the surrounding buffer).
     *
     * Blocks must arrive in order and are counted exactly once: a run is
     * accounted only if it starts at the monotone cursor, so the resume
     * protocol's re-classification of an already-counted block is
     * ignored. Consumers start every multi-block run at the cursor, so
     * the balances, verdicts and offsets equal block-by-block accounting.
     */
    void account_run(std::size_t from, std::size_t to,
                     const classify::RunBalance& run) noexcept
    {
        assert(from >= counted_until_ || to <= counted_until_);
        if (from != counted_until_ || to == from) {
            return;
        }
        counted_until_ = to;
        obj_balance_ += run.object;
        arr_balance_ += run.array;
        ends_in_string_ = run.ends_in_string;
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
    std::size_t counted_until_ = 0;
    std::int64_t obj_balance_ = 0;
    std::int64_t arr_balance_ = 0;
    bool ends_in_string_ = false;
};

}  // namespace descend
