/**
 * @file
 * Value spans: the bridge between the engine's match offsets and the
 * projection sinks (see sink.h).
 *
 * The streaming engine reports only where a match *begins* — that is all
 * the single-pass algorithm knows when the accepting state fires. Span
 * extension turns that offset into the half-open byte range of the
 * complete value: the balanced {...}/[...] slice for containers, the
 * quoted literal for strings, the literal up to the next delimiter for
 * atoms.
 *
 * SpanExtender is the batched fast path, in three stages (DESIGN.md
 * §4.11): (1) masked SIMD recovery of the first block — the state at the
 * offset is known exactly, so one cold-seeded classification plus a
 * re-seeded prefix-XOR yields exact masks with no bytewise prologue;
 * (2) a lean per-block walk classifying only the blocks the value
 * touches; (3) for values still open after that, whole blocks of
 * pre-classified masks from a persistent batch ring
 * (classify/block_batch.h), consumed with the same depth-zero test the
 * engine's skip-children fast-forward uses (classify/depth_classifier.h),
 * on the bracket counts the batch kernel already produced. A multi-megabyte matched subtree is
 * delimited at classifier speed, not byte by byte.
 *
 * Record-boundary contract: the extender scans only within the view it
 * was constructed over. For NDJSON streams, construct it over the
 * *record's* subview (not the whole stream buffer) — a match at the last
 * byte of a record then physically cannot scan into the following
 * record's slice. extract.h's extract_value is the scalar reference the
 * differential tests compare against.
 */
#pragma once

#include <cstddef>
#include <string_view>

#include "descend/classify/block_batch.h"
#include "descend/engine/padded_string.h"
#include "descend/obs/counters.h"
#include "descend/simd/dispatch.h"

namespace descend::project {

/** Half-open byte range [begin, end) of one complete matched value,
 *  relative to the document view it was extended over. */
struct ValueSpan {
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const noexcept { return end - begin; }
    bool empty() const noexcept { return begin == end; }

    friend bool operator==(const ValueSpan& a, const ValueSpan& b) noexcept
    {
        return a.begin == b.begin && a.end == b.end;
    }
};

/**
 * Extends match offsets to complete value spans over one document view.
 *
 * One extender serves many matches of the same view (the per-block ring
 * warms across consecutive matches of the same region). Offsets must be
 * the first byte of a value, which is exactly the engine's match
 * convention; out-of-range offsets yield an empty span, and a value that
 * never closes (malformed input — the engine's status said so) is
 * clamped to the view's end, mirroring extract_value.
 *
 * @param counters optional obs registry: every extension feeds the
 * projected_values / projected_bytes counters.
 */
class SpanExtender {
public:
    SpanExtender(PaddedView document, const simd::Kernels& kernels,
                 obs::Counters* counters = nullptr) noexcept
        : document_(document),
          kernels_(&kernels),
          counters_(counters),
          stream_(document.data(), kernels)
    {
    }

    /** The complete value span starting at @p offset. */
    ValueSpan extend(std::size_t offset) noexcept;

    /** The raw bytes of @p span (zero-copy into the document view). */
    std::string_view slice(const ValueSpan& span) const noexcept
    {
        return document_.view().substr(span.begin, span.size());
    }

    PaddedView document() const noexcept { return document_; }

private:
    /** Mask-walk a container from @p offset (first byte is the opener). */
    std::size_t extend_container(std::size_t offset) noexcept;

    /** Mask-walk a string from @p offset (first byte is the quote). */
    std::size_t extend_string(std::size_t offset) noexcept;

    /**
     * Prepares the persistent block stream to serve the block at
     * @p block_start given the prologue-recovered carry: if that block is
     * already in the ring with the same entry state, the classified masks
     * are reused as-is (the common case for consecutive matches of the
     * same region); otherwise the stream restarts at the recovered carry.
     */
    void seek(std::size_t block_start, bool escape, bool in_string) noexcept;

    PaddedView document_;
    const simd::Kernels* kernels_;
    obs::Counters* counters_;
    /** Persistent across extend() calls: the refilled batch (8 blocks)
     *  outlives one match, so nearby matches share classification work. */
    classify::BatchedBlockStream stream_;
};

/**
 * One-shot scalar span extension (wraps extract.h's bytewise scan): the
 * differential reference for SpanExtender and the right tool when a
 * single value is needed without SIMD setup.
 */
ValueSpan extend_value_span(PaddedView document, std::size_t offset) noexcept;

}  // namespace descend::project
