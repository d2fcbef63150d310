/**
 * @file
 * The structural iterator (paper Sections 3.4 and 4.3): the abstraction the
 * main algorithm uses for all access to the stream. It runs the
 * multi-classifier pipeline (Section 4.5) on top of the batched block
 * stream: every block's masks (quotes, in-string, brackets, commas,
 * colons) come pre-classified from a single load of the block's bytes,
 * and the per-mode views are recompositions of those masks —
 *
 *  - normal iteration composes the structural mask (brackets always,
 *    commas/colons toggled on demand);
 *  - skip fast-forwards compose depth masks for one bracket kind.
 *
 * Switching between iterator and label search is the stop/resume protocol:
 * the quote-carry state at a block entry plus the block position form a
 * ResumePoint that both this iterator and the label search (head-skipping)
 * can save and restore, so classification is never repeated or lost.
 */
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "descend/classify/block_batch.h"
#include "descend/classify/depth_classifier.h"
#include "descend/classify/quote_classifier.h"
#include "descend/classify/structural_classifier.h"
#include "descend/engine/padded_string.h"
#include "descend/engine/validation.h"
#include "descend/obs/accounting.h"
#include "descend/simd/dispatch.h"
#include "descend/util/bit_stack.h"
#include "descend/util/bits.h"
#include "descend/util/budget.h"
#include "descend/util/status.h"

namespace descend {

/** A saved pipeline position: block start, quote state on entry to that
 *  block, and the first unconsumed bit within it. */
struct ResumePoint {
    std::size_t block_start = 0;
    classify::QuoteState quote_state;
    int floor = 0;
};

class StructuralIterator {
public:
    enum class Kind : std::uint8_t {
        kNone,     ///< end of input
        kOpening,  ///< '{' or '['
        kClosing,  ///< '}' or ']'
        kColon,
        kComma,
    };

    struct Event {
        Kind kind = Kind::kNone;
        std::uint8_t byte = 0;
        std::size_t pos = 0;
    };

    /**
     * @param input the document or slice to iterate. size() is a hard end
     *        bound: when @p input is a mid-stream record slice, the bytes
     *        past it belong to the following records, so the final partial
     *        block's classification is masked to the bound — no event,
     *        quote state, or validator accounting ever leaks in from
     *        past-the-end bytes.
     * @param validator optional shared whole-document validator; every
     *        block this iterator classifies is accounted there once.
     * @param max_skip_depth relative-nesting bound enforced inside the
     *        depth-classifier fast-forwards (the engine bounds the depth
     *        it tracks itself; this guards the depth the skips traverse).
     * @param accountant optional shared obs block accountant: each block
     *        this iterator classifies is attributed (exactly once, like
     *        the validator's accounting) to the pipeline mode active at
     *        its first classification — structural iteration or one of
     *        the skip fast-forwards.
     * @param budget optional run budget, polled at batch-refill
     *        granularity by the underlying block stream. A violation
     *        parks the iterator (like malformed input) with status()
     *        kDeadlineExceeded/kCancelled at the first unprocessed block.
     *        Must outlive the iterator when non-null.
     */
    StructuralIterator(PaddedView input, const simd::Kernels& kernels,
                       StructuralValidator* validator = nullptr,
                       std::size_t max_skip_depth = EngineLimits::kUnlimited,
                       obs::BlockAccountant* accountant = nullptr,
                       const RunBudget* budget = nullptr);

    /**
     * Malformed-input flag raised while iterating: truncated string at
     * end of input, a fast-forward running off the end (unbalanced
     * structure), or the skip-depth limit. Once set, the iterator parks
     * at end of input and next() reports kNone, so engines observe the
     * status at their end-of-input handling.
     */
    const EngineStatus& status() const noexcept { return status_; }

    /** Consumes and returns the next enabled structural character. */
    Event next();

    /** Returns the next enabled structural character without consuming. */
    Event peek();

    /**
     * Enables/disables comma and colon events. Enabling recomposes the
     * remainder of the current block's structural mask so the new events
     * surface immediately (a free mask operation on the cached batch —
     * no re-classification). Disabling recomposes only when
     * @p eager_disable is set; otherwise, per Section 4.3 of the paper,
     * already-surfaced occurrences in the current block are simply stepped
     * over by the consumer (the engine's event handlers verify transitions
     * explicitly, so stale events are harmless — except to the
     * index-counting extension, which passes eager_disable).
     */
    void set_commas(bool enabled, bool eager_disable = false);
    void set_colons(bool enabled, bool eager_disable = false);
    bool commas_enabled() const noexcept { return commas_on_; }
    bool colons_enabled() const noexcept { return colons_on_; }

    /**
     * The label preceding the structural character at @p pos, obtained by
     * backtracking through whitespace (and a colon, for opening characters)
     * as described in Section 3.4. Returns the raw bytes between the label
     * quotes, or nullopt for the artificial label of array entries and the
     * document root.
     */
    std::optional<std::string_view> label_before(std::size_t pos) const;

    /**
     * Skipping children (Section 3.3): fast-forwards from just after an
     * opening character of the given kind to just after its matching
     * closer, using the depth-mask view of the batch stream.
     *
     * @param base_depth containers already open *around* the element being
     *        skipped. The fast-forward enforces the depth limit in
     *        absolute terms (base + relative nesting), so a limit hit
     *        inside a skipped region reports the same kDepthLimit offset
     *        an engine that descends (e.g. the DOM baseline) would.
     */
    void skip_element(std::uint8_t opening_byte, std::size_t base_depth = 0);

    /**
     * Skipping siblings (Section 3.3): fast-forwards to the closing
     * character of the element we are currently inside, leaving that
     * closer as the next event (it still drives the depth-stack).
     * @param base_depth containers open around the *parent* element.
     */
    void skip_to_parent_close(bool parent_is_object, std::size_t base_depth = 0);

    /** Outcome of skip_to_label_within (the Section 4.5 extension). */
    struct WithinResult {
        enum class Outcome : std::uint8_t {
            kFoundLabel,   ///< a member with the label found inside the element
            kElementEnd,   ///< the element closed first (closer left pending)
            kInputEnd,     ///< ran off the end (malformed input)
        };
        Outcome outcome = Outcome::kInputEnd;
        std::size_t colon_pos = 0;  ///< kFoundLabel: the member's colon
        std::size_t value_pos = 0;  ///< kFoundLabel: first byte of the value
    };

    /**
     * The "more refined classifier" the paper's Section 4.5 envisions:
     * fast-forwards to the next occurrence of @p escaped_label as a member
     * label anywhere inside the element the iterator is currently in,
     * or to the element's closing character, whichever comes first.
     *
     * Tracks only bracket characters and candidate string-openings instead
     * of full structural classification — no label backtracking, no
     * automaton transitions for the skipped subtrees. The containers that
     * are still open when the label is found are appended to @p opened
     * (their kinds, outermost first), so the caller can extend its own
     * bookkeeping; @p relative_depth carries the scan depth across calls
     * (start it at 1 when just inside the element).
     *
     * Only sound for *waiting*, non-accepting automaton states (nothing in
     * the skipped stream can change the state or produce a match); the
     * engine checks that. @p base_depth: containers open around the element
     * being scanned (absolute-depth limit enforcement, as skip_element).
     */
    WithinResult skip_to_label_within(std::string_view escaped_label,
                                      BitStack& opened, int& relative_depth,
                                      std::size_t base_depth = 0);

    /** Absolute offset of the next unconsumed byte. */
    std::size_t position() const noexcept
    {
        return block_start_ + static_cast<std::size_t>(floor_);
    }

    /** Saves the pipeline position for another component to resume from. */
    ResumePoint resume_point() const;

    /** Restores the pipeline to a saved position. */
    void resume(const ResumePoint& point);

    /** First non-whitespace byte at or after @p pos (clamped to size). */
    std::size_t first_non_ws(std::size_t pos) const noexcept;

    const std::uint8_t* data() const noexcept { return data_; }
    std::size_t size() const noexcept { return size_; }

private:
    /** Mask of positions within the end bound for the current block: all
     *  ones except in the final partial block of a slice, where only bits
     *  below size() - block_start_ are live. Callable only while
     *  block_start_ < end_. */
    std::uint64_t block_valid_mask() const noexcept
    {
        return classify::valid_mask(block_start_, size_);
    }

    /** The structural mask of a pre-classified block under the current
     *  comma/colon toggles — a pure recomposition of cached masks. */
    std::uint64_t compose_structural(const simd::BlockMasks& masks) const noexcept;

    /**
     * The iterator's one block walk (classify::BatchedBlockStream::walk):
     * offers blocks from @p from on to @p stop until it accepts one, with
     * the position and the step's state in locals. With @p at_current the
     * walk starts in the current block (@p from == block_start_), offered
     * from the floor on. The stopping block becomes current —
     * block_start_, in_string_, unescaped_quotes_ and
     * block_entry_quote_state_ are written back once, from it; the caller
     * sets floor_ and struct_mask_ — and the run of blocks the walk
     * entered is accounted once, to the validator and to the accountant
     * under @p mode. Returns the block's masks, or null when input ended
     * (a string still open there flags kTruncatedString) or a refill
     * latched a budget interrupt; either way the iterator is parked.
     */
    template <typename Stop>
    const simd::BlockMasks* enter(std::size_t from, obs::BlockMode mode,
                                  Stop&& stop, bool at_current = false);

    /** enter()'s exit when no block stopped the walk: parks, on the
     *  latched interrupt or at end of input (flagging a string still open
     *  there). @p ends_in_string: the string state at the end of the last
     *  block the walk entered, if it @p entered any. Runs once per input. */
    [[gnu::noinline]] void end_walk(bool entered, bool ends_in_string);

    /** Takes the budget interrupt the block stream latched as status(). */
    [[gnu::cold]] void latch_interrupt();

    /** Enters blocks from @p from on up to the first with an enabled
     *  structural character — or just the first, with @p first_only — and
     *  makes its composed mask current at floor 0; false when parked. */
    bool enter_structural(std::size_t from, bool first_only);

    /** next()/peek() on a spent block: walks to the next block with an
     *  enabled structural character; false at end of input. */
    bool advance();

    /** Shared fast-forward core for both skip flavours. */
    void skip_until_depth_zero(classify::BracketKind kind, bool consume_closer,
                               std::size_t base_depth, obs::BlockMode mode);

    /** The event at @p bit of the current block; its kind comes from
     *  kEventKinds. */
    Event event_at(int bit) const noexcept
    {
        std::size_t pos = block_start_ + static_cast<std::size_t>(bit);
        std::uint8_t byte = data_[pos];
        return {kEventKinds[byte], byte, pos};
    }

    /** Event kind by byte value: the composed mask only surfaces
     *  brackets, colons and commas. */
    static constexpr std::array<Kind, 256> kEventKinds = [] {
        std::array<Kind, 256> kinds{};
        kinds.fill(Kind::kComma);
        kinds[classify::kOpenBrace] = Kind::kOpening;
        kinds[classify::kOpenBracket] = Kind::kOpening;
        kinds[classify::kCloseBrace] = Kind::kClosing;
        kinds[classify::kCloseBracket] = Kind::kClosing;
        kinds[classify::kColon] = Kind::kColon;
        return kinds;
    }();

    /** Records the first malformed-input condition and parks at end. */
    void fail(StatusCode code, std::size_t offset);

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t end_;  ///< block-aligned end of classified input

    classify::BatchedBlockStream blocks_;
    bool commas_on_ = false;
    bool colons_on_ = false;
    StructuralValidator* validator_ = nullptr;
    obs::BlockAccountant* accountant_ = nullptr;
    std::size_t max_skip_depth_;
    EngineStatus status_;

    /** The shared obs registry, for counters beyond block attribution
     *  (label-search candidates in the within-skip scan). */
    obs::Counters* obs_counters() const noexcept
    {
        return accountant_ == nullptr ? nullptr : accountant_->counters();
    }

    /** Repositions to @p pos (>= current position), rolling the batch
     *  stream forward (blocks entered on the way count as @p mode) and
     *  recomposing the target block from there. */
    void seek(std::size_t pos, obs::BlockMode mode);

    std::size_t block_start_ = 0;
    int floor_ = 0;
    std::uint64_t in_string_ = 0;
    std::uint64_t unescaped_quotes_ = 0;
    std::uint64_t struct_mask_ = 0;
    classify::QuoteState block_entry_quote_state_;
};

inline StructuralIterator::Event StructuralIterator::next()
{
    if (struct_mask_ == 0 && !advance()) {
        return {Kind::kNone, 0, size_};
    }
    int bit = bits::trailing_zeros(struct_mask_);
    struct_mask_ = bits::clear_lowest_bit(struct_mask_);
    floor_ = bit + 1;
    return event_at(bit);
}

inline StructuralIterator::Event StructuralIterator::peek()
{
    if (struct_mask_ == 0 && !advance()) {
        return {Kind::kNone, 0, size_};
    }
    return event_at(bits::trailing_zeros(struct_mask_));
}

}  // namespace descend
