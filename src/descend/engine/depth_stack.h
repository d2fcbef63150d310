/**
 * @file
 * The paper's main algorithm (Section 3.4), once: a depth-stack simulation
 * (Section 3.2: one depth counter, a kind bit-stack, and sparse (state,
 * depth) frames pushed only when a label transition changes the state's
 * row) of a deterministic automaton over the structural-event stream, with
 * all four skips of Section 3.3: leaves (comma/colon toggling), children
 * and siblings (depth-classifier fast-forwards) and skipping to a label
 * (memmem-style head-skipping, handing off to the main loop per match).
 *
 * Two automata run on it. DescendEngine simulates one query's
 * automaton::CompiledQuery; multi::FusedEngine simulates the product
 * automaton of a whole query set (multi::ProductAutomaton, after SXSI's
 * whole-query-set compilation), whose per-state flags are set-level skip
 * decisions. Both expose initial_state / transition / flags / row_class /
 * waiting_symbol / head_skip_label, and the simulation reads nothing else
 * of them. The engines differ only in what an accepting state reports, so
 * each supplies a Reporter:
 *
 *   // Reports a match at @p offset of the accepting @p state; false when
 *   // a match limit tripped there (the run then fails at @p offset).
 *   bool report(int state, std::size_t offset);
 *   // The root-only fast path's one match (see DepthStackSimulation::run).
 *   void report_root(std::size_t start);
 *
 * The reporters live in the engines' own translation units, so every
 * instantiation stays internal to its engine.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "descend/automaton/nfa.h"
#include "descend/engine/api.h"
#include "descend/engine/label_search.h"
#include "descend/engine/padded_string.h"
#include "descend/engine/structural_iterator.h"
#include "descend/engine/validation.h"
#include "descend/obs/accounting.h"
#include "descend/obs/run_stats.h"
#include "descend/simd/dispatch.h"
#include "descend/util/bit_stack.h"
#include "descend/util/inline_vector.h"
#include "descend/util/utf8.h"

namespace descend::detail {

/** A sparse depth-stack frame: the state to restore and the depth at which
 *  to restore it (paper Section 3.2). */
struct Frame {
    int state;
    int depth;
};

/** Inline frame capacity mirrors the paper's SmallVec bound: the stack
 *  lives on the thread's stack up to 128 frames. */
using DepthStack = InlineVector<Frame, 128>;

/**
 * The simulation, templated over the automaton and the reporter so both
 * engines' paths are fully monomorphized (as rsonpath's generic recorder
 * is): a counting run inlines its reporter into the loop.
 */
template <typename Automaton, typename Reporter>
class DepthStackSimulation {
public:
    /** @param alphabet the automaton's symbol space (labels and indices).
     *  @param counting the automaton reads array-entry indices, so commas
     *         are counted and within-element skips are off (a skipped
     *         array's entries would go uncounted).
     *  @param budget the run's governance (null when inactive); threaded
     *         into every pipeline the run constructs. */
    DepthStackSimulation(const Automaton& automaton,
                         const automaton::Alphabet& alphabet, bool counting,
                         const EngineOptions& options, Reporter& reporter,
                         RunStats& stats, const RunBudget* budget)
        : automaton_(automaton),
          alphabet_(alphabet),
          options_(options),
          reporter_(reporter),
          stats_(stats),
          budget_(budget),
          other_(alphabet.other_symbol()),
          counting_(counting),
          within_(options.label_within_skipping && !counting)
    {
    }

    /**
     * The run of a document that passed preflight: the root-only fast
     * path, or head-skip or the main loop, then the trailing-content check
     * and the validator's verdict. Returns the run's status.
     */
    EngineStatus run(PaddedView document, const simd::Kernels& kernels,
                     bool root_only, obs::BlockAccountant& accountant)
    {
        if (root_only) {
            // This path deliberately stays O(1) and unvalidated — the
            // document is never scanned, so no structural verdict is
            // possible (see DESIGN.md, "Error handling & limits").
            StructuralIterator iter(document, kernels, nullptr,
                                    EngineLimits::kUnlimited, &accountant);
            std::size_t start = iter.first_non_ws(0);
            if (start < document.size()) {
                reporter_.report_root(start);
            }
            return {};
        }
        // Whole-document validation rides along with block classification:
        // per-kind bracket balances plus the end-of-input string state. The
        // event-driven checks in the simulation catch most damage early
        // with an exact offset; the verdict below catches what
        // kind-filtered fast-forwards can step across.
        StructuralValidator validator;
        StructuralValidator* vptr =
            options_.validate_structure ? &validator : nullptr;
        if (automaton_.head_skip_label().has_value() && options_.head_skipping) {
            run_head_skip(document, kernels, vptr, &accountant);
            // No trailing-content check here: head-skipping never tracks
            // the root element, so "after the root closed" is undefined.
            if (!status_.ok() || vptr == nullptr) {
                return status_;
            }
            return validator.verdict(document.size());
        }
        StructuralIterator iter(document, kernels, vptr,
                                options_.limits.max_depth, &accountant, budget_);
        run_main_loop(iter, /*at_document_root=*/true);
        if (!status_.ok()) {
            return status_;
        }
        std::size_t after = iter.first_non_ws(iter.position());
        if (after < document.size()) {
            return {StatusCode::kTrailingContent, after};
        }
        // Sound even though blocks past the root's closer were never
        // accounted: the trailing check above guarantees they hold only
        // whitespace, which cannot move a balance (the accountant books
        // them as the tail).
        return vptr != nullptr ? validator.verdict(document.size())
                               : EngineStatus{};
    }

private:
    /**
     * Simulates the automaton from the iterator's current position until
     * the enclosing element closes (depth returns to zero) or input ends.
     * @param at_document_root the first opening character is the document
     *        root, which triggers no automaton transition (the initial
     *        state *is* the root's state); head-skip subruns pass false so
     *        the value's label transition fires normally.
     */
    void run_main_loop(StructuralIterator& iter, bool at_document_root)
    {
        using Kind = StructuralIterator::Kind;
        const Automaton& cq = automaton_;
        const automaton::Alphabet& alphabet = alphabet_;

        int state = cq.initial_state();
        int depth = 0;
        DepthStack stack;
        BitStack kinds;
        InlineVector<std::uint64_t, 64> counts;

        if (at_document_root && cq.flags(state).accepting) {
            // Root-accepting queries (`$` in a set) select the whole
            // document; the root opening fires no transition for the
            // initial state, so they report up front — at the offset the
            // root-only fast path reports.
            std::size_t start = iter.first_non_ws(0);
            if (start < iter.size()) {
                report(state, start);
            }
        }

        if (!options_.leaf_skipping) {
            // Leaf-skipping ablation: iterate every structural character.
            iter.set_commas(true);
            iter.set_colons(true);
        }
        // Toggling (Section 3.4): enable colons when an object member's
        // label can take the automaton to an accepting state in one step;
        // enable commas when an array entry can (or when entry counting is
        // required by the index-selector extension). Disables are lazy
        // (stale events are stepped over; Section 4.3) except for commas
        // under counting, where a stale comma would corrupt the counters.
        // A product state's toggles are the ORs of its subscribers'.
        auto toggle = [&](int current_state, bool is_object) {
            if (!options_.leaf_skipping) {
                return;
            }
            const automaton::StateFlags& flags = cq.flags(current_state);
            iter.set_colons(is_object && flags.colon_toggle);
            iter.set_commas(!is_object && (flags.comma_toggle || counting_),
                            /*eager_disable=*/counting_);
        };

        // The symbol of the current array entry: a concrete index symbol
        // when the query uses index selectors, the artificial label else.
        auto array_entry_symbol = [&](std::uint64_t entry_index) {
            return counting_ ? alphabet.index_symbol(entry_index) : other_;
        };

        // First item of an array (Section 3.4, try_match_first_item): it is
        // not preceded by a comma, so atoms are matched here.
        auto try_match_first_item = [&](std::size_t open_pos, int current_state) {
            int target = cq.transition(current_state, array_entry_symbol(0));
            if (!cq.flags(target).accepting) {
                return;
            }
            StructuralIterator::Event following = iter.peek();
            if (following.kind == Kind::kOpening) {
                return;  // handled by the Opening case
            }
            std::size_t item = iter.first_non_ws(open_pos + 1);
            if (item >= following.pos) {
                return;  // empty array
            }
            report(target, item);
        };

        // Resolves the symbol of the label before @p pos, validating the
        // label's bytes; nullopt for the array-entry/artificial label.
        auto label_symbol_before = [&](std::size_t pos) -> std::optional<int> {
            auto label = iter.label_before(pos);
            if (!label.has_value()) {
                return std::nullopt;
            }
            if (!util::is_valid_utf8(*label)) {
                fail(StatusCode::kInvalidUtf8InLabel,
                     static_cast<std::size_t>(
                         reinterpret_cast<const std::uint8_t*>(label->data()) -
                         iter.data()));
            }
            return alphabet.label_symbol(*label);
        };

        while (status_.ok()) {
            StructuralIterator::Event event = iter.next();
            if (event.kind == Kind::kNone) {
                // End of input. Any problem the iterator hit (truncated
                // string, a fast-forward running off the end, skip depth)
                // surfaces here; a still-open container means the document
                // itself ended early.
                if (!iter.status().ok()) {
                    fail(iter.status().code, iter.status().offset);
                } else if (depth > 0) {
                    fail(StatusCode::kUnbalancedStructure, iter.size());
                }
                return;
            }
            stats_.counters.add(obs::Counter::kStructuralEvents);
            switch (event.kind) {
                case Kind::kOpening: {
                    stats_.counters.add(obs::Counter::kOpeningEvents);
                    bool is_object = event.byte == classify::kOpenBrace;
                    bool root_opening = depth == 0 && at_document_root;
                    // Depth limit before the skip decision: an engine that
                    // descends (the DOM baseline) flags this opener no
                    // matter whether the subtree could match, so a skipped
                    // subtree must not slip past the limit either.
                    if (static_cast<std::size_t>(depth) >= options_.limits.max_depth) {
                        fail(StatusCode::kDepthLimit, event.pos);
                        return;
                    }
                    if (!root_opening) {
                        int symbol;
                        if (auto label = label_symbol_before(event.pos)) {
                            symbol = *label;
                        } else {
                            symbol = array_entry_symbol(
                                counting_ && !counts.empty() ? counts.back() : 0);
                        }
                        if (!status_.ok()) {
                            return;
                        }
                        int target = cq.transition(state, symbol);
                        if (cq.flags(target).rejecting && options_.child_skipping) {
                            // Skipping children: nothing below can match
                            // (for a product state: no query of the set).
                            stats_.counters.add(obs::Counter::kChildSkips);
                            iter.skip_element(event.byte,
                                              static_cast<std::size_t>(depth));
                            continue;
                        }
                        if (target != state) {
                            // A frame is needed only when the transition
                            // changes behaviour; row-equivalent targets
                            // (differing in acceptance alone) restore to
                            // themselves, keeping the stack at O(n) for
                            // child-free queries (Section 3.2).
                            if (cq.row_class(target) != cq.row_class(state)) {
                                stack.push_back({state, depth});
                                stats_.counters.add(obs::Counter::kDepthStackPushes);
                                stats_.counters.raise(obs::Counter::kDepthStackMax,
                                                      stack.size());
                            }
                            state = target;
                        }
                    }
                    ++depth;
                    kinds.push(is_object);
                    if (counting_ && !is_object) {
                        counts.push_back(0);
                    }
                    // At the root opening `state` is still the initial
                    // state, whose matches were reported up front.
                    if (cq.flags(state).accepting && !root_opening) {
                        report(state, event.pos);
                    }
                    toggle(state, is_object);
                    if (!is_object) {
                        try_match_first_item(event.pos, state);
                    }
                    if (within_gate(state)) {
                        within_skip(iter, state, depth, kinds);
                    }
                    break;
                }
                case Kind::kClosing: {
                    if (depth == 0) {
                        // A closer with nothing open: report the stray
                        // byte instead of silently truncating the run.
                        fail(StatusCode::kUnbalancedStructure, event.pos);
                        return;
                    }
                    bool closed_is_object = kinds.top();
                    if (closed_is_object != (event.byte == classify::kCloseBrace)) {
                        // '}' closing an array or ']' closing an object.
                        fail(StatusCode::kUnbalancedStructure, event.pos);
                        return;
                    }
                    --depth;
                    kinds.pop();
                    if (counting_ && !closed_is_object) {
                        counts.pop_back();
                    }
                    if (depth == 0) {
                        return;  // the (sub)document root closed
                    }
                    if (!stack.empty() && stack.back().depth == depth) {
                        // Sibling skipping is sound only when the closed
                        // child advanced the automaton (its label was the
                        // unitary state's unique live label). With child
                        // skipping disabled the engine also descends into
                        // rejected subtrees, whose frames must not trigger
                        // the skip.
                        bool child_advanced = !cq.flags(state).rejecting;
                        state = stack.back().state;
                        stack.pop_back();
                        if (child_advanced && cq.flags(state).unitary &&
                            options_.sibling_skipping) {
                            // Labels do not repeat among siblings: the
                            // parent holds no further matches.
                            stats_.counters.add(obs::Counter::kSiblingSkips);
                            iter.skip_to_parent_close(
                                kinds.top(), static_cast<std::size_t>(depth) - 1);
                            continue;
                        }
                    }
                    toggle(state, kinds.top());
                    if (within_gate(state)) {
                        within_skip(iter, state, depth, kinds);
                    }
                    break;
                }
                case Kind::kColon: {
                    // An object member; only act if its value is an atom
                    // (the Opening case owns container values).
                    if (kinds.empty() || iter.peek().kind == Kind::kOpening) {
                        break;
                    }
                    int symbol = other_;
                    if (auto label = label_symbol_before(event.pos)) {
                        symbol = *label;
                    }
                    if (!status_.ok()) {
                        return;
                    }
                    int target = cq.transition(state, symbol);
                    if (cq.flags(target).accepting) {
                        report(target, iter.first_non_ws(event.pos + 1));
                        if (cq.flags(state).unitary && options_.sibling_skipping) {
                            // The unitary state's unique label just matched
                            // an atomic member: skip the remaining siblings.
                            stats_.counters.add(obs::Counter::kSiblingSkips);
                            iter.skip_to_parent_close(
                                kinds.top(), static_cast<std::size_t>(depth) - 1);
                        }
                    }
                    break;
                }
                case Kind::kComma: {
                    if (kinds.empty() || kinds.top()) {
                        break;  // object member separator (or malformed input)
                    }
                    if (counting_) {
                        ++counts.back();
                    }
                    StructuralIterator::Event following = iter.peek();
                    if (following.kind == Kind::kOpening ||
                        following.kind == Kind::kNone) {
                        break;
                    }
                    int target = cq.transition(
                        state, array_entry_symbol(counting_ ? counts.back() : 0));
                    if (cq.flags(target).accepting) {
                        report(target, iter.first_non_ws(event.pos + 1));
                    }
                    break;
                }
                case Kind::kNone:
                    // A parked iterator (budget interrupt latched at a
                    // refill) runs dry exactly like end-of-input; surface
                    // its status so the interrupt is not mistaken for a
                    // clean finish.
                    if (!iter.status().ok()) {
                        fail(iter.status().code, iter.status().offset);
                    }
                    return;
            }
        }
    }

    /**
     * Whether @p state takes the within-element skip: the skip is on for
     * this run, and the state waits for one label without accepting. The
     * test is inline so that the states which cannot skip (every state of
     * a descendant-free query) never call the out-of-line within_skip.
     */
    bool within_gate(int state) const
    {
        const automaton::StateFlags& flags = automaton_.flags(state);
        return within_ && flags.waiting && !flags.accepting;
    }

    /**
     * The Section 4.5 extension: in a waiting, non-accepting state (see
     * within_gate), fast-forwards straight to the awaited label anywhere
     * within the current element (or to the element's closer). Sound
     * because every skipped event would leave the state unchanged and
     * cannot match; atoms carrying the label are reported in-line. Returns
     * with the iterator positioned either at a matching member's container
     * value (@p depth / @p kinds extended to the containers opened on the
     * way) or at the element's pending closer.
     *
     * Pinned out of line: inlined, it grows run_main_loop by half and
     * measurably slows the counting sets that never call it.
     */
    [[gnu::noinline]] void within_skip(StructuralIterator& iter, int state,
                                       int& depth, BitStack& kinds)
    {
        const Automaton& cq = automaton_;
        int symbol = cq.waiting_symbol(state);
        // A waiting state has exactly one live label.
        assert(symbol >= 0);
        const std::string& label = alphabet_.label(symbol);
        int leaf_target = cq.transition(state, symbol);
        bool leaf_accepting = cq.flags(leaf_target).accepting;
        BitStack opened;
        int relative_depth = 1;
        while (true) {
            StructuralIterator::WithinResult found = iter.skip_to_label_within(
                label, opened, relative_depth, static_cast<std::size_t>(depth) - 1);
            stats_.counters.add(obs::Counter::kWithinSkips);
            if (found.outcome !=
                StructuralIterator::WithinResult::Outcome::kFoundLabel) {
                return;  // element closer pending (or malformed input)
            }
            std::uint8_t first =
                found.value_pos < iter.size() ? iter.data()[found.value_pos] : 0;
            if (first == classify::kOpenBrace || first == classify::kOpenBracket) {
                // The main loop takes over at the value's opening; its
                // label transition fires there. Account for the
                // containers the scan entered on the way.
                for (std::size_t i = 0; i < opened.size(); ++i) {
                    kinds.push(opened.bit_at(i));
                }
                depth += static_cast<int>(opened.size());
                if (static_cast<std::size_t>(depth) > options_.limits.max_depth) {
                    fail(StatusCode::kDepthLimit, found.value_pos);
                }
                return;
            }
            if (leaf_accepting) {
                report(leaf_target, found.value_pos);
                if (!status_.ok()) {
                    return;
                }
            }
            // Atomic value: keep scanning from just past it.
        }
    }

    /** Skipping to a label (Sections 3.3-3.4): jump between occurrences of
     *  the head label, running the main loop on each subdocument only.
     *  The validator is shared by the search and the iterator: the
     *  stop/resume protocol hands blocks between the two pipelines
     *  monotonically, so each block is accounted exactly once. */
    void run_head_skip(PaddedView document, const simd::Kernels& kernels,
                       StructuralValidator* validator,
                       obs::BlockAccountant* accountant)
    {
        const Automaton& cq = automaton_;
        const std::string& label = *cq.head_skip_label();
        int label_symbol = alphabet_.label_symbol(label);
        int target_of_label = cq.transition(cq.initial_state(), label_symbol);
        bool leaf_accepting = cq.flags(target_of_label).accepting;

        // The search is constructed first: it owns block 0 until the first
        // handoff, so the accountant attributes the lead-in to head-skip.
        LabelSearch search(document, kernels, label, validator, accountant,
                           budget_);
        StructuralIterator iter(document, kernels, validator,
                                options_.limits.max_depth, accountant, budget_);

        while (auto occurrence = search.next()) {
            stats_.counters.add(obs::Counter::kHeadSkipJumps);
            std::size_t value = iter.first_non_ws(occurrence->colon_pos + 1);
            if (value >= document.size()) {
                break;
            }
            std::uint8_t first = document.data()[value];
            if (first == classify::kOpenBrace || first == classify::kOpenBracket) {
                // Container value: hand the pipeline to the structural
                // iterator, run the main algorithm on the subdocument,
                // then hand it back.
                iter.resume(search.resume_point_at(value));
                run_main_loop(iter, /*at_document_root=*/false);
                if (!status_.ok()) {
                    return;
                }
                search.resume(iter.resume_point());
            } else if (leaf_accepting) {
                // Atomic value: report directly; the search continues and
                // the quote classifier keeps string contents excluded.
                report(target_of_label, value);
                if (!status_.ok()) {
                    return;
                }
            }
        }
        // A budget violation inside either pipeline parks it silently
        // (next() runs dry); surface it here, before the caller consults
        // the validator verdict on a stream that was never fully accounted.
        // The search and the iterator are separate block streams, so each
        // latch must be consulted on its own.
        if (status_.ok() && !search.status().ok()) {
            fail(search.status().code, search.status().offset);
        }
        if (status_.ok() && !iter.status().ok()) {
            fail(iter.status().code, iter.status().offset);
        }
    }

    /** Records the first problem; later reports keep the original. */
    void fail(StatusCode code, std::size_t offset)
    {
        if (status_.ok()) {
            status_ = {code, offset};
        }
    }

    /** Hands a match to the reporter; a tripped match limit fails the
     *  run at the match. */
    void report(int state, std::size_t offset)
    {
        if (!reporter_.report(state, offset)) {
            fail(StatusCode::kMatchLimit, offset);
        }
    }

    const Automaton& automaton_;
    const automaton::Alphabet& alphabet_;
    const EngineOptions& options_;
    Reporter& reporter_;
    RunStats& stats_;
    const RunBudget* budget_ = nullptr;
    const int other_;
    const bool counting_;
    /** The within-element skip runs: on in the options, and no entry
     *  counting (see the constructor). */
    const bool within_;
    EngineStatus status_;
};

/**
 * One governed run of @p automaton over @p document into @p stats:
 * preflight and the already-exceeded budget, then
 * DepthStackSimulation::run(), then the governance tally and the block
 * accounting.
 * @param root_only every query is exactly `$`, which selects the whole
 *        document: reporter.report_root() gets its start, and the
 *        document is never scanned.
 */
template <typename Automaton, typename Reporter>
void run_depth_stack(const Automaton& automaton,
                     const automaton::Alphabet& alphabet, bool counting,
                     bool root_only, const EngineOptions& options,
                     const simd::Kernels& kernels, PaddedView document,
                     const RunBudget& budget, Reporter& reporter,
                     RunStats& stats)
{
    // Shared by every pipeline over this document (exactly like the
    // validator): attributes each block, once, to the mode that first
    // classified it. finish() below closes the books whatever the
    // status, so the accounting invariant — the six block counters sum
    // to ceil(size / kBlockSize) — holds for any status, any options.
    obs::BlockAccountant accountant(&stats.counters);
    // Null when inactive: the block stream then skips governance
    // entirely, keeping the default path at one pointer test per refill.
    const RunBudget* budget_ptr = budget.active() ? &budget : nullptr;
    stats.status = preflight_document(document, options.limits);
    if (stats.status.ok() && budget_ptr != nullptr) {
        // An already-violated budget fails before any work, at offset 0 —
        // the deterministic floor the stream executor's semantics pin on.
        StatusCode over = budget.exceeded();
        if (over != StatusCode::kOk) {
            stats.status = {over, 0};
        }
    }
    if (stats.status.ok()) {
        DepthStackSimulation<Automaton, Reporter> simulation(
            automaton, alphabet, counting, options, reporter, stats, budget_ptr);
        stats.status = simulation.run(document, kernels, root_only, accountant);
    }
    // Deadline and cancel hits are rare; the tally costs two compares.
    if (stats.status.code == StatusCode::kDeadlineExceeded) {
        stats.counters.add(obs::Counter::kDeadlineHits);
    } else if (stats.status.code == StatusCode::kCancelled) {
        stats.counters.add(obs::Counter::kCancelHits);
    }
    accountant.finish(document.size());
}

}  // namespace descend::detail
