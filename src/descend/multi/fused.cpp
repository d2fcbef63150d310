#include "descend/multi/fused.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "descend/engine/label_search.h"
#include "descend/engine/structural_iterator.h"
#include "descend/engine/validation.h"
#include "descend/project/filter_eval.h"
#include "descend/util/bit_stack.h"
#include "descend/util/inline_vector.h"
#include "descend/util/utf8.h"

namespace descend::multi {
namespace {

/** A sparse depth-stack frame, as in the single-query engine — but there
 *  is exactly ONE stack here, holding product-state ids. */
struct Frame {
    int state;
    int depth;
};

using DepthStack = InlineVector<Frame, 128>;

/**
 * The single-query Simulation of main_engine.cpp re-run over the product
 * automaton: identical event handling, with `accepting` generalized to a
 * subscriber set and each skip predicate reading the union automaton's
 * per-state flags.
 */
class ProductSimulation {
public:
    ProductSimulation(const MultiQuery& queries, const ProductAutomaton& product,
                      const EngineOptions& options, MultiSink& sink,
                      RunStats& stats, PaddedView document,
                      const simd::Kernels& kernels,
                      const RunBudget* budget = nullptr)
        : queries_(queries),
          product_(product),
          options_(options),
          sink_(sink),
          stats_(stats),
          document_(document),
          kernels_(kernels),
          budget_(budget),
          other_(queries.alphabet().other_symbol()),
          counting_(queries.any_counting()),
          matches_(queries.num_distinct(), 0)
    {
    }

    const EngineStatus& status() const noexcept { return status_; }

    void run_main_loop(StructuralIterator& iter, bool at_document_root)
    {
        using Kind = StructuralIterator::Kind;
        const ProductAutomaton& pa = product_;
        const automaton::Alphabet& alphabet = queries_.alphabet();

        int state = pa.initial_state();
        int depth = 0;
        DepthStack stack;
        BitStack kinds;
        InlineVector<std::uint64_t, 64> counts;

        if (at_document_root && pa.accept_set_id(state) != 0) {
            // Root-accepting subscribers (`$`) select the whole document;
            // the root opening fires no transition for the initial state,
            // so they report up front — at the offset the standalone `$`
            // fast path reports.
            std::size_t start = iter.first_non_ws(0);
            if (start < iter.size()) {
                report_set(pa.accept_set_id(state), start);
            }
        }

        if (!options_.leaf_skipping) {
            iter.set_commas(true);
            iter.set_colons(true);
        }
        // Toggling (Section 3.4) over the union automaton: the product
        // state's toggles are ORs of every subscriber's, by construction.
        auto toggle = [&](int current_state, bool is_object) {
            if (!options_.leaf_skipping) {
                return;
            }
            const automaton::StateFlags& flags = pa.flags(current_state);
            iter.set_colons(is_object && flags.colon_toggle);
            iter.set_commas(!is_object && (flags.comma_toggle || counting_),
                            /*eager_disable=*/counting_);
        };

        auto array_entry_symbol = [&](std::uint64_t entry_index) {
            return counting_ ? alphabet.index_symbol(entry_index) : other_;
        };

        // §4.5 within-element skip: a waiting product state certifies that
        // NO subscriber can see anything but the awaited label.
        auto within_skip = [&](int current_state, int& current_depth,
                               BitStack& current_kinds) {
            int symbol = pa.waiting_symbol(current_state);
            if (symbol < 0 || pa.flags(current_state).accepting || counting_) {
                return;
            }
            const std::string& label = alphabet.label(symbol);
            int leaf_accept_id =
                pa.accept_set_id(pa.transition(current_state, symbol));
            BitStack opened;
            int relative_depth = 1;
            while (true) {
                StructuralIterator::WithinResult found = iter.skip_to_label_within(
                    label, opened, relative_depth,
                    static_cast<std::size_t>(current_depth) - 1);
                stats_.counters.add(obs::Counter::kWithinSkips);
                stats_.counters.add(obs::Counter::kProductSkips);
                if (found.outcome != StructuralIterator::WithinResult::Outcome::
                                         kFoundLabel) {
                    return;
                }
                std::uint8_t first = found.value_pos < iter.size()
                                         ? iter.data()[found.value_pos]
                                         : 0;
                if (first == classify::kOpenBrace ||
                    first == classify::kOpenBracket) {
                    for (std::size_t i = 0; i < opened.size(); ++i) {
                        current_kinds.push(opened.bit_at(i));
                    }
                    current_depth += static_cast<int>(opened.size());
                    if (static_cast<std::size_t>(current_depth) >
                        options_.limits.max_depth) {
                        fail(StatusCode::kDepthLimit, found.value_pos);
                    }
                    return;
                }
                if (leaf_accept_id != 0) {
                    report_set(leaf_accept_id, found.value_pos);
                    if (!status_.ok()) {
                        return;
                    }
                }
            }
        };

        auto try_match_first_item = [&](std::size_t open_pos, int current_state) {
            int target = pa.transition(current_state, array_entry_symbol(0));
            int accept_id = pa.accept_set_id(target);
            if (accept_id == 0) {
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
            report_set(accept_id, item);
        };

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
                    if (static_cast<std::size_t>(depth) >=
                        options_.limits.max_depth) {
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
                        int target = pa.transition(state, symbol);
                        if (pa.flags(target).rejecting && options_.child_skipping) {
                            // One precomputed bit says the subtree is dead
                            // to the ENTIRE set — no consensus scan, no
                            // possible veto.
                            stats_.counters.add(obs::Counter::kChildSkips);
                            stats_.counters.add(obs::Counter::kProductSkips);
                            iter.skip_element(event.byte,
                                              static_cast<std::size_t>(depth));
                            continue;
                        }
                        if (target != state) {
                            if (pa.row_class(target) != pa.row_class(state)) {
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
                    // The initial state's accept set was pre-reported at
                    // the document root; at the root opening `state` is
                    // still initial, so reporting it again would double.
                    int accept_id = pa.accept_set_id(state);
                    if (accept_id != 0 && !root_opening) {
                        report_set(accept_id, event.pos);
                    }
                    toggle(state, is_object);
                    if (!is_object) {
                        try_match_first_item(event.pos, state);
                    }
                    if (options_.label_within_skipping) {
                        within_skip(state, depth, kinds);
                    }
                    break;
                }
                case Kind::kClosing: {
                    if (depth == 0) {
                        fail(StatusCode::kUnbalancedStructure, event.pos);
                        return;
                    }
                    bool closed_is_object = kinds.top();
                    if (closed_is_object != (event.byte == classify::kCloseBrace)) {
                        fail(StatusCode::kUnbalancedStructure, event.pos);
                        return;
                    }
                    --depth;
                    kinds.pop();
                    if (counting_ && !closed_is_object) {
                        counts.pop_back();
                    }
                    if (depth == 0) {
                        return;
                    }
                    if (!stack.empty() && stack.back().depth == depth) {
                        bool child_advanced = !pa.flags(state).rejecting;
                        state = stack.back().state;
                        stack.pop_back();
                        if (child_advanced && pa.flags(state).unitary &&
                            options_.sibling_skipping) {
                            // Unitary on the union automaton: the consumed
                            // label was the only thing ANY subscriber could
                            // still use in this parent.
                            stats_.counters.add(obs::Counter::kSiblingSkips);
                            stats_.counters.add(obs::Counter::kProductSkips);
                            iter.skip_to_parent_close(
                                kinds.top(), static_cast<std::size_t>(depth) - 1);
                            continue;
                        }
                    }
                    toggle(state, kinds.top());
                    if (options_.label_within_skipping) {
                        within_skip(state, depth, kinds);
                    }
                    break;
                }
                case Kind::kColon: {
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
                    int target = pa.transition(state, symbol);
                    int accept_id = pa.accept_set_id(target);
                    if (accept_id != 0) {
                        report_set(accept_id, iter.first_non_ws(event.pos + 1));
                        if (pa.flags(state).unitary && options_.sibling_skipping) {
                            stats_.counters.add(obs::Counter::kSiblingSkips);
                            stats_.counters.add(obs::Counter::kProductSkips);
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
                    int target = pa.transition(
                        state, array_entry_symbol(counting_ ? counts.back() : 0));
                    int accept_id = pa.accept_set_id(target);
                    if (accept_id != 0) {
                        report_set(accept_id, iter.first_non_ws(event.pos + 1));
                    }
                    break;
                }
                case Kind::kNone:
                    if (!iter.status().ok()) {
                        fail(iter.status().code, iter.status().offset);
                    }
                    return;
            }
        }
    }

    /** Head-skip over the set-level label (ProductAutomaton::head_skip_label
     *  exists only when the whole set waits on it): one label search drives
     *  every subscriber. */
    void run_head_skip(StructuralValidator* validator,
                       obs::BlockAccountant* accountant)
    {
        const ProductAutomaton& pa = product_;
        const std::string& label = *pa.head_skip_label();
        int label_symbol = queries_.alphabet().label_symbol(label);
        int leaf_accept_id =
            pa.accept_set_id(pa.transition(pa.initial_state(), label_symbol));

        LabelSearch search(document_, kernels_, label, validator, accountant,
                           budget_);
        StructuralIterator iter(document_, kernels_, validator,
                                options_.limits.max_depth, accountant, budget_);

        while (auto occurrence = search.next()) {
            stats_.counters.add(obs::Counter::kHeadSkipJumps);
            std::size_t value = iter.first_non_ws(occurrence->colon_pos + 1);
            if (value >= document_.size()) {
                break;
            }
            std::uint8_t first = document_.data()[value];
            if (first == classify::kOpenBrace || first == classify::kOpenBracket) {
                iter.resume(search.resume_point_at(value));
                run_main_loop(iter, /*at_document_root=*/false);
                if (!status_.ok()) {
                    return;
                }
                search.resume(iter.resume_point());
            } else if (leaf_accept_id != 0) {
                report_set(leaf_accept_id, value);
                if (!status_.ok()) {
                    return;
                }
            }
        }
        // The label search and the structural iterator pull separate block
        // streams, so each latches its own status; report the first.
        if (status_.ok() && !search.status().ok()) {
            fail(search.status().code, search.status().offset);
        }
        if (status_.ok() && !iter.status().ok()) {
            fail(iter.status().code, iter.status().offset);
        }
    }

private:
    void fail(StatusCode code, std::size_t offset)
    {
        if (status_.ok()) {
            status_ = {code, offset};
        }
    }

    /**
     * Fans an accepting state out to its subscribers: distinct queries in
     * ascending id order (bitset scan), then each one's owners in
     * ascending input order — the report order of N independent runs. The match limit applies per distinct
     * query; duplicates share the counter and so trip it identically to
     * their own independent runs. A gated set runs each filter-bearing
     * subscriber's predicate first: a rejected candidate is not a match, so
     * it neither reaches the owners nor counts toward the limit.
     */
    void report_set(int accept_id, std::size_t offset)
    {
        const bool gated = product_.accept_set_gated(accept_id);
        product_.accept_set(accept_id).for_each([&](std::size_t d) {
            if (gated && !admits(d, offset)) {
                return;
            }
            if (++matches_[d] > options_.limits.max_match_count) {
                fail(StatusCode::kMatchLimit, offset);
                return;
            }
            for (std::size_t owner : queries_.owners(d)) {
                stats_.counters.add(obs::Counter::kSubscriberFanout);
                sink_.on_match(owner, offset);
            }
        });
    }

    /** Distinct query @p d's filter verdict on the candidate at @p offset;
     *  true for filter-free queries. A gate is built on its query's first
     *  candidate of the run, so runs that surface no filter candidate
     *  allocate nothing for filters. */
    bool admits(std::size_t d, std::size_t offset)
    {
        const query::FilterExpr* filter = queries_.distinct(d).filter();
        if (filter == nullptr) {
            return true;
        }
        if (gates_.empty()) {
            gates_.resize(queries_.num_distinct());
        }
        std::unique_ptr<project::FilterGate>& gate = gates_[d];
        if (gate == nullptr) {
            gate = std::make_unique<project::FilterGate>(
                *filter, document_, kernels_, &stats_.counters);
        }
        return gate->admits(offset);
    }

    const MultiQuery& queries_;
    const ProductAutomaton& product_;
    const EngineOptions& options_;
    MultiSink& sink_;
    RunStats& stats_;
    PaddedView document_;
    const simd::Kernels& kernels_;
    const RunBudget* budget_ = nullptr;
    const int other_;
    const bool counting_;
    /** Per-DISTINCT-query match tallies (limit enforcement). */
    std::vector<std::size_t> matches_;
    /** Per-distinct-query filter gates, built lazily by admits(). */
    std::vector<std::unique_ptr<project::FilterGate>> gates_;
    EngineStatus status_;
};

/** Tallies a governance outcome into the run's counters. */
void count_governance(RunStats& stats)
{
    if (stats.status.code == StatusCode::kDeadlineExceeded) {
        stats.counters.add(obs::Counter::kDeadlineHits);
    } else if (stats.status.code == StatusCode::kCancelled) {
        stats.counters.add(obs::Counter::kCancelHits);
    }
}

/** Buffers a split run's matches, one part after another. */
class PartBuffer final : public MultiSink {
public:
    struct Match {
        std::size_t offset;
        std::size_t query;
    };

    void on_match(std::size_t query_index, std::size_t offset) override
    {
        matches.push_back({offset, query_index});
    }

    std::vector<Match> matches;
};

}  // namespace

FusedEngine::FusedEngine(MultiQuery queries, EngineOptions options,
                         int max_states)
    : queries_(std::move(queries)),
      parts_(QuerySetCompiler::compile_parts(queries_, max_states)),
      options_(options),
      kernels_(&simd::kernels_for(options.simd))
{
}

FusedEngine::~FusedEngine() = default;

std::string FusedEngine::name() const
{
    return std::string("descend-product-") + kernels_->name;
}

RunStats FusedEngine::dispatch(PaddedView document, MultiSink& sink,
                               const RunBudget& budget) const
{
    if (parts_.size() == 1) {
        return run_part(parts_.front(), document, sink, budget);
    }
    // Parts run back to back over the same view. A later part may fail
    // earlier in the document than an earlier part's matches reach, so
    // matches wait in a buffer until every part has run; a governance stop
    // (deadline, cancellation) ends the run at once.
    RunStats stats;
    PartBuffer buffer;
    std::uint64_t states = 0;
    for (const ProductAutomaton& part : parts_) {
        RunStats part_stats = run_part(part, document, buffer, budget);
        stats.counters.merge(part_stats.counters);
        states += static_cast<std::uint64_t>(part.num_states());
        const EngineStatus& status = part_stats.status;
        if (!status.ok() &&
            (stats.status.ok() || status.offset < stats.status.offset)) {
            stats.status = status;
        }
        if (status.is_governance()) {
            break;
        }
    }
    stats.counters.raise(obs::Counter::kProductStates, states);
    // Document order across parts; parts hold ascending distinct ids, so
    // equal offsets keep the single automaton's report order.
    std::stable_sort(buffer.matches.begin(), buffer.matches.end(),
                     [](const PartBuffer::Match& a, const PartBuffer::Match& b) {
                         return a.offset < b.offset;
                     });
    for (const PartBuffer::Match& match : buffer.matches) {
        if (!stats.status.ok() && match.offset > stats.status.offset) {
            break;
        }
        sink.on_match(match.query, match.offset);
    }
    return stats;
}

RunStats FusedEngine::run_part(const ProductAutomaton& part,
                               PaddedView document, MultiSink& sink,
                               const RunBudget& budget) const
{
    RunStats stats;
    obs::BlockAccountant accountant(&stats.counters);
    stats.counters.raise(obs::Counter::kProductStates,
                         static_cast<std::uint64_t>(part.num_states()));
    const RunBudget* budget_ptr = budget.active() ? &budget : nullptr;
    stats.status = preflight_document(document, options_.limits);
    if (stats.status.ok() && budget_ptr != nullptr) {
        StatusCode over = budget.exceeded();
        if (over != StatusCode::kOk) {
            stats.status = {over, 0};
        }
    }
    if (!stats.status.ok()) {
        count_governance(stats);
        accountant.finish(document.size());
        return stats;
    }
    if (queries_.all_root_accepting()) {
        // Every query is `$`: mirror the standalone O(1) unvalidated path
        // (see DESIGN.md, "Error handling & limits").
        StructuralIterator iter(document, *kernels_, nullptr,
                                EngineLimits::kUnlimited, &accountant);
        std::size_t start = iter.first_non_ws(0);
        if (start < document.size()) {
            for (std::size_t i = 0; i < queries_.size(); ++i) {
                sink.on_match(i, start);
            }
        }
        accountant.finish(document.size());
        return stats;
    }
    StructuralValidator validator;
    StructuralValidator* vptr = options_.validate_structure ? &validator : nullptr;
    ProductSimulation simulation(queries_, part, options_, sink, stats,
                                 document, *kernels_, budget_ptr);
    if (part.head_skip_label().has_value() && options_.head_skipping) {
        simulation.run_head_skip(vptr, &accountant);
        stats.status = simulation.status();
        if (stats.status.ok() && vptr != nullptr) {
            stats.status = validator.verdict(document.size());
        }
        count_governance(stats);
        accountant.finish(document.size());
        return stats;
    }
    StructuralIterator iter(document, *kernels_, vptr, options_.limits.max_depth,
                            &accountant, budget_ptr);
    simulation.run_main_loop(iter, /*at_document_root=*/true);
    stats.status = simulation.status();
    if (stats.status.ok()) {
        std::size_t after = iter.first_non_ws(iter.position());
        if (after < document.size()) {
            stats.status = {StatusCode::kTrailingContent, after};
        }
    }
    if (stats.status.ok() && vptr != nullptr) {
        stats.status = validator.verdict(document.size());
    }
    count_governance(stats);
    accountant.finish(document.size());
    return stats;
}

EngineStatus FusedEngine::run(PaddedView document, MultiSink& sink) const
{
    return dispatch(document, sink, options_.budget).status;
}

RunStats FusedEngine::run_with_stats(PaddedView document, MultiSink& sink,
                                     const RunBudget& budget) const
{
    obs::PhaseStopwatch watch;
    RunStats stats = dispatch(document, sink, budget);
    stats.timings.add(obs::Phase::kAutomaton, watch.elapsed_ns());
    return stats;
}

std::unique_ptr<FusedEngine> make_fused_engine(MultiQuery queries,
                                               EngineOptions options)
{
    return std::make_unique<FusedEngine>(std::move(queries), options);
}

std::unique_ptr<FusedEngine> make_fused_engine(
    const std::vector<std::string>& query_texts, EngineOptions options)
{
    return make_fused_engine(MultiQuery::compile(query_texts), options);
}

}  // namespace descend::multi
