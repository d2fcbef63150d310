/**
 * @file
 * Set-compiled execution artifact: ONE automaton for the whole query set.
 *
 * N independent automata would each take a transition per structural
 * event — O(N) per event, with a skip possible only where all of them
 * agree. QuerySetCompiler instead factors the deduplicated query set into
 * a *trie* of shared selector prefixes over the union Alphabet and lowers
 * that trie to a single deterministic product automaton:
 *
 *   - Trie nodes are selector prefixes; edges carry the selector kind
 *     (child label / child wildcard / child index / descendant label /
 *     descendant wildcard) keyed by shared-alphabet symbols, so `$.a.x`
 *     and `$.a..y` share the `$.a` prefix state.
 *   - A trailing filter `[?(...)]` lowers to a child-wildcard edge, so it
 *     shares its node with `$.a.*` and with every other filter on the same
 *     prefix. The automaton only surfaces candidates; accept sets holding a
 *     filter-bearing subscriber are marked *gated* (accept_set_gated), and
 *     the engine runs that subscriber's predicate at report time — the
 *     same report-point gate DescendEngine uses.
 *   - Descendant recursion is modelled per-node with a companion *hub*
 *     state: a node with descendant edges contributes its hub to every
 *     successor (the "search goes on below" component), and the hub
 *     self-loops while firing only the node's descendant edges. Child
 *     edges never fire from hubs, which is exactly why merging prefixes
 *     of different queries stays sound.
 *   - Subset construction over trie nodes + hubs yields the product DFA;
 *     its states carry *subscriber bitsets* (SubscriberSet over distinct
 *     query ids — the accept set), interned into a table because accept
 *     sets repeat heavily. Moore minimization (initial partition: accept
 *     sets) then collapses equivalent states — among else re-establishing
 *     the waiting/head-skip shape of `$..label`-headed sets.
 *
 * Per-state properties mirror CompiledQuery exactly (automaton/compiled.h,
 * paper Section 3.3), but computed on the union automaton they become
 * set-level skip decisions: `rejecting` is the precomputed "can anything
 * in the whole set match below" bit, so one child-skip test replaces N
 * per-query votes, and `unitary`/`waiting` certify sibling/within skips
 * for every subscriber at once. Per-event cost is one transition instead
 * of N.
 *
 * Subset construction is capped (max_states). Descendants followed by
 * wildcards (paper Section 3.1) double the subsets per wildcard, and the
 * blowup compounds across queries; compile_parts() then bisects the set
 * into parts that each fit, which FusedEngine (fused.h) runs back to
 * back. Every part keeps the whole set's alphabet and distinct ids.
 *
 * Transitions are stored as per-state exception lists over a fallback (the
 * OTHER successor): union alphabets of 1k-query sets have thousands of
 * symbols, so dense rows would waste megabytes while nearly every row is
 * "fallback everywhere except this prefix's few live symbols". Most lists
 * are short, but not all: a `$.products.*` spine fanning out to 1k leaf
 * fields, or a descendant hub merged into every state of a 1k-label
 * disjoint set, gives states one exception per query. transition() stays
 * bounded on both: one compare for symbols past the list (OTHER always
 * is), else a binary search.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "descend/automaton/compiled.h"
#include "descend/multi/multi_query.h"
#include "descend/multi/subscriber_set.h"

namespace descend::multi {

class ProductAutomaton {
public:
    /** An empty automaton; meaningful instances come from the compiler. */
    ProductAutomaton() = default;

    int num_states() const noexcept { return num_states_; }

    /** Subset-construction states before minimization: the quantity the
     *  compiler's max_states caps. */
    int subset_states() const noexcept { return subset_states_; }

    int initial_state() const noexcept { return initial_; }

    /** Successor of @p state on @p symbol (shared-alphabet space), at the
     *  bounded cost the file comment describes. */
    int transition(int state, int symbol) const noexcept
    {
        const std::uint32_t begin = ex_begin_[static_cast<std::size_t>(state)];
        const std::uint32_t end = ex_begin_[static_cast<std::size_t>(state) + 1];
        if (begin == end || symbol > ex_symbols_[end - 1]) {
            return fallback_[static_cast<std::size_t>(state)];
        }
        // symbol <= the last exception, so the lower bound lies inside the
        // list. Branch-light: the compare feeds a conditional move, not a
        // branch.
        std::uint32_t e = begin;
        std::uint32_t count = end - begin;
        while (count > 1) {
            std::uint32_t half = count / 2;
            e = ex_symbols_[e + half - 1] < symbol ? e + half : e;
            count -= half;
        }
        return ex_symbols_[e] == symbol ? ex_targets_[e]
                                        : fallback_[static_cast<std::size_t>(state)];
    }

    /** One exception of a state: a symbol whose successor differs from
     *  the fallback. */
    struct Exception {
        std::int32_t symbol;
        std::int32_t target;
    };

    /** The state's exceptions, ascending by symbol (read-only copy; for
     *  tests and plan dumps, not the run loop). */
    std::vector<Exception> exceptions(int state) const
    {
        std::vector<Exception> list;
        for (std::uint32_t e = ex_begin_[static_cast<std::size_t>(state)];
             e < ex_begin_[static_cast<std::size_t>(state) + 1]; ++e) {
            list.push_back({ex_symbols_[e], ex_targets_[e]});
        }
        return list;
    }

    /** The fallback transition (over the OTHER symbol). */
    int fallback(int state) const noexcept
    {
        return fallback_[static_cast<std::size_t>(state)];
    }

    const automaton::StateFlags& flags(int state) const noexcept
    {
        return flags_[static_cast<std::size_t>(state)];
    }

    /** See CompiledQuery::row_class: frame pushes happen only on class
     *  changes. */
    int row_class(int state) const noexcept
    {
        return row_class_[static_cast<std::size_t>(state)];
    }

    /** The unique live label a waiting state waits for; -1 otherwise. */
    int waiting_symbol(int state) const noexcept
    {
        return waiting_symbol_[static_cast<std::size_t>(state)];
    }

    /** Index into accept_set() of the state's subscribers; 0 is always the
     *  empty set, so `accept_set_id(s) != 0` iff the state accepts. */
    int accept_set_id(int state) const noexcept
    {
        return accept_id_[static_cast<std::size_t>(state)];
    }

    /** Interned subscriber bitset (over DISTINCT query ids). */
    const SubscriberSet& accept_set(int set_id) const
    {
        return accept_sets_[static_cast<std::size_t>(set_id)];
    }

    /** True when some subscriber of @p set_id carries a trailing filter:
     *  the engine then gates each candidate through that query's
     *  predicate before reporting it. */
    bool accept_set_gated(int set_id) const noexcept
    {
        return accept_gated_[static_cast<std::size_t>(set_id)];
    }

    /** Set-level head-skip label: present iff the initial state waits on a
     *  concrete label and accepts nothing (so skipped lead-in is invisible
     *  to every subscriber). Escaped comparison form. */
    const std::optional<std::string>& head_skip_label() const noexcept
    {
        return head_skip_label_;
    }

private:
    friend class QuerySetCompiler;

    int num_states_ = 0;
    int subset_states_ = 0;
    int initial_ = 0;
    /** CSR exception lists: state s owns [ex_begin_[s], ex_begin_[s+1]). */
    std::vector<std::uint32_t> ex_begin_;
    std::vector<std::int32_t> ex_symbols_;
    std::vector<std::int32_t> ex_targets_;
    std::vector<std::int32_t> fallback_;
    std::vector<automaton::StateFlags> flags_;
    std::vector<std::int32_t> row_class_;
    std::vector<std::int32_t> waiting_symbol_;
    std::vector<std::int32_t> accept_id_;
    std::vector<SubscriberSet> accept_sets_;
    std::vector<bool> accept_gated_;
    std::optional<std::string> head_skip_label_;
};

class QuerySetCompiler {
public:
    /**
     * Lowers distinct queries [@p first, @p last) of the set to their
     * product automaton; accept sets index the whole set's distinct ids.
     * @p max_states caps subset construction (the descendant-plus-wildcard
     * blowup of Section 3.1 compounds across queries): LimitError beyond
     * it.
     */
    static ProductAutomaton compile(const MultiQuery& set,
                                    int max_states = 1 << 15,
                                    std::size_t first = 0,
                                    std::size_t last = SIZE_MAX);

    /**
     * The whole set as one automaton when it fits @p max_states; else
     * bisects the distinct queries (first-occurrence order) until every
     * part fits, and returns the parts in order. @throws LimitError when
     * a single query alone exceeds the cap.
     */
    static std::vector<ProductAutomaton> compile_parts(const MultiQuery& set,
                                                       int max_states = 1 << 15);
};

}  // namespace descend::multi
