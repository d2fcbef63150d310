/**
 * @file
 * Query NFA construction (paper Section 3.1).
 *
 * A query with n selectors yields an NFA with n+1 states; state i means
 * "the first i selectors have matched on the current path". Descendant
 * selectors make their source state *recursive* (a self-loop over every
 * label). The automaton runs over the sequence of labels on a root-to-node
 * path; array entries carry an artificial label that matches only wildcard
 * and recursive arcs (and, with the counter extension, index arcs).
 *
 * Input symbols are interned per query by Alphabet: the concrete labels
 * (in their escaped comparison form), then *index intervals*, plus one
 * implicit OTHER symbol standing for every remaining label and for
 * uncovered array positions.
 *
 * Index intervals are the key to counter-carrying transitions surviving
 * the classical automaton pipeline unchanged: the index/slice bounds of
 * the whole query (set) partition the covered index space into half-open
 * intervals, each interned as one symbol. Every index or slice selector
 * guard is then a union of WHOLE interval symbols — an ordinary set of
 * arcs — so subset construction and Moore minimization need no knowledge
 * of counters at all; the engines map a runtime entry counter to its
 * interval symbol with one binary search (index_symbol).
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "descend/query/query.h"

namespace descend::automaton {

/** A half-open run [lo, hi) of array indices interned as one symbol;
 *  hi == query::kSliceUnbounded for the open tail of an `[a:]` slice. */
struct IndexInterval {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool contains(std::uint64_t index) const noexcept
    {
        return index >= lo && index < hi;
    }

    friend bool operator==(const IndexInterval& a, const IndexInterval& b) noexcept
    {
        return a.lo == b.lo && a.hi == b.hi;
    }
};

/** Interned input symbols of a query automaton. */
class Alphabet {
public:
    static Alphabet from_query(const query::Query& query);

    /**
     * The union alphabet of a query set (fused multi-query execution):
     * every label and every index-interval boundary occurring in any of
     * @p queries, interned once. Label order is first-occurrence across
     * the set; the union's intervals REFINE each member query's own
     * intervals (the boundary set is a superset), so a per-query remap by
     * representative index is exact.
     */
    static Alphabet from_queries(const std::vector<query::Query>& queries);

    int num_labels() const noexcept { return static_cast<int>(labels_.size()); }
    int num_indices() const noexcept { return static_cast<int>(intervals_.size()); }

    /** Concrete symbols (labels then index intervals), excluding OTHER. */
    int num_concrete() const noexcept { return num_labels() + num_indices(); }

    /** The OTHER symbol: any label/index not occurring in the query. */
    int other_symbol() const noexcept { return num_concrete(); }

    /** Total number of symbols including OTHER. */
    int total_symbols() const noexcept { return num_concrete() + 1; }

    bool symbol_is_label(int symbol) const noexcept { return symbol < num_labels(); }
    bool symbol_is_index(int symbol) const noexcept
    {
        return symbol >= num_labels() && symbol < num_concrete();
    }

    /** Symbol for an escaped label, or other_symbol() when absent. */
    int label_symbol(std::string_view escaped_label) const noexcept;

    /** Symbol of the interval containing @p index, or other_symbol() when
     *  no selector covers that position. Binary search over the disjoint
     *  sorted intervals. */
    int index_symbol(std::uint64_t index) const noexcept;

    /**
     * The interval symbols covering [lo, hi). By construction every
     * selector's bounds are interval boundaries, so the guard of an index
     * or slice selector is exactly a run of whole symbols.
     */
    std::vector<int> symbols_in_range(std::uint64_t lo, std::uint64_t hi) const;

    const std::string& label(int symbol) const { return labels_[symbol]; }

    /** The interval behind an index symbol. */
    const IndexInterval& interval(int symbol) const
    {
        return intervals_[static_cast<std::size_t>(symbol - num_labels())];
    }

    /** A representative index of an index symbol (the interval's lo):
     *  mapping it through another alphabet whose intervals this alphabet
     *  refines lands on the unique covering symbol — how the multi-query
     *  remap translates shared symbols into per-query ones. */
    std::uint64_t index(int symbol) const { return interval(symbol).lo; }

    const std::vector<std::string>& labels() const noexcept { return labels_; }
    const std::vector<IndexInterval>& intervals() const noexcept
    {
        return intervals_;
    }

private:
    /** One slot of the flat label table: the label's byte length and its
     *  symbol, or symbol -1 for an empty slot. */
    struct LabelSlot {
        std::uint32_t length = 0;
        std::int32_t symbol = -1;
    };

    /**
     * Builds the label table once interning is complete: one flat,
     * open-addressed (linear probing) array of power-of-two size at load
     * factor at most 1/4, keyed by a word-at-a-time hash over every byte of
     * the label. A lookup costs one hash, a probe run that is short at that
     * load, and one length check plus one memcmp per candidate — the same
     * for a 1k-query union alphabet as for a 10-label one. Below a handful
     * of labels (single-query alphabets) a linear scan over labels_ is as
     * fast, so small alphabets leave the table empty.
     */
    void build_lookup_tables();

    /** Partitions the covered index space: the sorted selector bounds cut
     *  it into candidate cells, and cells inside at least one selector
     *  range become symbols. */
    void build_intervals(std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges);

    std::vector<std::string> labels_;        ///< escaped comparison forms
    std::vector<IndexInterval> intervals_;   ///< sorted, disjoint
    /** The label table (power-of-two size); empty when the linear scan
     *  wins (few labels). */
    std::vector<LabelSlot> label_table_;
};

/** One NFA state and its outgoing arcs. */
struct NfaState {
    /** Self-loop over every symbol (descendant selectors). */
    bool recursive = false;
    /** Advance arc fires on every symbol (wildcard and filter selectors —
     *  a filter constrains acceptance at report time, not the path). */
    bool wildcard_advance = false;
    /** Advance arc symbols (labels and/or index intervals), sorted; empty
     *  when wildcard_advance, and also for an unsatisfiable guard (an
     *  empty slice), which then can never advance. */
    std::vector<int> advance_symbols;
};

/**
 * The query NFA. State count is capped at 64 so that DFA subset
 * construction can use one machine word per subset; queries with more than
 * 63 selectors raise LimitError (far beyond any practical query).
 */
class Nfa {
public:
    static Nfa from_query(const query::Query& query);

    const Alphabet& alphabet() const noexcept { return alphabet_; }
    int num_states() const noexcept { return static_cast<int>(states_.size()); }
    int accepting_state() const noexcept { return num_states() - 1; }
    const NfaState& state(int i) const { return states_[static_cast<std::size_t>(i)]; }

    /** True if the advance arc of state i fires on the given symbol. */
    bool advances_on(int i, int symbol) const;

private:
    Alphabet alphabet_;
    std::vector<NfaState> states_;
};

}  // namespace descend::automaton
