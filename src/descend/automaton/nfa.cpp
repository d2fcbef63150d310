#include "descend/automaton/nfa.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <utility>

#include "descend/util/errors.h"

namespace descend::automaton {
namespace {

/** Below this many labels a linear scan beats a hash probe; the interned
 *  lists stay in one or two cache lines for typical single queries. */
constexpr std::size_t kHashedLookupThreshold = 8;

/**
 * Word-at-a-time hash over EVERY byte of a label: whole 8-byte words while
 * they last, then a 1-7 byte tail as overlapping reads that still cover
 * each of its bytes, seeded with the length. A hash over only the head and
 * tail words would chain every label that differs only in the middle (a
 * shape query sets can be built to hit on purpose).
 */
std::uint64_t hash_label(const char* data, std::size_t size) noexcept
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    const auto* bytes = reinterpret_cast<const unsigned char*>(data);
    std::uint64_t h = (size + 1) * kMul;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes + i, 8);
        h = (h ^ word) * kMul;
        h ^= h >> 32;
    }
    std::size_t rest = size - i;
    if (rest >= 4) {
        std::uint32_t head;
        std::uint32_t tail;
        std::memcpy(&head, bytes + i, 4);
        std::memcpy(&tail, bytes + i + rest - 4, 4);
        h = (h ^ ((std::uint64_t{tail} << 32) | head)) * kMul;
    } else if (rest != 0) {
        h = (h ^ ((std::uint64_t{bytes[i]} << 16) |
                  (std::uint64_t{bytes[i + rest / 2]} << 8) |
                  bytes[i + rest - 1])) * kMul;
    }
    // Final avalanche: probing uses the low bits.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

using IndexRange = std::pair<std::uint64_t, std::uint64_t>;

/** Interns one query's labels and collects its index/slice ranges. */
void collect_symbols(const query::Query& query, std::vector<std::string>& labels,
                     std::unordered_set<std::string_view>& seen_labels,
                     std::vector<IndexRange>& ranges)
{
    auto add_label = [&](const std::string& escaped) {
        if (seen_labels.insert(escaped).second) {
            labels.push_back(escaped);
        }
    };
    for (const query::Selector& selector : query.selectors()) {
        switch (selector.kind) {
            case query::SelectorKind::kChild:
            case query::SelectorKind::kDescendant:
                add_label(selector.label_escaped);
                break;
            case query::SelectorKind::kChildUnion:
                for (const query::LabelRef& member : selector.union_members) {
                    add_label(member.escaped);
                }
                break;
            case query::SelectorKind::kChildIndex:
                ranges.emplace_back(selector.index, selector.index + 1);
                break;
            case query::SelectorKind::kChildSlice:
                ranges.emplace_back(selector.slice_lo, selector.slice_hi);
                break;
            case query::SelectorKind::kRoot:
            case query::SelectorKind::kChildWildcard:
            case query::SelectorKind::kChildFilter:
            case query::SelectorKind::kDescendantWildcard:
                // No path symbols: wildcards (and filters, which advance
                // like wildcards and test the candidate at report time)
                // ride the fallback arc.
                break;
        }
    }
}

}  // namespace

void Alphabet::build_lookup_tables()
{
    if (labels_.size() < kHashedLookupThreshold) {
        return;
    }
    label_table_.assign(std::bit_ceil(labels_.size() * 4), LabelSlot{});
    const std::size_t mask = label_table_.size() - 1;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
        const std::string& label = labels_[i];
        if (label.size() > std::numeric_limits<std::uint32_t>::max()) {
            throw LimitError("query labels are limited to 4 GiB");
        }
        std::size_t slot = hash_label(label.data(), label.size()) & mask;
        while (label_table_[slot].symbol >= 0) {
            slot = (slot + 1) & mask;
        }
        label_table_[slot] = {static_cast<std::uint32_t>(label.size()),
                              static_cast<std::int32_t>(i)};
    }
}

void Alphabet::build_intervals(std::vector<IndexRange> ranges)
{
    // Boundary set: every selector bound. A cell between two consecutive
    // boundaries is either wholly inside a selector's range or wholly
    // outside every one — so selector guards are unions of whole cells.
    std::vector<std::uint64_t> bounds;
    for (const IndexRange& range : ranges) {
        if (range.first >= range.second) {
            continue;  // empty slice: no coverage, no symbols
        }
        bounds.push_back(range.first);
        if (range.second != query::kSliceUnbounded) {
            bounds.push_back(range.second);
        }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        std::uint64_t lo = bounds[i];
        std::uint64_t hi =
            i + 1 < bounds.size() ? bounds[i + 1] : query::kSliceUnbounded;
        bool covered = std::any_of(ranges.begin(), ranges.end(),
                                   [&](const IndexRange& range) {
                                       return range.first <= lo &&
                                              lo < range.second;
                                   });
        if (covered) {
            intervals_.push_back({lo, hi});
        }
    }
}

Alphabet Alphabet::from_query(const query::Query& query)
{
    Alphabet alphabet;
    std::unordered_set<std::string_view> seen_labels;
    std::vector<IndexRange> ranges;
    collect_symbols(query, alphabet.labels_, seen_labels, ranges);
    alphabet.build_intervals(std::move(ranges));
    alphabet.build_lookup_tables();
    return alphabet;
}

Alphabet Alphabet::from_queries(const std::vector<query::Query>& queries)
{
    Alphabet alphabet;
    std::unordered_set<std::string_view> seen_labels;
    std::vector<IndexRange> ranges;
    for (const query::Query& query : queries) {
        collect_symbols(query, alphabet.labels_, seen_labels, ranges);
    }
    alphabet.build_intervals(std::move(ranges));
    alphabet.build_lookup_tables();
    return alphabet;
}

int Alphabet::label_symbol(std::string_view escaped_label) const noexcept
{
    if (!label_table_.empty()) {
        const std::size_t mask = label_table_.size() - 1;
        std::size_t slot =
            hash_label(escaped_label.data(), escaped_label.size()) & mask;
        while (true) {
            const LabelSlot& entry = label_table_[slot];
            if (entry.symbol < 0) {
                return other_symbol();
            }
            if (entry.length == escaped_label.size() &&
                std::char_traits<char>::compare(
                    labels_[static_cast<std::size_t>(entry.symbol)].data(),
                    escaped_label.data(), entry.length) == 0) {
                return entry.symbol;
            }
            slot = (slot + 1) & mask;
        }
    }
    for (std::size_t i = 0; i < labels_.size(); ++i) {
        if (labels_[i] == escaped_label) {
            return static_cast<int>(i);
        }
    }
    return other_symbol();
}

int Alphabet::index_symbol(std::uint64_t index) const noexcept
{
    // First interval with lo > index; the candidate is its predecessor.
    auto after = std::upper_bound(intervals_.begin(), intervals_.end(), index,
                                  [](std::uint64_t value, const IndexInterval& iv) {
                                      return value < iv.lo;
                                  });
    if (after == intervals_.begin()) {
        return other_symbol();
    }
    const IndexInterval& candidate = *std::prev(after);
    if (!candidate.contains(index)) {
        return other_symbol();
    }
    return num_labels() +
           static_cast<int>(std::prev(after) - intervals_.begin());
}

std::vector<int> Alphabet::symbols_in_range(std::uint64_t lo,
                                            std::uint64_t hi) const
{
    std::vector<int> symbols;
    for (std::size_t i = 0; i < intervals_.size(); ++i) {
        const IndexInterval& iv = intervals_[i];
        if (iv.lo >= lo && iv.lo < hi) {
            symbols.push_back(num_labels() + static_cast<int>(i));
        }
    }
    return symbols;
}

Nfa Nfa::from_query(const query::Query& query)
{
    if (query.size() > 63) {
        throw LimitError("queries are limited to 63 selectors");
    }
    Nfa nfa;
    nfa.alphabet_ = Alphabet::from_query(query);
    nfa.states_.resize(query.size() + 1);
    const auto& selectors = query.selectors();
    // Selector k (1-based among non-root selectors) configures the advance
    // arc out of state k-1.
    for (std::size_t k = 1; k < selectors.size(); ++k) {
        const query::Selector& selector = selectors[k];
        NfaState& state = nfa.states_[k - 1];
        switch (selector.kind) {
            case query::SelectorKind::kChild:
                state.advance_symbols.push_back(
                    nfa.alphabet_.label_symbol(selector.label_escaped));
                break;
            case query::SelectorKind::kChildWildcard:
                state.wildcard_advance = true;
                break;
            case query::SelectorKind::kChildIndex:
                state.advance_symbols.push_back(
                    nfa.alphabet_.index_symbol(selector.index));
                break;
            case query::SelectorKind::kChildSlice:
                // An empty slice contributes no symbols: the guard is
                // unsatisfiable and the state can never advance.
                state.advance_symbols = nfa.alphabet_.symbols_in_range(
                    selector.slice_lo, selector.slice_hi);
                break;
            case query::SelectorKind::kChildUnion:
                for (const query::LabelRef& member : selector.union_members) {
                    state.advance_symbols.push_back(
                        nfa.alphabet_.label_symbol(member.escaped));
                }
                break;
            case query::SelectorKind::kChildFilter:
                // The path guard of a filter is a wildcard; the predicate
                // runs over the candidate span at report time.
                state.wildcard_advance = true;
                break;
            case query::SelectorKind::kDescendant:
                state.recursive = true;
                state.advance_symbols.push_back(
                    nfa.alphabet_.label_symbol(selector.label_escaped));
                break;
            case query::SelectorKind::kDescendantWildcard:
                state.recursive = true;
                state.wildcard_advance = true;
                break;
            case query::SelectorKind::kRoot:
                break;
        }
        std::sort(state.advance_symbols.begin(), state.advance_symbols.end());
    }
    return nfa;
}

bool Nfa::advances_on(int i, int symbol) const
{
    const NfaState& state = states_[static_cast<std::size_t>(i)];
    if (i == accepting_state()) {
        return false;
    }
    if (state.wildcard_advance) {
        return true;
    }
    return std::binary_search(state.advance_symbols.begin(),
                              state.advance_symbols.end(), symbol);
}

}  // namespace descend::automaton
