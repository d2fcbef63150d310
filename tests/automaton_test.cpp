/**
 * @file
 * Query automaton tests: NFA construction, determinization, minimization
 * (the Figure 1 / Figure 2 automata), the exponential-blowup family, and
 * every state-property definition of Section 3.3.
 */
#include <gtest/gtest.h>

#include <set>

#include "descend/automaton/compiled.h"
#include "descend/workloads/builder.h"
#include "descend/workloads/random_json.h"
#include "descend/util/errors.h"

namespace descend::automaton {
namespace {

CompiledQuery compile(const char* text)
{
    return CompiledQuery::compile(text);
}

/** Number of non-rejecting states of a compiled query's DFA. */
int live_states(const CompiledQuery& cq)
{
    int live = 0;
    for (int s = 0; s < cq.dfa().num_states(); ++s) {
        if (!cq.flags(s).rejecting) {
            ++live;
        }
    }
    return live;
}

int count_rejecting(const CompiledQuery& cq)
{
    return cq.dfa().num_states() - live_states(cq);
}

TEST(Nfa, StructureFollowsSelectors)
{
    auto query = query::Query::parse("$.a..b.*");
    Nfa nfa = Nfa::from_query(query);
    ASSERT_EQ(nfa.num_states(), 4);
    EXPECT_FALSE(nfa.state(0).recursive);
    EXPECT_TRUE(nfa.state(1).recursive);
    EXPECT_FALSE(nfa.state(2).recursive);
    EXPECT_TRUE(nfa.state(2).wildcard_advance);

    const Alphabet& alphabet = nfa.alphabet();
    EXPECT_EQ(alphabet.num_labels(), 2);
    int a = alphabet.label_symbol("a");
    int b = alphabet.label_symbol("b");
    EXPECT_TRUE(nfa.advances_on(0, a));
    EXPECT_FALSE(nfa.advances_on(0, b));
    EXPECT_FALSE(nfa.advances_on(0, alphabet.other_symbol()));
    EXPECT_TRUE(nfa.advances_on(1, b));
    EXPECT_TRUE(nfa.advances_on(2, alphabet.other_symbol()));
    EXPECT_FALSE(nfa.advances_on(3, b));  // accepting state has no advance
}

TEST(Nfa, RejectsOversizedQueries)
{
    std::string text = "$";
    for (int i = 0; i < 64; ++i) {
        text += ".a";
    }
    EXPECT_THROW(Nfa::from_query(query::Query::parse(text)), LimitError);
}

TEST(Alphabet, InterningAndLookup)
{
    auto cq = compile("$.a..b[3].a[7]");
    const Alphabet& alphabet = cq.alphabet();
    EXPECT_EQ(alphabet.num_labels(), 2);   // a, b (deduplicated)
    EXPECT_EQ(alphabet.num_indices(), 2);  // 3, 7
    EXPECT_EQ(alphabet.total_symbols(), 5);
    EXPECT_EQ(alphabet.label_symbol("a"), 0);
    EXPECT_EQ(alphabet.label_symbol("b"), 1);
    EXPECT_EQ(alphabet.label_symbol("zzz"), alphabet.other_symbol());
    EXPECT_TRUE(alphabet.symbol_is_index(alphabet.index_symbol(3)));
    EXPECT_EQ(alphabet.index_symbol(99), alphabet.other_symbol());
    EXPECT_EQ(alphabet.index(alphabet.index_symbol(7)), 7u);
}

/** The reference lookup: a linear scan of the interned labels. */
int scan_label(const Alphabet& alphabet, std::string_view label)
{
    const std::vector<std::string>& labels = alphabet.labels();
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] == label) {
            return static_cast<int>(i);
        }
    }
    return alphabet.other_symbol();
}

TEST(Alphabet, LabelTableAgreesWithLinearScan)
{
    // A union alphabet big enough for the flat label table. Its labels
    // sit on the word boundaries of the hash (lengths 0, 1, 7, 8, 9, 15,
    // 16, 17), come in families that share their length and their first
    // and last 8 bytes and differ only in the middle, and include escaped
    // (\" \\ é) and raw multi-byte UTF-8 forms.
    std::vector<std::string> texts = {
        "$['']", "$.a", "$.abcdefg", "$.abcdefgh", "$.abcdefghi",
        "$.abcdefghijklmno", "$.abcdefghijklmnop", "$.abcdefghijklmnopq",
        R"($['he said \"hi\"'])", R"($['a\\b'])", R"($['café'])",
        R"($['na\u00efve'])",
        "$['\xC3\xBC\xE2\x82\xAC-raw']", "$['\\uD83D\\uDE00']",
    };
    for (char middle = 'a'; middle <= 'p'; ++middle) {
        texts.push_back(std::string("$.HEADWORD") + middle + "TAILWORD");
        texts.push_back(std::string("$.HEADWORDmid") + middle + "dleTAILWORD");
    }
    std::vector<query::Query> queries;
    for (const std::string& text : texts) {
        queries.push_back(query::Query::parse(text));
    }
    Alphabet alphabet = Alphabet::from_queries(queries);
    ASSERT_GE(alphabet.num_labels(), 8);

    std::vector<std::string> probes = alphabet.labels();
    for (const std::string& label : alphabet.labels()) {
        // Absent neighbours: every prefix, one byte longer, and every
        // single-byte change — about 1600 probes. At this table's load
        // (46 labels in 256 slots) about 18% of them start on an
        // occupied slot; each must still resolve to OTHER.
        for (std::size_t n = 0; n < label.size(); ++n) {
            probes.push_back(label.substr(0, n));
            std::string changed = label;
            changed[n] = static_cast<char>(changed[n] ^ 0x20);
            probes.push_back(changed);
        }
        probes.push_back(label + "x");
    }
    probes.push_back(R"(he said "hi")");  // the unescaped text is not the form
    probes.push_back("caf\\u00e9");       // nor an escape the parser decoded
    for (const std::string& probe : probes) {
        EXPECT_EQ(alphabet.label_symbol(probe), scan_label(alphabet, probe))
            << "probe '" << probe << "'";
    }
    EXPECT_NE(alphabet.label_symbol("caf\xC3\xA9"), alphabet.other_symbol());
    EXPECT_EQ(alphabet.label_symbol("HEADWORDzTAILWORD"), alphabet.other_symbol());

    // Smaller alphabets, on both sides of the table's size threshold and
    // down to no label at all, must agree as well.
    for (std::size_t k = 0; k <= 8; ++k) {
        Alphabet small = Alphabet::from_queries(std::vector<query::Query>(
            queries.begin(), queries.begin() + static_cast<std::ptrdiff_t>(k)));
        for (const std::string& probe : probes) {
            EXPECT_EQ(small.label_symbol(probe), scan_label(small, probe))
                << k << " labels, probe '" << probe << "'";
        }
    }
    Alphabet unbuilt;
    EXPECT_EQ(unbuilt.label_symbol("a"), unbuilt.other_symbol());
}

TEST(Dfa, Figure1ChainAutomaton)
{
    // $.a.b.*.c.* — Figure 1: a 6-state chain plus the trash state.
    auto cq = compile("$.a.b.*.c.*");
    EXPECT_EQ(live_states(cq), 6);
    EXPECT_EQ(count_rejecting(cq), 1);

    const Dfa& dfa = cq.dfa();
    const Alphabet& alphabet = dfa.alphabet();
    int a = alphabet.label_symbol("a");
    int b = alphabet.label_symbol("b");
    int c = alphabet.label_symbol("c");
    int other = alphabet.other_symbol();

    int s0 = dfa.initial_state();
    int s1 = dfa.transition(s0, a);
    EXPECT_TRUE(cq.flags(dfa.transition(s0, b)).rejecting);
    EXPECT_TRUE(cq.flags(dfa.transition(s0, other)).rejecting);
    int s2 = dfa.transition(s1, b);
    int s3 = dfa.transition(s2, other);  // wildcard: anything advances
    EXPECT_EQ(dfa.transition(s2, a), s3);
    int s4 = dfa.transition(s3, c);
    EXPECT_TRUE(cq.flags(dfa.transition(s3, other)).rejecting);
    int s5 = dfa.transition(s4, other);
    EXPECT_TRUE(cq.flags(s5).accepting);
    // From the accepting state everything rejects (end of query).
    EXPECT_TRUE(cq.flags(dfa.transition(s5, a)).rejecting);
    std::set<int> distinct{s0, s1, s2, s3, s4, s5};
    EXPECT_EQ(distinct.size(), 6u);
}

TEST(Dfa, Figure2DescendantAutomaton)
{
    // $.a..b.*..c.* — Figure 2 (bottom): the minimal DFA has segments for
    // $.a, ..b.*, ..c.*.
    auto cq = compile("$.a..b.*..c.*");
    const Dfa& dfa = cq.dfa();
    const Alphabet& alphabet = dfa.alphabet();
    int a = alphabet.label_symbol("a");
    int b = alphabet.label_symbol("b");
    int c = alphabet.label_symbol("c");
    int other = alphabet.other_symbol();

    int s0 = dfa.initial_state();
    // Initial segment is deterministic: fallback rejects.
    EXPECT_TRUE(cq.flags(dfa.fallback(s0)).rejecting);
    int s1 = dfa.transition(s0, a);
    EXPECT_FALSE(cq.flags(s1).rejecting);
    // s1 is the entry of the ..b segment: fallback loops.
    EXPECT_EQ(dfa.fallback(s1), s1);
    EXPECT_TRUE(cq.flags(s1).waiting);
    int s2 = dfa.transition(s1, b);
    EXPECT_NE(s2, s1);
    // After b, the wildcard advances into the ..c segment on anything.
    int s3 = dfa.transition(s2, other);
    EXPECT_FALSE(cq.flags(s3).rejecting);
    // Within the ..c segment, finding c then anything accepts.
    int s4 = dfa.transition(s3, c);
    int s5 = dfa.transition(s4, other);
    EXPECT_TRUE(cq.flags(s5).accepting);
    // Figure 2's DFA: the accepting state still tracks the c-segment (the
    // query can keep matching deeper); nothing rejects after the first
    // descendant.
    for (int s = 0; s < dfa.num_states(); ++s) {
        if (cq.flags(s).rejecting) {
            // Only reachable from the first segment.
            EXPECT_TRUE(cq.flags(dfa.transition(s, a)).rejecting);
        }
    }
}

TEST(Dfa, NodeSemanticsLanguage)
{
    // The DFA for $..a..b accepts any label path containing a then b.
    auto cq = compile("$..a..b");
    const Dfa& dfa = cq.dfa();
    const Alphabet& alphabet = dfa.alphabet();
    auto run = [&](std::initializer_list<const char*> labels) {
        int state = dfa.initial_state();
        for (const char* label : labels) {
            state = dfa.transition(state, alphabet.label_symbol(label));
        }
        return dfa.accepting(state);
    };
    EXPECT_TRUE(run({"a", "b"}));
    EXPECT_TRUE(run({"x", "a", "y", "b"}));
    EXPECT_TRUE(run({"a", "a", "b", "b"}));
    EXPECT_FALSE(run({"b", "a"}));
    EXPECT_FALSE(run({"a"}));
    EXPECT_FALSE(run({}));
    EXPECT_TRUE(run({"a", "b", "x"}) == false);  // must end at b
}

TEST(Dfa, ExponentialBlowupFamily)
{
    // $..a.*.*...* reconstructs the classical NFA->DFA blowup (Sec. 3.1).
    std::vector<int> sizes;
    for (int wildcards = 1; wildcards <= 6; ++wildcards) {
        std::string text = "$..a";
        for (int w = 0; w < wildcards; ++w) {
            text += ".*";
        }
        sizes.push_back(compile(text.c_str()).dfa().num_states());
    }
    for (std::size_t i = 1; i < sizes.size(); ++i) {
        EXPECT_GE(sizes[i], 2 * sizes[i - 1] - 2) << "at " << i;
    }
    EXPECT_GE(sizes.back(), 1 << 6);
}

TEST(Dfa, StateLimitGuard)
{
    std::string text = "$..a";
    for (int w = 0; w < 20; ++w) {
        text += ".*";
    }
    EXPECT_THROW(compile(text.c_str()), LimitError);
}

TEST(Dfa, MinimizationMergesEquivalentStates)
{
    // Without minimization, subset construction of $..a..a..a produces
    // subsets {0},{0,1},{0,1,2},{0,1,2,3}; all are distinguishable here,
    // but $..a.* style queries produce mergeable states. Sanity: minimized
    // never larger than raw determinization.
    for (const char* text : {"$..a..a", "$..a.*..a", "$.a.b", "$..x.y..z"}) {
        auto query = query::Query::parse(text);
        Dfa raw = Dfa::determinize(Nfa::from_query(query));
        Dfa minimal = raw.minimized();
        EXPECT_LE(minimal.num_states(), raw.num_states()) << text;
        EXPECT_EQ(minimal.alphabet().total_symbols(), raw.alphabet().total_symbols());
    }
}

TEST(StateFlags, AcceptingAndRejecting)
{
    auto cq = compile("$.a");
    int s0 = cq.initial_state();
    const Alphabet& alphabet = cq.alphabet();
    int s1 = cq.transition(s0, alphabet.label_symbol("a"));
    EXPECT_FALSE(cq.flags(s0).accepting);
    EXPECT_TRUE(cq.flags(s1).accepting);
    EXPECT_FALSE(cq.flags(s1).rejecting);
    EXPECT_TRUE(cq.flags(cq.fallback(s0)).rejecting);
    EXPECT_TRUE(cq.flags(cq.fallback(s1)).rejecting);
}

TEST(StateFlags, InternalStates)
{
    // $.a.b: the initial state cannot accept in one step (internal); the
    // state after a can (b accepts).
    auto cq = compile("$.a.b");
    int s0 = cq.initial_state();
    int s1 = cq.transition(s0, cq.alphabet().label_symbol("a"));
    EXPECT_TRUE(cq.flags(s0).internal);
    EXPECT_FALSE(cq.flags(s1).internal);
    EXPECT_FALSE(cq.flags(s0).colon_toggle);
    EXPECT_TRUE(cq.flags(s1).colon_toggle);
}

TEST(StateFlags, UnitaryStates)
{
    // States before the first descendant with non-wildcard selectors are
    // unitary (single live label, fallback to trash).
    auto cq = compile("$.a.b");
    int s0 = cq.initial_state();
    int s1 = cq.transition(s0, cq.alphabet().label_symbol("a"));
    EXPECT_TRUE(cq.flags(s0).unitary);
    EXPECT_TRUE(cq.flags(s1).unitary);
    // Wildcard states are not unitary.
    auto wild = compile("$.*.b");
    EXPECT_FALSE(wild.flags(wild.initial_state()).unitary);
    // Recursive states are not unitary (fallback loops, not trash).
    auto desc = compile("$..a");
    EXPECT_FALSE(desc.flags(desc.initial_state()).unitary);
}

TEST(StateFlags, WaitingStates)
{
    // $..a: initial state waits for a (fallback self-loop).
    auto cq = compile("$..a");
    EXPECT_TRUE(cq.flags(cq.initial_state()).waiting);
    ASSERT_TRUE(cq.head_skip_label().has_value());
    EXPECT_EQ(*cq.head_skip_label(), "a");

    // $.a..b: initial is unitary, not waiting; no head-skip.
    auto mixed = compile("$.a..b");
    EXPECT_FALSE(mixed.flags(mixed.initial_state()).waiting);
    EXPECT_FALSE(mixed.head_skip_label().has_value());
    // ...but the state after a waits for b.
    int s1 = mixed.transition(mixed.initial_state(),
                              mixed.alphabet().label_symbol("a"));
    EXPECT_TRUE(mixed.flags(s1).waiting);

    // $..a..b: initial waits for a; head-skip applies.
    auto chain = compile("$..a..b");
    EXPECT_TRUE(chain.flags(chain.initial_state()).waiting);
    EXPECT_EQ(*chain.head_skip_label(), "a");

    // $..* is not waiting (no concrete label).
    auto wild = compile("$..*");
    EXPECT_FALSE(wild.flags(wild.initial_state()).waiting);
    EXPECT_FALSE(wild.head_skip_label().has_value());
}

TEST(StateFlags, CommaToggle)
{
    // $.a.*: after a, an array entry can accept -> commas on.
    auto cq = compile("$.a.*");
    int s1 = cq.transition(cq.initial_state(), cq.alphabet().label_symbol("a"));
    EXPECT_TRUE(cq.flags(s1).comma_toggle);
    EXPECT_FALSE(cq.flags(cq.initial_state()).comma_toggle);

    // $..a: array entries never match a label selector -> commas off.
    auto desc = compile("$..a");
    EXPECT_FALSE(desc.flags(desc.initial_state()).comma_toggle);
    // $..*: everything matches -> commas on.
    auto wild = compile("$..*");
    EXPECT_TRUE(wild.flags(wild.initial_state()).comma_toggle);
}

TEST(StateFlags, IndexTransitions)
{
    auto cq = compile("$[2]");
    EXPECT_TRUE(cq.has_indices());
    const Alphabet& alphabet = cq.alphabet();
    int s0 = cq.initial_state();
    int target = cq.transition(s0, alphabet.index_symbol(2));
    EXPECT_TRUE(cq.flags(target).accepting);
    EXPECT_TRUE(cq.flags(cq.fallback(s0)).rejecting);
    // Index states are not unitary (their live transition is not a label).
    EXPECT_FALSE(cq.flags(s0).unitary);
    // The comma toggle must account for index transitions.
    EXPECT_TRUE(cq.flags(s0).comma_toggle);
}

TEST(Alphabet, IntervalPartitionOfIndexSpace)
{
    // $[2][1:4].a[6:]: selector bounds {1, 2, 3, 4, 6} partition the
    // covered index space into four cells — [1,2), [2,3), [3,4), [6,inf).
    // [4,6) is covered by no selector and gets NO symbol.
    auto cq = compile("$[2][1:4].a[6:]");
    const Alphabet& alphabet = cq.alphabet();
    EXPECT_EQ(alphabet.num_labels(), 1);
    EXPECT_EQ(alphabet.num_indices(), 4);
    EXPECT_EQ(alphabet.index_symbol(4), alphabet.other_symbol());
    EXPECT_EQ(alphabet.index_symbol(5), alphabet.other_symbol());
    // The open tail is one cell: 6 and 100 share a symbol.
    EXPECT_EQ(alphabet.index_symbol(6), alphabet.index_symbol(100));
    EXPECT_NE(alphabet.index_symbol(6), alphabet.other_symbol());
    // A slice guard is exactly a run of whole cells.
    EXPECT_EQ(alphabet.symbols_in_range(1, 4).size(), 3u);
    EXPECT_EQ(alphabet.symbols_in_range(1, 4),
              (std::vector<int>{alphabet.index_symbol(1),
                                alphabet.index_symbol(2),
                                alphabet.index_symbol(3)}));
    // Representative index round-trips through the cell.
    EXPECT_EQ(alphabet.index(alphabet.index_symbol(2)), 2u);
    EXPECT_TRUE(alphabet.interval(alphabet.index_symbol(6)).contains(1u << 20));
}

TEST(StateFlags, SliceTransitions)
{
    // $[1:3]: a single slice interns ONE cell [1,3); entries 1 and 2 map
    // to the same symbol and the same accepting successor.
    auto cq = compile("$[1:3]");
    EXPECT_TRUE(cq.has_indices());
    const Alphabet& alphabet = cq.alphabet();
    EXPECT_EQ(alphabet.num_indices(), 1);
    EXPECT_EQ(alphabet.index_symbol(1), alphabet.index_symbol(2));
    int s0 = cq.initial_state();
    EXPECT_TRUE(cq.flags(cq.transition(s0, alphabet.index_symbol(1))).accepting);
    EXPECT_TRUE(cq.flags(cq.fallback(s0)).rejecting);
    EXPECT_TRUE(cq.flags(s0).comma_toggle);
}

TEST(Dfa, EmptySliceIsUnsatisfiable)
{
    // $[5:2] parses but covers nothing: no index cells, and the automaton's
    // language is empty (the initial state is already rejecting after
    // minimization folds the dead chain).
    auto cq = compile("$[5:2]");
    EXPECT_EQ(cq.alphabet().num_indices(), 0);
    EXPECT_TRUE(cq.flags(cq.initial_state()).rejecting);
}

TEST(Dfa, UnionMembersShareTheSuccessorState)
{
    // $['a','b'].c: both member labels are multi-label edges into ONE
    // successor — the union does not duplicate the suffix automaton.
    auto cq = compile("$['a','b'].c");
    const Alphabet& alphabet = cq.alphabet();
    int s0 = cq.initial_state();
    int via_a = cq.transition(s0, alphabet.label_symbol("a"));
    int via_b = cq.transition(s0, alphabet.label_symbol("b"));
    EXPECT_EQ(via_a, via_b);
    EXPECT_FALSE(cq.flags(via_a).rejecting);
    EXPECT_TRUE(
        cq.flags(cq.transition(via_a, alphabet.label_symbol("c"))).accepting);
    EXPECT_TRUE(cq.flags(cq.fallback(s0)).rejecting);
}

TEST(Dfa, FilterArcIsWildcardAtTheAutomatonLevel)
{
    // $.a[?(@.x>1)]: the filter guard is report-time; the automaton sees a
    // wildcard arc, and the predicate survives compilation for the engine.
    auto cq = compile("$.a[?(@.x>1)]");
    ASSERT_NE(cq.filter(), nullptr);
    const Alphabet& alphabet = cq.alphabet();
    int s1 = cq.transition(cq.initial_state(), alphabet.label_symbol("a"));
    EXPECT_TRUE(cq.flags(cq.transition(s1, alphabet.other_symbol())).accepting);
    EXPECT_TRUE(cq.flags(s1).comma_toggle);
    // Filter-free queries expose no predicate.
    EXPECT_EQ(compile("$.a.b").filter(), nullptr);
}

/** Language equivalence of raw and minimized DFAs on random label paths,
 *  and agreement with a direct NFA subset simulation — for random queries. */
TEST(Dfa, MinimizationPreservesLanguageOnRandomQueries)
{
    workloads::Rng rng(0x5eed);
    for (int trial = 0; trial < 120; ++trial) {
        std::string text = workloads::random_query(
            static_cast<std::uint64_t>(trial) + 1, 4, 6, /*allow_indices=*/true,
            /*extended_selectors=*/trial % 2 == 1);
        auto parsed = query::Query::parse(text);
        Nfa nfa = Nfa::from_query(parsed);
        Dfa raw = Dfa::determinize(nfa);
        Dfa minimal = raw.minimized();
        const Alphabet& alphabet = raw.alphabet();

        for (int path = 0; path < 40; ++path) {
            int raw_state = raw.initial_state();
            int min_state = minimal.initial_state();
            std::uint64_t nfa_set = 1;  // direct subset simulation
            std::uint64_t steps = rng.between(0, 8);
            for (std::uint64_t s = 0; s < steps; ++s) {
                int symbol = static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(alphabet.total_symbols())));
                raw_state = raw.transition(raw_state, symbol);
                min_state = minimal.transition(min_state, symbol);
                std::uint64_t next = 0;
                for (int i = 0; i < nfa.num_states(); ++i) {
                    if (!(nfa_set >> i & 1)) {
                        continue;
                    }
                    if (nfa.state(i).recursive) {
                        next |= 1ULL << i;
                    }
                    if (nfa.advances_on(i, symbol)) {
                        next |= 1ULL << (i + 1);
                    }
                }
                nfa_set = next;
            }
            bool nfa_accepts = (nfa_set >> nfa.accepting_state()) & 1;
            ASSERT_EQ(raw.accepting(raw_state), nfa_accepts)
                << text << " trial " << trial;
            ASSERT_EQ(minimal.accepting(min_state), nfa_accepts)
                << text << " trial " << trial;
        }
    }
}

/** Row classes: states in one class must have identical transition rows. */
TEST(Dfa, RowClassesAreConsistent)
{
    for (const char* text : {"$..a..b", "$..a.b", "$.a.*..b", "$..a", "$..*.x"}) {
        auto cq = compile(text);
        const Dfa& dfa = cq.dfa();
        for (int s = 0; s < dfa.num_states(); ++s) {
            for (int t = 0; t < dfa.num_states(); ++t) {
                if (cq.row_class(s) != cq.row_class(t)) {
                    continue;
                }
                for (int symbol = 0; symbol < dfa.total_symbols(); ++symbol) {
                    ASSERT_EQ(dfa.transition(s, symbol), dfa.transition(t, symbol))
                        << text << " states " << s << "," << t;
                }
            }
        }
    }
}

TEST(StateFlags, WaitingSymbolLookup)
{
    auto cq = compile("$..bravo.x");
    int initial = cq.initial_state();
    ASSERT_TRUE(cq.flags(initial).waiting);
    int symbol = cq.waiting_symbol(initial);
    ASSERT_GE(symbol, 0);
    EXPECT_EQ(cq.alphabet().label(symbol), "bravo");
    // Non-waiting states answer -1.
    int after = cq.transition(initial, symbol);
    EXPECT_FALSE(cq.flags(after).waiting);
    EXPECT_EQ(cq.waiting_symbol(after), -1);
}

TEST(StateFlags, RootAccepting)
{
    EXPECT_TRUE(compile("$").root_accepting());
    EXPECT_FALSE(compile("$.a").root_accepting());
    EXPECT_FALSE(compile("$..a").root_accepting());
}

}  // namespace
}  // namespace descend::automaton
