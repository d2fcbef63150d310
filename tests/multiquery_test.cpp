/**
 * @file
 * Fused multi-query execution: the fused engine's per-query match sets
 * must be bit-identical to N independent single-query runs — for every
 * engine configuration, including query mixes that disagree about the
 * skippability of a subtree (one query's irrelevant region is another's
 * match territory). Every parity check runs two legs: the whole set as
 * one product automaton, and the set split into parts by a small state
 * cap (the path sets past the default cap take). The suite is registered
 * in DESCEND_TIERED_TESTS, so ctest re-runs it with every dispatch tier
 * forced via DESCEND_SIMD_LEVEL. EngineParity pins that a one-query fused
 * run and DescendEngine, the two instantiations of one depth-stack loop,
 * decide identically down to the obs counters.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/catalog.h"
#include "descend/multi/fused.h"
#include "descend/multi/multi_stream.h"
#include "descend/util/errors.h"
#include "descend/workloads/datasets.h"
#include "test_helpers.h"

namespace descend {
namespace {

using multi::CollectingMultiSink;
using multi::CollectingMultiStreamSink;
using multi::CountingMultiSink;
using multi::CountingMultiStreamSink;
using multi::FusedEngine;
using multi::MultiQuery;
using multi::MultiStreamExecutor;
using multi::QuerySetCompiler;
using testing::describe;
using testing::engine_configurations;
using testing::fused_legs;
using testing::leg_label;

/** N independent single-query runs with the same options — the oracle. */
std::vector<std::vector<std::size_t>> independent_offsets(
    const std::vector<std::string>& queries, const PaddedString& document,
    const EngineOptions& options)
{
    std::vector<std::vector<std::size_t>> all;
    for (const std::string& text : queries) {
        DescendEngine engine(automaton::CompiledQuery::compile(text), options);
        OffsetSink sink;
        EXPECT_EQ(engine.run(document, sink), EngineStatus{})
            << "independent run failed: " << text;
        all.push_back(sink.offsets());
    }
    return all;
}

/** Fused == N independent, for every engine configuration and leg. */
void expect_fused_matches_independent(const std::vector<std::string>& queries,
                                      const std::string& document)
{
    PaddedString padded(document);
    for (const EngineOptions& options : engine_configurations()) {
        SCOPED_TRACE("configuration: " + describe(options));
        std::vector<std::vector<std::size_t>> expected =
            independent_offsets(queries, padded, options);
        for (const auto& fused : fused_legs(queries, options)) {
            SCOPED_TRACE(leg_label(*fused));
            CollectingMultiSink sink(queries.size());
            ASSERT_EQ(fused->run(padded, sink), EngineStatus{});
            for (std::size_t q = 0; q < queries.size(); ++q) {
                EXPECT_EQ(sink.offsets(q), expected[q])
                    << "query: " << queries[q];
            }
        }
    }
}

// ------------------------------------------------------------- compilation

TEST(MultiQueryCompile, SharedAlphabet)
{
    MultiQuery set = MultiQuery::compile(
        std::vector<std::string>{"$.a.b", "$..b", "$.c.*"});
    EXPECT_EQ(set.size(), 3u);
    // The union alphabet knows every label the set mentions.
    for (const char* label : {"a", "b", "c"}) {
        EXPECT_NE(set.alphabet().label_symbol(label),
                  set.alphabet().other_symbol())
            << label;
    }
    EXPECT_EQ(set.alphabet().label_symbol("zzz"), set.alphabet().other_symbol());
    EXPECT_FALSE(set.any_counting());
    EXPECT_FALSE(set.all_root_accepting());
}

TEST(MultiQueryCompile, EmptySetIsAnError)
{
    EXPECT_ANY_THROW(MultiQuery::compile(std::vector<std::string>{}));
}

TEST(ProductAutomaton, CommonHeadSkipLabelRequiresUnanimity)
{
    auto head_label = [](std::vector<std::string> queries) {
        return QuerySetCompiler::compile(MultiQuery::compile(queries))
            .head_skip_label();
    };
    std::optional<std::string> same = head_label({"$..name", "$..name.first"});
    ASSERT_TRUE(same.has_value());
    EXPECT_EQ(*same, "name");

    // Differing head labels — or a query that cannot head-skip at all —
    // forfeit the label-search pipeline for the whole set.
    EXPECT_FALSE(head_label({"$..name", "$..title"}).has_value());
    EXPECT_FALSE(head_label({"$..name", "$.a.b"}).has_value());
}

// ------------------------------------------------------------------ dedup

TEST(MultiQueryCompile, DuplicateQueriesShareOneDistinctSlot)
{
    // A 100x-duplicated two-query set: compilation and execution cost are
    // per DISTINCT query; every duplicate subscription keeps its input
    // index as an owner of the shared slot.
    std::vector<std::string> queries;
    for (int i = 0; i < 100; ++i) {
        queries.push_back("$..id");
        queries.push_back("$.meta.id");
    }
    MultiQuery set = MultiQuery::compile(queries);
    EXPECT_EQ(set.size(), 200u);
    ASSERT_EQ(set.num_distinct(), 2u);
    EXPECT_EQ(set.owners(0).size(), 100u);
    EXPECT_EQ(set.owners(1).size(), 100u);
    for (std::size_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(set.distinct_index(i), i % 2);
    }
    // Spelling variants canonicalize to the same distinct query.
    MultiQuery spelled = MultiQuery::compile(
        std::vector<std::string>{"$.a.b", "$['a']['b']", "$..c"});
    EXPECT_EQ(spelled.num_distinct(), 2u);
    EXPECT_EQ(spelled.distinct_index(0), spelled.distinct_index(1));
}

TEST(MultiEngine, HundredFoldDuplicatedSetReplicatesResults)
{
    std::string document =
        R"({"meta": {"id": 1}, "rows": [{"id": 2}, {"nested": {"id": 3}}]})";
    std::vector<std::string> queries;
    for (int i = 0; i < 100; ++i) {
        queries.push_back("$..id");
        queries.push_back("$.meta.id");
    }
    PaddedString padded(document);
    std::vector<std::vector<std::size_t>> expected = independent_offsets(
        {"$..id", "$.meta.id"}, padded, EngineOptions{});
    for (const auto& fused : fused_legs(queries)) {
        SCOPED_TRACE(leg_label(*fused));
        CollectingMultiSink sink(queries.size());
        ASSERT_EQ(fused->run(padded, sink), EngineStatus{});
        for (std::size_t q = 0; q < queries.size(); ++q) {
            EXPECT_EQ(sink.offsets(q), expected[q % 2]) << "query " << q;
        }
    }
}

TEST(MultiEngine, DuplicatesTripTheMatchLimitLikeTheOriginal)
{
    // The per-query limit counts matches of the DISTINCT query once, so a
    // duplicated subscription trips at the same offset as a lone one.
    std::string document = R"({"a": 1, "b": {"a": 2}, "c": {"a": 3}})";
    PaddedString padded(document);
    EngineOptions options;
    options.limits.max_match_count = 2;
    DescendEngine single(automaton::CompiledQuery::compile("$..a"), options);
    OffsetSink single_sink;
    EngineStatus expected = single.run(padded, single_sink);
    ASSERT_EQ(expected.code, StatusCode::kMatchLimit);
    std::unique_ptr<FusedEngine> fused = multi::make_fused_engine(
        std::vector<std::string>{"$..a", "$..a", "$..a"}, options);
    CollectingMultiSink sink(3);
    EXPECT_EQ(fused->run(padded, sink), expected);
}

// -------------------------------------------------------- product automaton

TEST(ProductAutomaton, SharedPrefixCollapsesToOneStatePath)
{
    // 32 subscriptions down the same object spine: the product trie shares
    // the spine, so states grow as prefix + one leaf per subscription —
    // nowhere near 32 independent four-state automata.
    std::vector<std::string> queries;
    for (int i = 0; i < 32; ++i) {
        queries.push_back("$.a.b.c.f" + std::to_string(i));
    }
    FusedEngine engine(MultiQuery::compile(queries));
    ASSERT_EQ(engine.parts().size(), 1u);
    EXPECT_GE(engine.parts()[0].num_states(), 32);
    EXPECT_LE(engine.parts()[0].num_states(), 40);
}

TEST(ProductAutomaton, StateCapSplitsTheSetAndRefusesASingleQuery)
{
    MultiQuery set = MultiQuery::compile(
        std::vector<std::string>{"$..a..b", "$.c.*.d"});
    EXPECT_THROW(QuerySetCompiler::compile(set, 2), LimitError);
    // A cap the whole set misses but each query meets: one part per query.
    const int cap = testing::split_state_cap(set);
    EXPECT_THROW(QuerySetCompiler::compile(set, cap), LimitError);
    FusedEngine split(set, EngineOptions{}, cap);
    ASSERT_EQ(split.parts().size(), 2u);
    EXPECT_EQ(split.name().rfind("descend-product-", 0), 0u) << split.name();
    // A single query past the cap cannot be split any further.
    EXPECT_THROW(FusedEngine(set, EngineOptions{}, 2), LimitError);
    EXPECT_EQ(FusedEngine(set).parts().size(), 1u);
}

/**
 * transition() against a reference linear scan of the state's exception
 * list, for every state of every part and every symbol of the set's
 * alphabet (labels, index intervals, OTHER). Returns the longest
 * exception list seen.
 */
std::size_t expect_transitions_match_scan(const std::vector<std::string>& queries)
{
    MultiQuery set = MultiQuery::compile(queries);
    const int symbols = set.alphabet().total_symbols();
    std::size_t longest = 0;
    for (const multi::ProductAutomaton& pa : QuerySetCompiler::compile_parts(set)) {
        for (int state = 0; state < pa.num_states(); ++state) {
            std::vector<multi::ProductAutomaton::Exception> list =
                pa.exceptions(state);
            longest = std::max(longest, list.size());
            for (std::size_t i = 1; i < list.size(); ++i) {
                if (list[i - 1].symbol >= list[i].symbol) {
                    ADD_FAILURE() << "unsorted exceptions at state " << state;
                    return longest;
                }
            }
            // The reference: the state's dense row, written from one
            // linear pass over its exception list.
            std::vector<int> row(static_cast<std::size_t>(symbols),
                                 pa.fallback(state));
            for (const multi::ProductAutomaton::Exception& e : list) {
                row[static_cast<std::size_t>(e.symbol)] = e.target;
            }
            for (int symbol = 0; symbol < symbols; ++symbol) {
                int expected = row[static_cast<std::size_t>(symbol)];
                if (pa.transition(state, symbol) != expected) {
                    ADD_FAILURE() << "state " << state << " symbol " << symbol
                                  << " of " << queries.size() << " queries: "
                                  << pa.transition(state, symbol) << " != "
                                  << expected;
                    return longest;
                }
            }
        }
    }
    return longest;
}

TEST(ProductAutomaton, TransitionsAgreeWithAnExceptionScan)
{
    // perfbench fanout's F1 set: 64 filter-free queries, shared-prefix
    // spines plus distinct descendant labels.
    const std::vector<std::string> f1 = {
        "$.categoryPath.*.id", "$.categoryPath.*.name", "$.sku", "$.name",
        "$.regularPrice", "$.videoChapters.*.chapter",
        "$.entities.urls.*.url", "$.entities.urls.*.expanded_url",
        "$.entities.hashtags.*.text", "$.user.screen_name", "$.user.name", "$.text",
        "$.routes.*.legs.*.steps.*.distance.text",
        "$.routes.*.legs.*.steps.*.duration.value",
        "$.routes.*.legs.*.distance.value", "$.routes.*.summary",
        "$.geocoded_waypoints.*.place_id",
        "$.author.*.affiliation.*.name", "$.author.*.given", "$.author.*.ORCID",
        "$.title.*", "$.DOI",
        "$.claims.*.*.mainsnak.property", "$.claims.*.*.mainsnak.datavalue.value.id",
        "$.labels.en.value", "$.descriptions.en.value",
        "$.bestMarketplacePrice.price", "$.salePrice", "$.msrp",
        "$.categories_tags.*", "$.product_name", "$.code",
        "$.inner.*.kind", "$.inner.*.type.qualType", "$.range.begin.offset",
        "$.search_metadata.count",
        "$..id", "$..url", "$..text", "$..value", "$..type", "$..rank",
        "$..qualType", "$..kind", "$..language", "$..property", "$..snaktype",
        "$..datatype", "$..display_url", "$..indices", "$..family", "$..sequence",
        "$..publisher", "$..member", "$..lat", "$..lng", "$..place_id",
        "$..geocoder_status", "$..upc", "$..itemId", "$..brands", "$..labels_tags",
        "$..offset", "$..col",
    };
    ASSERT_EQ(f1.size(), 64u);
    EXPECT_GT(expect_transitions_match_scan(f1), 8u);

    // Filters, slices, indices and unions: index-interval symbols sit
    // between the labels and OTHER.
    expect_transitions_match_scan({
        "$.categoryPath[0].id", "$.entities.urls[1:3].url",
        "$.routes[0].legs[0].steps[2:5].distance.value",
        "$['sku','upc','itemId']", "$.labels['en','de'].value",
        "$.author[?(@.ORCID)]", "$.claims.*[?(@.rank == 'normal')]",
        "$..a[2:]", "$..b[0:10].c", "$.x[7]", "$.x[3:9]", "$.x.*[?(@.y > 2)]",
    });

    // bench_multiquery --scale at N = 1024, both shapes: one spine state
    // with an exception per query, and 1024 descendant labels.
    std::vector<std::string> shared_prefix;
    std::vector<std::string> disjoint;
    for (int i = 0; i < 1024; ++i) {
        shared_prefix.push_back("$.products.*.tenantField" + std::to_string(i));
        disjoint.push_back("$..tenantField" + std::to_string(i));
    }
    EXPECT_GE(expect_transitions_match_scan(shared_prefix), 1024u);
    EXPECT_GE(expect_transitions_match_scan(disjoint), 1024u);
}

TEST(ProductAutomaton, SubscriberSetsFanOutToEveryOwner)
{
    // Two subscriptions accepting at the same node must both be reported,
    // interleaved with a third that accepts elsewhere.
    std::string document = R"({"a": {"b": 1, "c": 2}})";
    expect_fused_matches_independent({"$.a.b", "$..b", "$.a.c"}, document);
}

// ----------------------------------------------------------- single-pass

TEST(MultiEngine, FusedMatchesIndependentRuns)
{
    std::string document = R"({
      "a": {"b": 1, "c": {"b": 2}},
      "c": {"x": 3, "y": [4, 5]},
      "b": {"deep": {"b": 6}}
    })";
    expect_fused_matches_independent({"$.a.b", "$..b", "$.c.*", "$..c..b"},
                                     document);
}

TEST(MultiEngine, SingleQuerySetDegeneratesToTheEngine)
{
    std::string document = R"({"a": {"b": [1, {"b": 2}]}})";
    expect_fused_matches_independent({"$..b"}, document);
}

/** Every combination of the five skip flags (32 in all), on the tier the
 *  process selects. */
std::vector<EngineOptions> skip_flag_combinations()
{
    std::vector<EngineOptions> combinations;
    for (unsigned bits = 0; bits < 32; ++bits) {
        EngineOptions options;
        options.leaf_skipping = (bits & 1U) != 0;
        options.child_skipping = (bits & 2U) != 0;
        options.sibling_skipping = (bits & 4U) != 0;
        options.head_skipping = (bits & 8U) != 0;
        options.label_within_skipping = (bits & 16U) != 0;
        combinations.push_back(options);
    }
    return combinations;
}

/** @p document and three damaged copies: cut at a third and at two
 *  thirds, and with the first closer past the middle flipped to the
 *  other kind. */
std::vector<std::string> parity_documents(const std::string& document)
{
    std::vector<std::string> documents = {
        document, document.substr(0, document.size() / 3),
        document.substr(0, document.size() * 2 / 3)};
    std::string flipped = document;
    std::size_t closer = flipped.find_first_of("]}", flipped.size() / 2);
    if (closer != std::string::npos) {
        flipped[closer] = flipped[closer] == ']' ? '}' : ']';
    }
    documents.push_back(flipped);
    return documents;
}

// DescendEngine and a one-query FusedEngine run one depth-stack simulation
// (engine/depth_stack.h) over different automata and reporters; they must
// make the same decisions. Every paper query and every skip-flag
// combination, on a 64 KiB document of the query's dataset and damaged
// copies of it: same offsets, same status, and the same value of every
// counter the two runs share. The test runs on the tier the process
// selects; the tiered ctest entries cover the others.
TEST(EngineParity, OneQueryFusedRunDecidesLikeTheEngine)
{
    std::size_t runs = 0;
    for (const bench::QuerySpec& spec : bench::catalog()) {
        if (!spec.rewrite_of.empty()) {
            continue;  // the paper's 26 original queries
        }
        std::vector<std::string> documents =
            parity_documents(workloads::generate(spec.dataset, 64 * 1024));
        std::vector<PaddedString> padded(documents.begin(), documents.end());
        for (const EngineOptions& options : skip_flag_combinations()) {
            DescendEngine single(automaton::CompiledQuery::compile(spec.query),
                                 options);
            FusedEngine fused(MultiQuery::compile({spec.query}), options);
            for (std::size_t v = 0; v < padded.size(); ++v) {
                OffsetSink single_sink;
                CollectingMultiSink fused_sink(1);
                RunStats expected = single.run_with_stats(padded[v], single_sink);
                RunStats actual = fused.run_with_stats(padded[v], fused_sink);
                ++runs;
                std::string where = spec.id + " [" + describe(options) +
                                    "] document " + std::to_string(v);
                if (actual.status != expected.status) {
                    ADD_FAILURE() << where << ": status " << actual.status
                                  << " vs " << expected.status;
                }
                if (fused_sink.offsets(0) != single_sink.offsets()) {
                    ADD_FAILURE() << where << ": " << fused_sink.offsets(0).size()
                                  << " offsets vs "
                                  << single_sink.offsets().size();
                }
                if constexpr (obs::kEnabled) {
                    for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
                        auto id = static_cast<obs::Counter>(c);
                        if (id == obs::Counter::kProductStates ||
                            id == obs::Counter::kSubscriberFanout) {
                            continue;  // only a fused run has these
                        }
                        if (actual.counters.get(id) != expected.counters.get(id)) {
                            ADD_FAILURE() << where << ": counter "
                                          << obs::counter_name(id) << " "
                                          << actual.counters.get(id) << " vs "
                                          << expected.counters.get(id);
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(runs, 26U * 32U * 4U);
}

TEST(MultiEngine, SkippabilityDisagreeingDescendantMixes)
{
    // The subtree under "payload" is skippable for the child-path queries
    // (their automata are in trash there) but descendant queries must walk
    // it; conversely "meta" matches the child queries and is junk to the
    // descendant ones. Split into parts, each part takes the skips its own
    // queries allow — every fast-forward is exercised both ways.
    std::string document = R"({
      "meta": {"id": 1, "name": "x"},
      "payload": {
        "rows": [
          {"id": 2, "nested": {"id": 3, "name": "y"}},
          {"name": "z", "list": [{"id": 4}]}
        ]
      },
      "id": 5
    })";
    expect_fused_matches_independent(
        {"$.meta.id", "$..id", "$.payload.rows.*.id", "$..nested..name",
         "$.meta.*"},
        document);
}

TEST(MultiEngine, DeadQueriesDoNotBlockSkips)
{
    // Queries that can never match again ("$.absent.x") must allow every
    // skip; the live query's results are unaffected and the dead ones stay
    // empty.
    std::string document = R"({"a": {"big": [[[1, 2], 3], {"x": 4}]}, "b": 5})";
    expect_fused_matches_independent({"$.absent.x", "$.b", "$..x", "$.zzz.*"},
                                     document);
}

TEST(MultiEngine, IndexSelectorsAcrossQueries)
{
    // One counting query forces array-entry tracking for the set; the
    // non-counting queries must be unaffected.
    std::string document =
        R"({"items": [{"v": 1}, {"v": 2}, {"v": 3}], "v": [10, 20]})";
    expect_fused_matches_independent({"$.items[1].v", "$..v", "$.v[0]"},
                                     document);
    EXPECT_TRUE(MultiQuery::compile(std::vector<std::string>{"$.a[0]", "$.b"})
                    .any_counting());
}

TEST(MultiQueryCompile, SpellingVariantsDedupToOneSlot)
{
    // Canonicalization keys dedup: dot form, single- and double-quoted
    // bracket forms of the same path share one distinct slot.
    MultiQuery set = MultiQuery::compile(
        std::vector<std::string>{"$.a", "$['a']", "$[\"a\"]"});
    EXPECT_EQ(set.size(), 3u);
    EXPECT_EQ(set.num_distinct(), 1u);
    EXPECT_EQ(set.owners(0).size(), 3u);
}

TEST(MultiQueryCompile, SlicesMarkTheSetCounting)
{
    EXPECT_TRUE(MultiQuery::compile(std::vector<std::string>{"$.a[1:3]", "$.b"})
                    .any_counting());
    EXPECT_TRUE(MultiQuery::compile(std::vector<std::string>{"$['x','y']",
                                                             "$.a[2:]"})
                    .any_counting());
    EXPECT_FALSE(
        MultiQuery::compile(std::vector<std::string>{"$['x','y']", "$..b"})
            .any_counting());
}

TEST(MultiEngine, ExtendedSelectorsAcrossLegs)
{
    // Slices, unions, spelling variants and plain indices fused together;
    // both legs must reproduce N independent runs exactly.
    std::string document = R"({
        "a": [{"x": 1}, {"x": 2}, {"x": 3}, {"x": 4}],
        "c": {"a": [10, 20, 30]},
        "x": 5
    })";
    expect_fused_matches_independent(
        {"$.a[1:3]", "$['a','c']", "$.a[0]", "$..x", "$['a'][2].x"}, document);
    // Overlapping slice/index guards over one shared alphabet: the union
    // boundary set refines each query's own cells.
    expect_fused_matches_independent(
        {"$.a[0:2]", "$.a[1:4]", "$.a[2]", "$.a[1:]"}, document);
}

TEST(MultiEngine, FilterSetsRunOnTheProduct)
{
    // Filters lower to wildcard arcs in the product automaton and are
    // gated at report time; both legs must reproduce N
    // independent runs in every configuration on every tier.
    std::string document = R"({
        "a": [{"x": 1}, {"x": 3, "y": 0}, {"y": "s"}, {"x": 9}, 4, [5]],
        "b": {"x": 7, "a": [{"x": 8}, {"x": 2}]}
    })";
    // Two different filters under one prefix share one trie node.
    expect_fused_matches_independent({"$.a[?(@.x>2)]", "$.a[?(@.y)]"},
                                     document);
    // A filter next to a plain wildcard on the same prefix, plus a
    // descendant subscriber and a filter on another spine.
    expect_fused_matches_independent(
        {"$.a[?(@.x>2)]", "$.a.*", "$..x", "$.b.a[?(@.x==8)]"}, document);
}

TEST(MultiEngine, FilterInsideAHeadSkippedSet)
{
    // Every query starts with `$..a`, so the product head-skips to each
    // `a` and runs the filters on candidates below it.
    std::vector<std::string> queries{"$..a[?(@.x>2)]", "$..a.*.y",
                                     "$..a[?(@.y=='s')]"};
    std::string document = R"({
        "p": {"a": [{"x": 3}, {"y": "s"}, {"x": 1, "y": "t"}]},
        "q": [{"a": [{"x": 1, "y": "s"}]}, {"a": {"k": {"x": 5}}}]
    })";
    FusedEngine engine(MultiQuery::compile(queries));
    ASSERT_TRUE(engine.parts()[0].head_skip_label().has_value());
    expect_fused_matches_independent(queries, document);
}

TEST(MultiEngine, RejectedFilterCandidatesDoNotConsumeTheMatchLimit)
{
    // Six candidates; the first filter admits two, the second one. A limit
    // of two holds although the automaton surfaces six candidates per
    // query; a limit of one trips at the second admitted candidate, where
    // the independent run trips.
    std::vector<std::string> queries{"$.a[?(@.x>2)]", "$.a[?(@.y)]"};
    std::string document =
        R"({"a": [{"x": 1}, {"x": 2}, {"x": 3}, {"y": 0}, {"x": 1}, {"x": 9}]})";
    PaddedString padded(document);
    for (std::size_t limit : {std::size_t{2}, std::size_t{1}}) {
        SCOPED_TRACE("max_match_count " + std::to_string(limit));
        EngineOptions options;
        options.limits.max_match_count = limit;
        DescendEngine single(automaton::CompiledQuery::compile(queries[0]),
                             options);
        OffsetSink single_sink;
        EngineStatus expected = single.run(padded, single_sink);
        EXPECT_EQ(expected.ok(), limit == 2);
        for (const auto& fused : fused_legs(queries, options)) {
            SCOPED_TRACE(leg_label(*fused));
            CollectingMultiSink sink(queries.size());
            EXPECT_EQ(fused->run(padded, sink), expected);
            if (expected.ok()) {
                EXPECT_EQ(sink.all(),
                          independent_offsets(queries, padded, options));
            }
        }
    }
}

TEST(MultiEngine, FilterSetsCompileAsOneProduct)
{
    std::unique_ptr<FusedEngine> engine = multi::make_fused_engine(
        std::vector<std::string>{"$.a[?(@.x>2)]", "$..x", "$.b[?(@.y)]"});
    EXPECT_EQ(engine->name().rfind("descend-product-", 0), 0u)
        << engine->name();
    EXPECT_EQ(engine->parts().size(), 1u);
}

TEST(MultiEngine, GeneratedDatasetMixes)
{
    // Realistic multi-block documents: head-skip-able descendant queries
    // fused with child-path queries over the same bytes.
    std::string crossref = workloads::generate_crossref(200 * 1024);
    expect_fused_matches_independent(
        {"$..DOI", "$.items.*.title", "$..author..affiliation..name",
         "$.items.*.author.*.ORCID"},
        crossref);
    std::string ast = workloads::generate_ast(150 * 1024);
    expect_fused_matches_independent(
        {"$..decl.name", "$..inner..inner..type.qualType", "$..range.end.col"},
        ast);
}

TEST(MultiEngine, CountingSinkAgreesWithCollectingSink)
{
    std::vector<std::string> queries{"$..b", "$.a.*"};
    std::string document = R"({"a": {"b": 1, "c": 2}, "b": 3})";
    PaddedString padded(document);
    for (const auto& fused : fused_legs(queries)) {
        SCOPED_TRACE(leg_label(*fused));
        CollectingMultiSink collect(queries.size());
        CountingMultiSink count(queries.size());
        ASSERT_EQ(fused->run(padded, collect), EngineStatus{});
        ASSERT_EQ(fused->run(padded, count), EngineStatus{});
        std::size_t total = 0;
        for (std::size_t q = 0; q < queries.size(); ++q) {
            EXPECT_EQ(count.count(q), collect.offsets(q).size());
            total += collect.offsets(q).size();
        }
        EXPECT_EQ(count.total(), total);
    }
}

TEST(MultiEngine, PerLaneMatchLimitFailsTheRun)
{
    // EngineLimits::max_match_count is enforced per query, mirroring N
    // independent runs: the query with three matches trips a limit of two
    // at its third match's offset even though the other query is under it.
    std::string document = R"({"a": 1, "b": {"a": 2}, "c": {"a": 3}})";
    PaddedString padded(document);
    EngineOptions options;
    options.limits.max_match_count = 2;
    DescendEngine single(automaton::CompiledQuery::compile("$..a"), options);
    OffsetSink single_sink;
    EngineStatus expected = single.run(padded, single_sink);
    ASSERT_EQ(expected.code, StatusCode::kMatchLimit);
    for (const auto& fused :
         fused_legs(std::vector<std::string>{"$..a", "$.a"}, options)) {
        SCOPED_TRACE(leg_label(*fused));
        CollectingMultiSink sink(2);
        EXPECT_EQ(fused->run(padded, sink), expected);
    }
}

TEST(MultiEngine, MalformedDocumentFailsTheSet)
{
    PaddedString padded(R"({"a": {"b": 1})");  // truncated
    for (const auto& fused :
         fused_legs(std::vector<std::string>{"$.a.b", "$..b"})) {
        SCOPED_TRACE(leg_label(*fused));
        CollectingMultiSink sink(2);
        EXPECT_FALSE(fused->run(padded, sink).ok());
    }
}

// -------------------------------------------------------------- state cap

/** `$..label` followed by @p wildcards child wildcards: the descendant-plus-
 *  wildcard shape whose DFA doubles with every wildcard (Section 3.1). */
std::string descendant_wildcards(const std::string& label, int wildcards)
{
    std::string text = "$.." + label;
    for (int i = 0; i < wildcards; ++i) {
        text += ".*";
    }
    return text;
}

/** Objects and arrays nested @p depth deep, `a`, `b` and `c` members at
 *  every level, branching on every other level. */
std::string nested_document(int depth, int variant = 0)
{
    if (depth == 0) {
        return std::to_string(variant);
    }
    static const char* const kKeys[] = {"a", "b", "c"};
    const std::string deeper = nested_document(depth - 1, variant + 1);
    if ((depth + variant) % 3 == 0) {
        return "[" + deeper + ", " + std::to_string(depth) + "]";
    }
    const std::string second =
        depth % 2 == 0 ? nested_document(depth - 1, variant + 2) : "0";
    return std::string("{\"") + kKeys[variant % 3] + "\": " + deeper + ", \"" +
           kKeys[(variant + 1) % 3] + "\": " + second + "}";
}

TEST(StateCap, LargestSingleQueryCompilesAsOnePart)
{
    // Twelve wildcards is the most the single-query DFA accepts (8192
    // states); the product of that query alone fits the default cap.
    EXPECT_THROW(MultiQuery::compile(std::vector<std::string>{
                     descendant_wildcards("a", 13)}),
                 LimitError);
    FusedEngine engine(MultiQuery::compile(
        std::vector<std::string>{descendant_wildcards("a", 12)}));
    EXPECT_EQ(engine.parts().size(), 1u);
}

TEST(StateCap, SetPastTheCapRunsAsPartsMatchingIndependentRuns)
{
    const std::vector<std::string> queries{descendant_wildcards("a", 10),
                                           descendant_wildcards("b", 10)};
    MultiQuery set = MultiQuery::compile(queries);
    EXPECT_THROW(QuerySetCompiler::compile(set), LimitError);
    EXPECT_GE(FusedEngine(set).parts().size(), 2u);
    const std::string document = nested_document(16);
    PaddedString padded(document);
    for (const std::vector<std::size_t>& offsets :
         independent_offsets(queries, padded, EngineOptions{})) {
        EXPECT_FALSE(offsets.empty()) << "the document must exercise both";
    }
    expect_fused_matches_independent(queries, document);
}

TEST(StateCap, EarliestFailureAcrossPartsWinsAndCutsLaterMatches)
{
    // `$..x` runs first and trips a limit of two at its third match;
    // `$..y` trips earlier, between the first and second `x`. The run
    // fails where `$..y` does and delivers no match past that offset.
    const std::vector<std::string> queries{"$..x", "$..y"};
    PaddedString padded(
        R"([{"x": 1}, {"y": 1}, {"y": 2}, {"y": 3}, {"x": 2}, {"x": 3}])");
    EngineOptions options;
    options.limits.max_match_count = 2;
    DescendEngine y_alone(automaton::CompiledQuery::compile("$..y"), options);
    OffsetSink y_sink;
    const EngineStatus expected = y_alone.run(padded, y_sink);
    ASSERT_EQ(expected.code, StatusCode::kMatchLimit);
    std::vector<std::size_t> x_all =
        independent_offsets({"$..x"}, padded, EngineOptions{})[0];
    ASSERT_EQ(x_all.size(), 3u);
    ASSERT_LT(x_all[0], expected.offset);
    ASSERT_GT(x_all[1], expected.offset);
    for (const auto& fused : fused_legs(queries, options)) {
        SCOPED_TRACE(leg_label(*fused));
        CollectingMultiSink sink(queries.size());
        EXPECT_EQ(fused->run(padded, sink), expected);
        EXPECT_EQ(sink.offsets(0), std::vector<std::size_t>{x_all[0]});
        EXPECT_EQ(sink.offsets(1), y_sink.offsets());
    }
}

// -------------------------------------------------------------- streaming

/** NDJSON stream whose records exercise disagreement and failure. */
std::string build_stream(std::size_t records)
{
    std::string text;
    for (std::size_t i = 0; i < records; ++i) {
        switch (i % 4) {
        case 0:
            text += R"({"meta": {"id": 1}, "payload": {"id": 2, "x": 3}})";
            break;
        case 1:
            text += R"({"id": [4, {"id": 5}], "x": {"deep": {"id": 6}}})";
            break;
        case 2:
            text += R"({"x": 7})";
            break;
        default:
            text += R"({"payload": {"rows": [{"id": 8}, {"id": 9}]}})";
            break;
        }
        text += i % 3 == 0 ? "\r\n" : "\n";
    }
    return text;
}

TEST(MultiStream, FusedStreamMatchesPerRecordIndependentRuns)
{
    std::vector<std::string> queries{"$..id", "$.meta.id", "$.payload.*",
                                     "$.x"};
    std::string text = build_stream(23);
    PaddedString input(text);
    std::vector<stream::RecordSpan> records =
        stream::split_records(input, simd::best_kernels());

    // Oracle: each record copied out and run through N single engines.
    std::vector<CollectingMultiStreamSink::Match> expected;
    for (std::size_t r = 0; r < records.size(); ++r) {
        PaddedString copy(
            input.view().substr(records[r].begin, records[r].size()));
        std::vector<std::vector<std::size_t>> per_query =
            independent_offsets(queries, copy, EngineOptions{});
        for (std::size_t q = 0; q < queries.size(); ++q) {
            for (std::size_t offset : per_query[q]) {
                expected.push_back({q, r, offset});
            }
        }
    }
    // Replay order: records ascending, then queries ascending — exactly the
    // oracle's nesting above once sorted by (record, query, offset).
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                         return a.record != b.record ? a.record < b.record
                                                     : a.query < b.query;
                     });

    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        stream::StreamOptions options;
        options.threads = threads;
        options.records_per_batch = 3;  // force several batches
        MultiStreamExecutor executor =
            MultiStreamExecutor::for_queries(queries, options);
        CollectingMultiStreamSink sink;
        stream::StreamResult result = executor.run(input, sink);
        EXPECT_EQ(result.records, records.size()) << threads << " threads";
        EXPECT_TRUE(sink.errors().empty()) << threads << " threads";
        EXPECT_EQ(sink.matches(), expected) << threads << " threads";
        EXPECT_EQ(result.matches, expected.size()) << threads << " threads";
    }
}

TEST(MultiStream, MalformedRecordFailsEveryLaneOfThatRecordOnly)
{
    std::string text = R"({"id": 1})" "\n" R"({"id": )" "\n" R"({"id": 3})" "\n";
    PaddedString input(text);
    MultiStreamExecutor executor = MultiStreamExecutor::for_queries(
        std::vector<std::string>{"$.id", "$..id"});
    CollectingMultiStreamSink sink;
    stream::StreamResult result = executor.run(input, sink);
    EXPECT_EQ(result.records, 3u);
    EXPECT_EQ(result.failed_records, 1u);
    ASSERT_EQ(sink.errors().size(), 1u);
    EXPECT_EQ(sink.errors()[0].record, 1u);
    // Records 0 and 2 contribute both queries; record 1 contributes
    // nothing.
    ASSERT_EQ(sink.matches().size(), 4u);
    for (const auto& match : sink.matches()) {
        EXPECT_NE(match.record, 1u);
    }

    stream::StreamOptions fail_fast;
    fail_fast.policy = stream::ErrorPolicy::kFailFast;
    MultiStreamExecutor strict = MultiStreamExecutor::for_queries(
        std::vector<std::string>{"$.id", "$..id"}, fail_fast);
    CountingMultiStreamSink counting(2);
    stream::StreamResult aborted = strict.run(input, counting);
    EXPECT_FALSE(aborted.ok());
    EXPECT_EQ(counting.failed_records(), 1u);
}

/** 64 queries over build_stream's record shapes: eight families of eight
 *  (indices, filters, descendants, children, wildcards, slices/unions), so
 *  queries interleave their matches within a record. */
std::vector<std::string> sixty_four_queries()
{
    std::vector<std::string> queries;
    for (int k = 0; k < 8; ++k) {
        queries.push_back("$.payload.rows[" + std::to_string(k) + "].id");
        queries.push_back("$.id[" + std::to_string(k) + "]");
        queries.push_back("$.payload.rows[?(@.id>" + std::to_string(k + 3) +
                          ")]");
        queries.push_back("$.*[?(@.id==" + std::to_string(k) + ")]");
    }
    for (const char* text :
         {"$..id", "$..x", "$..deep", "$..rows", "$..meta", "$..payload",
          "$..*", "$..id.*", "$.meta.id", "$.payload.id", "$.payload.x",
          "$.x.deep.id", "$.x.deep", "$.id", "$.x", "$.meta", "$.*", "$.*.*",
          "$.payload.*", "$.id.*", "$.x.*", "$.payload.rows.*", "$.*.id",
          "$.*.*.id", "$.id[0:1]", "$.id[1:]", "$.payload.rows[0:2].id",
          "$['meta','x']", "$['id','payload'].id", "$.payload['id','x']",
          "$.payload.rows[1:].id", "$.x['deep']"}) {
        queries.emplace_back(text);
    }
    return queries;
}

TEST(MultiStream, SixtyFourQueriesReplayInContractOrderAroundAFailedRecord)
{
    // Records 0..10 and 12..22 are well-formed; record 11 closes an array
    // with a brace.
    const std::vector<std::string> queries = sixty_four_queries();
    ASSERT_EQ(queries.size(), 64u);
    constexpr std::size_t kBroken = 11;
    std::string text = build_stream(kBroken) + R"({"id": [4, {"id": 5}})" +
                       "\n" + build_stream(11);
    PaddedString input(text);
    std::vector<stream::RecordSpan> records =
        stream::split_records(input, simd::best_kernels());
    ASSERT_EQ(records.size(), 23u);

    // Oracle: each good record copied out and run through 64 single
    // engines, in the replay contract's order — records ascending, then
    // queries ascending, then document order.
    std::vector<CollectingMultiStreamSink::Match> expected;
    for (std::size_t r = 0; r < records.size(); ++r) {
        if (r == kBroken) {
            continue;
        }
        PaddedString copy(
            input.view().substr(records[r].begin, records[r].size()));
        std::vector<std::vector<std::size_t>> per_query =
            independent_offsets(queries, copy, EngineOptions{});
        for (std::size_t q = 0; q < queries.size(); ++q) {
            for (std::size_t offset : per_query[q]) {
                expected.push_back({q, r, offset});
            }
        }
    }
    std::vector<CollectingMultiStreamSink::Match> before_broken;
    for (const auto& match : expected) {
        if (match.record < kBroken) {
            before_broken.push_back(match);
        }
    }

    for (stream::ErrorPolicy policy :
         {stream::ErrorPolicy::kSkipRecord, stream::ErrorPolicy::kFailFast,
          stream::ErrorPolicy::kRetryScalar}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                         ", " + std::to_string(threads) + " threads");
            stream::StreamOptions options;
            options.threads = threads;
            options.policy = policy;
            options.records_per_batch = 3;  // several batches
            MultiStreamExecutor executor =
                MultiStreamExecutor::for_queries(queries, options);
            CollectingMultiStreamSink sink;
            stream::StreamResult result =
                executor.run_records(input, records, sink);
            const bool fail_fast = policy == stream::ErrorPolicy::kFailFast;
            EXPECT_EQ(sink.matches(), fail_fast ? before_broken : expected);
            EXPECT_EQ(result.matches, sink.matches().size());
            ASSERT_EQ(sink.errors().size(), 1u);
            EXPECT_EQ(sink.errors()[0].record, kBroken);
            EXPECT_EQ(result.failed_records, 1u);
            EXPECT_EQ(result.retried_records,
                      policy == stream::ErrorPolicy::kRetryScalar ? 1u : 0u);
            for (const auto& match : sink.matches()) {
                EXPECT_NE(match.record, kBroken);
            }
        }
    }
}

}  // namespace
}  // namespace descend
