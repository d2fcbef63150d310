/**
 * @file
 * Hand-written correctness tests for the main engine: every selector kind,
 * every skipping path, toggling, block-boundary straddles, escapes,
 * whitespace torture, and the paper's own running examples. Each case is
 * checked against the DOM oracle and across every engine configuration
 * (both SIMD levels, each skip disabled, all skips disabled).
 */
#include <gtest/gtest.h>

#include <string>

#include "descend/workloads/datasets.h"
#include "test_helpers.h"

namespace descend {
namespace {

using testing::expect_all_engines_agree;
using testing::expect_count;

TEST(EngineBasics, RootQueryMatchesWholeDocument)
{
    expect_count("$", R"({"a": 1})", 1);
    expect_count("$", R"(  [1, 2, 3] )", 1);
    expect_count("$", "42", 1);
    expect_count("$", R"(  "just a string"  )", 1);
}

TEST(EngineBasics, SingleChildLabel)
{
    expect_count("$.a", R"({"a": 1})", 1);
    expect_count("$.a", R"({"b": 1})", 0);
    expect_count("$.a", R"({"b": 2, "a": 1})", 1);
    expect_count("$.a", R"({"a": {"a": 1}})", 1);
    expect_count("$.a", R"([{"a": 1}])", 0);
    expect_count("$.a", "17", 0);
}

TEST(EngineBasics, ChildChain)
{
    expect_count("$.a.b", R"({"a": {"b": 3}})", 1);
    expect_count("$.a.b", R"({"a": {"c": {"b": 3}}})", 0);
    expect_count("$.a.b", R"({"b": {"b": 3}, "a": {"x": 1, "b": 2}})", 1);
    expect_count("$.a.b.c", R"({"a": {"b": {"c": null}}})", 1);
}

TEST(EngineBasics, LeafValueTypes)
{
    expect_count("$.a", R"({"a": "text"})", 1);
    expect_count("$.a", R"({"a": true})", 1);
    expect_count("$.a", R"({"a": false})", 1);
    expect_count("$.a", R"({"a": null})", 1);
    expect_count("$.a", R"({"a": -12.5e3})", 1);
    expect_count("$.a", R"({"a": []})", 1);
    expect_count("$.a", R"({"a": {}})", 1);
}

TEST(EngineBasics, Wildcard)
{
    expect_count("$.*", R"({"a": 1, "b": 2, "c": 3})", 3);
    expect_count("$.*", R"([1, 2, 3])", 3);
    expect_count("$.*", R"([])", 0);
    expect_count("$.*", R"({})", 0);
    expect_count("$.*", R"([[1], 2, {"x": 3}])", 3);
    expect_count("$.*.*", R"([[1], 2, {"x": 3}])", 2);
}

TEST(EngineBasics, WildcardOverObjectsIsIdiomatic)
{
    // JSONSki's wildcard only steps into arrays; ours must handle objects
    // (the paper's "idiomatic wildcard").
    expect_count("$.*.b", R"({"a": {"b": 1}, "c": {"b": 2}})", 2);
    expect_count("$.*.b", R"([{"b": 1}, {"b": 2}, {"c": 3}])", 2);
}

TEST(EngineBasics, Descendant)
{
    expect_count("$..a", R"({"a": 1})", 1);
    expect_count("$..a", R"({"x": {"a": 1}})", 1);
    expect_count("$..a", R"({"a": {"a": 1}})", 2);
    expect_count("$..a", R"([[[{"a": []}]]])", 1);
    expect_count("$..a", R"({"b": 1})", 0);
    expect_count("$..a", R"({"a": [{"a": {"a": 3}}]})", 3);
}

TEST(EngineBasics, DescendantChains)
{
    expect_count("$..a..b", R"({"a": {"b": 1}})", 1);
    expect_count("$..a..b", R"({"a": {"x": [{"b": 1}]}})", 1);
    expect_count("$..a..b", R"({"b": {"a": 1}})", 0);
    // Node semantics: one result even with multiple witnessing paths.
    expect_count("$..a..b", R"({"a": {"a": {"b": 1}}})", 1);
}

TEST(EngineBasics, PaperRunningExample)
{
    // Section 2: in {"a":[{"b":{"c":1}},{"b":[2]}]} the query $.a..b.*
    // returns 1 and 2.
    expect_count("$.a..b.*", R"({"a":[{"b":{"c":1}},{"b":[2]}]})", 2);
}

TEST(EngineBasics, PaperGreedyMatchExample)
{
    // Section 3.1: query ..b.*..c.* style matching with nested b's; node
    // semantics must not duplicate.
    expect_count("$.a..b.*..c.*", R"({"a":{"b":{"b":{"b":{"c":[42]}}}}})", 1);
}

TEST(EngineBasics, MixedSelectors)
{
    expect_count("$..a.b", R"({"a": {"b": 1}, "x": {"a": {"b": 2}}})", 2);
    expect_count("$..a.b", R"({"a": {"a": {"b": 1}}})", 1);
    expect_count("$.a..b.c", R"({"a": {"b": {"c": 1}, "d": {"b": {"c": 2}}}})", 2);
    expect_count("$..*", R"({"a": [1, {"b": 2}]})", 4);
    expect_count("$..*.b", R"({"a": {"b": 5}})", 1);
}

TEST(EngineArrays, LeafEntries)
{
    expect_count("$.a.*", R"({"a": [1, 2, 3]})", 3);
    expect_count("$.a.*", R"({"a": []})", 0);
    expect_count("$.a.*", R"({"a": [7]})", 1);
    expect_count("$.a.*", R"({"a": ["x", [1], "y"]})", 3);
    expect_count("$.a.*", R"({"a": [[1], 2]})", 2);
    expect_count("$.a.*", R"({"a": [{"b": 1}, 2, [3]]})", 3);
}

TEST(EngineArrays, FirstItemCornerCases)
{
    // The first array item is caught neither by Comma nor Opening when it
    // is an atom: the try_match_first_item path (Section 3.4).
    expect_count("$.*", R"([1])", 1);
    expect_count("$.*", R"([ 1 ])", 1);
    expect_count("$.*", R"(["string with , and [ inside"])", 1);
    expect_count("$.*", R"([{"x": 1}])", 1);
    expect_count("$.*", R"([[]])", 1);
    expect_count("$.*", R"([ ])", 0);
}

TEST(EngineArrays, NestedArrays)
{
    expect_count("$.*.*", R"([[1, 2], [3]])", 3);
    expect_count("$..a.*", R"({"a": [1, [2, {"a": [3, 4]}]]})", 4);
    expect_count("$.*.*.*", R"([[[1], [2, 3]], [[4]]])", 4);
}

TEST(EngineIndices, BasicIndexSelectors)
{
    expect_count("$[0]", R"([10, 20, 30])", 1);
    expect_count("$[1]", R"([10, 20, 30])", 1);
    expect_count("$[2]", R"([10, 20, 30])", 1);
    expect_count("$[3]", R"([10, 20, 30])", 0);
    expect_count("$[0]", R"({"a": 1})", 0);
    expect_count("$[1]", R"([[1, 2], [3, 4]])", 1);
}

TEST(EngineIndices, IndexChains)
{
    expect_count("$[1][0]", R"([[1, 2], [3, 4]])", 1);
    expect_count("$.a[0].b", R"({"a": [{"b": 5}, {"b": 6}]})", 1);
    expect_count("$[0]..a", R"([{"x": {"a": 1}}, {"a": 2}])", 1);
    expect_count("$..a[1]", R"({"a": [5, 6, 7], "b": {"a": [8]}})", 1);
    expect_count("$[2]", R"([{"x": 1}, [2], "three", 4])", 1);
}

TEST(EngineIndices, SkippedSiblingsDoNotDesyncCounters)
{
    // Regression battery for the skip/counter interaction: a child-skipped
    // `[...]` or `{...}` sibling hides its internal commas from the event
    // stream, and the entry counter must still account the ONE comma that
    // separates it from the next entry — a desynced counter silently
    // shifts every later index. expect_count cross-checks all skip
    // configurations at every SIMD tier against the DOM oracle.
    expect_count("$[2]", R"([[9, 9, 9], {"a": [1, 2]}, 42])", 1);
    expect_count("$[2]", R"([{"deep": [[1, 2], [3, 4]]}, [5, 6], 7, 8])", 1);
    expect_count("$[1].b", R"([{"b": 1, "z": [9, 9]}, {"b": 2}, {"b": 3}])", 1);
    expect_count("$[3]", R"([[", [fake"], {"s": "], fake]"}, [], 13])", 1);
    expect_count("$.a[1][1]", R"({"a": [[1, 2], [3, 4]]})", 1);
    expect_count("$[0]", R"([{"x": [1, 2, 3]}, [4, 5], 6])", 1);
}

TEST(EngineSlices, SliceSelectorsAcrossSkips)
{
    expect_count("$[2:4]", R"([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])", 2);
    expect_count("$[1:]..b", R"([{"b": 0}, {"x": {"b": 1}}, {"b": 2}])", 2);
    expect_count("$.a[0:2].b",
                 R"({"a": [{"b": 1}, {"c": [9, 9], "b": 2}, {"b": 3}]})", 2);
    // Counter state is per depth: a nested array restarts at entry 0.
    expect_count("$[1:][1:]", R"([[1, 2, 3], [4, 5], [6, 7, 8]])", 3);
    expect_count("$[0:]", R"([])", 0);
    expect_count("$[0:]", R"([[]])", 1);
}

TEST(EngineUnions, UnionSelectors)
{
    expect_count("$['a','c']", R"({"a": 1, "b": 2, "c": 3})", 2);
    expect_count("$['a','c'].x", R"({"a": {"x": 1}, "c": {"y": 2}})", 1);
    expect_count("$.*['p','q']",
                 R"({"l": {"p": 1}, "m": {"q": 2}, "n": {"r": 3}})", 2);
    expect_count(R"($['he said \"hi\"','plain'])",
                 R"({"he said \"hi\"": 1, "plain": 2, "other": 3})", 2);
    expect_count("$['a','b']['a','b']",
                 R"({"a": {"b": 1}, "b": {"c": 2}})", 1);
}

TEST(EngineFilters, FilterSelectors)
{
    expect_count("$.a[?(@.x>2)]",
                 R"({"a": [{"x": 1}, {"x": 3}, {"x": 10}]})", 2);
    // Filter candidates can be large containers; the predicate's span
    // extension and lazy field walk must cope with nested noise.
    expect_count("$[?(@.k==1)]",
                 R"([{"pad": [[1, 2], {"k": 9}], "k": 1}, {"k": 2}])", 1);
    expect_count("$..l[?(@.x)]",
                 R"({"l": [{"x": 1}], "d": {"l": [{"y": 2}, {"x": 3}]}})", 2);
    // Wildcard-guarded candidates: atoms fail the field walk gracefully.
    expect_count("$[?(@.x)]", R"([1, "x", null, {"x": 0}, [5]])", 1);
}

TEST(EngineStrings, StructuralCharactersInsideStrings)
{
    expect_count("$.a", R"({"x": "}{][,:", "a": 1})", 1);
    expect_count("$.a", R"({"x": "{\"a\": 2}", "a": 1})", 1);
    expect_count("$.a.b", R"({"a": {"x": "}}}}", "b": 1}})", 1);
    expect_count("$.*", R"(["[", "]", "{", "}"])", 4);
}

TEST(EngineStrings, EscapedQuotes)
{
    expect_count("$.a", R"({"x": "quote \" here", "a": 1})", 1);
    expect_count("$.a", R"({"x": "backslash \\", "a": 1})", 1);
    expect_count("$.a", R"({"x": "\\\" tricky", "a": 1})", 1);
    expect_count("$.a", R"({"x": "ends with \\\\", "a": 1})", 1);
}

TEST(EngineStrings, LabelsWithEscapes)
{
    // Labels are compared byte-for-byte in escaped form; the bracket
    // syntax lets queries name them.
    expect_count(R"($['he said \"hi\"'])", R"({"he said \"hi\"": 1})", 1);
    expect_count(R"($['back\\slash'])", R"({"back\\slash": 2})", 1);
    expect_count(R"($..['a\\b'])", R"({"x": {"a\\b": 3}})", 1);
}

TEST(EngineStrings, LabelValuedStringsAreNotLabels)
{
    // A string *value* equal to "a" must not fire label transitions.
    expect_count("$..a", R"({"x": "a", "y": ["a", "a"]})", 0);
    expect_count("$..a", R"(["a", {"a": 1}])", 1);
}

TEST(EngineWhitespace, TortureFormatting)
{
    expect_count("$.a.b", "{ \"a\"\n :\t{ \"b\" : 1 } }", 1);
    expect_count("$.a.*", "{\"a\" : [ 1 ,\n\t2 , 3 ]\n}", 3);
    expect_count("$..b", "  {  \"a\" : { \"b\" :  [ ] } }  ", 1);
    expect_count("$.*", "[\n\n\n1\n\n,\n2\n\n]", 2);
}

TEST(EngineBlocks, BoundaryStraddles)
{
    // Force interesting characters to straddle 64-byte block boundaries by
    // padding with whitespace of varying length.
    for (std::size_t pad = 50; pad <= 70; ++pad) {
        std::string document = std::string("{")
                                   .append(pad, ' ')
                                   .append(R"("a": {"b": [1, 2, {"c": "x,]}"}]})")
                                   .append("}");
        expect_all_engines_agree("$.a.b.*", document);
        expect_all_engines_agree("$..c", document);
    }
}

TEST(EngineBlocks, LabelSplitAcrossBlocks)
{
    for (std::size_t pad = 40; pad <= 80; ++pad) {
        std::string document = std::string("{").append(pad, ' ').append(
            R"("long_label_name": {"inner": 42}})");
        expect_all_engines_agree("$.long_label_name.inner", document);
        expect_all_engines_agree("$..inner", document);
    }
}

TEST(EngineBlocks, EscapeRunsAcrossBlocks)
{
    for (std::size_t run = 58; run <= 68; ++run) {
        std::string document = R"({"x": ")" + std::string(run, '\\') +
                               std::string(run % 2, '\\') + R"(", "a": 1})";
        expect_all_engines_agree("$.a", document);
    }
}

TEST(EngineSkipping, ChildSkipOverDeepIrrelevantSubtrees)
{
    expect_count("$.z",
                 R"({"a": {"deep": [[[{"nested": {"z": "decoy"}}]]]}, "z": 1})", 1);
    expect_count("$.a.z", R"({"a": {"x": {"z": "no"}, "z": 2}})", 1);
}

TEST(EngineSkipping, SiblingSkipAfterUnitaryMatch)
{
    // After matching the unique label of a unitary state, remaining
    // siblings are fast-forwarded; matches must be identical anyway.
    expect_count("$.a.b", R"({"a": {"b": 1}, "later": {"b": "no"}})", 1);
    expect_count("$.a", R"({"a": 1, "b": 2, "c": {"a": "no"}})", 1);
    expect_count("$.a.b.c", R"({"a": {"b": {"c": 1}, "z": 9}, "y": 8})", 1);
}

TEST(EngineSkipping, HeadSkipQueries)
{
    expect_count("$..a.b", R"({"a": {"b": 1}, "x": [{"a": {"b": 2}}]})", 2);
    expect_count("$..a", R"({"a": "leaf", "x": {"a": [1]}})", 2);
    // Fake occurrences inside strings must not derail head-skipping.
    expect_count("$..a", R"({"x": "\"a\": 1", "a": 7})", 1);
    expect_count("$..needle", R"({"x": "\"needle\":", "y": {"needle": []}})", 1);
}

TEST(EngineMisc, EmptyContainers)
{
    expect_count("$.a", R"({"a": {}})", 1);
    expect_count("$.a.*", R"({"a": {}})", 0);
    expect_count("$..a", R"({"b": {}, "c": [], "a": {}})", 1);
    expect_count("$.*", R"([[], {}, [{}]])", 3);
}

TEST(EngineMisc, DocumentIsSingleAtom)
{
    expect_count("$.a", "123", 0);
    expect_count("$..a", "\"a\"", 0);
    expect_count("$.*", "null", 0);
}

TEST(EngineMisc, MatchesAreReportedInDocumentOrder)
{
    std::string document = R"({"a": 1, "b": {"a": 2}, "c": [{"a": 3}], "d": 4})";
    auto offsets = testing::engine_offsets("$..a", document);
    ASSERT_EQ(offsets.size(), 3u);
    EXPECT_LT(offsets[0], offsets[1]);
    EXPECT_LT(offsets[1], offsets[2]);
}

TEST(EngineMisc, OffsetsPointAtValues)
{
    std::string document = R"({"a":  {"b": [10, 20]}})";
    PaddedString padded(document);
    auto engine = DescendEngine::for_query("$.a");
    auto offsets = engine.offsets(padded);
    ASSERT_EQ(offsets.size(), 1u);
    EXPECT_EQ(document[offsets[0]], '{');
    auto value = extract_value(padded, offsets[0]);
    EXPECT_EQ(value, R"({"b": [10, 20]})");
}

TEST(EngineMisc, ValueExtraction)
{
    std::string document = R"({"s": "str", "n": -1.5, "o": {"x": [1]}, "t": true})";
    PaddedString padded(document);
    auto engine = DescendEngine::for_query("$.*");
    auto values = extract_values(padded, engine.offsets(padded));
    ASSERT_EQ(values.size(), 4u);
    EXPECT_EQ(values[0], R"("str")");
    EXPECT_EQ(values[1], "-1.5");
    EXPECT_EQ(values[2], R"({"x": [1]})");
    EXPECT_EQ(values[3], "true");
}

TEST(EngineMisc, DeepNestingSpillsTheDepthStack)
{
    // 300 levels: deeper than the inline frame capacity (128), forcing the
    // InlineVector to spill to the heap, and deeper than one kind-bitstack
    // word span.
    std::string document;
    for (int i = 0; i < 300; ++i) {
        document += R"({"a":)";
    }
    document += "1";
    document.append(300, '}');
    expect_count("$..a", document, 300);
    std::string child_query = "$";
    for (int i = 0; i < 10; ++i) {
        child_query += ".a";
    }
    expect_count(child_query, document, 1);
}

TEST(EngineMisc, RunStatsReflectSkips)
{
    std::string document =
        R"({"a": {"b": 1}, "junk": {"deep": [[[1, 2, 3]]]}, "more": [7, 8]})";
    PaddedString padded(document);
    auto engine = DescendEngine::for_query("$.a.b");
    CountSink sink;
    RunStats stats = engine.run_with_stats(padded, sink);
    EXPECT_EQ(sink.count(), 1u);
    // The counters are live only in DESCEND_OBS builds; obs_test carries
    // the full registry coverage.
    if constexpr (obs::kEnabled) {
        EXPECT_GT(stats.events(), 0u);
        // "junk" and "more" transitions hit the trash state: children skipped.
        EXPECT_GE(stats.child_skips() + stats.sibling_skips(), 1u);
    }
}

TEST(EngineStrings, NonAsciiLabels)
{
    // UTF-8 labels are plain bytes to the engine; both bare and bracket
    // query syntax accept them.
    expect_count("$.日本", R"({"日本": 1})", 1);
    expect_count("$..日本.x", R"({"a": {"日本": {"x": 2}}})", 1);
    expect_count(R"($['ключ'])", R"({"ключ": [1, 2]})", 1);
    expect_count("$.naïve", R"({"naïve": true, "naive": false})", 1);
    expect_count("$..日本", R"({"日": {"本": {"日本": 1}}})", 1);
}

TEST(EngineStrings, SurrogatePairQueryMatchesRawNonBmpKey)
{
    // The document stores the key as raw UTF-8 (U+1F600, four bytes); the
    // query spells it as a UTF-16 surrogate pair escape. The parser decodes
    // the pair into the same four bytes, so every engine — streaming in all
    // configurations, surfer, and the DOM oracle — agrees on the match set.
    std::string key = "\xF0\x9F\x98\x80";
    std::string document =
        R"({")" + key + R"(": 1, "other": {")" + key + R"(": [2, 3]}})";
    expect_count("$['\\uD83D\\uDE00']", document, 1);
    expect_count("$..['\\uD83D\\uDE00']", document, 2);
}

TEST(EngineIntegration, GeneratedDatasetsAcrossAllConfigurations)
{
    // A medium-size realistic document: every engine configuration must
    // agree with the oracle on head-skip-heavy and child-heavy queries.
    std::string crossref = workloads::generate_crossref(300 * 1024);
    for (const char* query :
         {"$..affiliation..name", "$.items.*.author.*.ORCID", "$..DOI",
          "$..editor", "$.items.*.title", "$..author..affiliation..name",
          "$.items[0].DOI", "$..date-parts[0][1]"}) {
        expect_all_engines_agree(query, crossref);
    }
    std::string ast = workloads::generate_ast(200 * 1024);
    for (const char* query : {"$..decl.name", "$..inner..inner..type.qualType",
                              "$..loc.includedFrom.file", "$..range.end.col"}) {
        expect_all_engines_agree(query, ast);
    }
}

TEST(EngineMisc, DepthStackStaysSparseForChildFreeQueries)
{
    // Section 3.2: a child-free query with n selectors needs O(n) frames no
    // matter how deep the document nests — the frames play the role of the
    // stackless algorithm's n depth registers.
    std::string document;
    for (int i = 0; i < 200; ++i) {
        document += (i % 2 == 0) ? R"({"a":)" : R"({"b":)";
    }
    document += "1";
    document.append(200, '}');
    PaddedString padded(document);

    EngineOptions no_head;  // exercise the main loop, not head-skipping
    no_head.head_skipping = false;
    DescendEngine child_free(automaton::CompiledQuery::compile("$..a..b"), no_head);
    CountSink sink;
    RunStats stats = child_free.run_with_stats(padded, sink);
    if constexpr (obs::kEnabled) {
        EXPECT_LE(stats.max_stack(), 2u);
    }

    // The adversarial case the paper describes (A1/A2-style): a query with
    // a child selector on a document whose relevant label keeps re-entering
    // scope at alternating depths — the DFA state flips between subsets at
    // every level and the stack must track the depth.
    std::string nested;
    for (int i = 0; i < 150; ++i) {
        nested += R"({"a":{"x":)";
    }
    nested += R"({"a":{"b":1}})";
    for (int i = 0; i < 150; ++i) {
        nested += "}}";
    }
    PaddedString nested_padded(nested);
    DescendEngine mixed(automaton::CompiledQuery::compile("$..a.b"), no_head);
    CountSink mixed_sink;
    RunStats mixed_stats = mixed.run_with_stats(nested_padded, mixed_sink);
    EXPECT_EQ(mixed_sink.count(), 1u);
    if constexpr (obs::kEnabled) {
        EXPECT_GT(mixed_stats.max_stack(), 100u);
    }
}

TEST(CheckedApi, CountCheckedPropagatesStatus)
{
    DescendEngine engine = DescendEngine::for_query("$.a");
    CountResult good = engine.count_checked(PaddedString(R"({"a": 1})"));
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.count, 1u);

    // A truncated document: the unchecked count() would report this as a
    // plausible-looking number, the checked variant flags it.
    CountResult bad = engine.count_checked(PaddedString(R"({"a": 1, "b":)"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status.code, StatusCode::kUnbalancedStructure);

    CountResult truncated =
        engine.count_checked(PaddedString(R"({"a": "unclosed)"));
    EXPECT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status.code, StatusCode::kTruncatedString);
}

TEST(CheckedApi, OffsetsCheckedPropagatesStatus)
{
    DescendEngine engine = DescendEngine::for_query("$..b");
    OffsetsResult good =
        engine.offsets_checked(PaddedString(R"({"a": {"b": 2}})"));
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.offsets, (std::vector<std::size_t>{12}));

    // Unbalanced input (head-skip mode cannot flag *trailing* content, but
    // balance accounting runs during block classification on every path).
    OffsetsResult bad =
        engine.offsets_checked(PaddedString(R"({"b": [1, 2})"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status.code, StatusCode::kUnbalancedStructure);

    // The unchecked conveniences agree with the checked results on the
    // payload, they just drop the status.
    EXPECT_EQ(engine.count(PaddedString(R"({"a": {"b": 2}})")), 1u);
    EXPECT_EQ(engine.offsets(PaddedString(R"({"a": {"b": 2}})")),
              good.offsets);
}

TEST(CheckedApi, StatusSurvivesTheVirtualInterface)
{
    // Through the base-class pointer the devirtualized overrides must still
    // be reached and still report status.
    DescendEngine engine = DescendEngine::for_query("$.a");
    const JsonPathEngine& generic = engine;
    CountResult bad = generic.count_checked(PaddedString("{\"a\":"));
    EXPECT_FALSE(bad.ok());
    OffsetsResult ok = generic.offsets_checked(PaddedString("{\"a\": 5}"));
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.offsets.size(), 1u);
}

}  // namespace
}  // namespace descend
