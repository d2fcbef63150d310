/**
 * @file
 * The observability layer (src/descend/obs): gating contract, registry
 * semantics, exact counters on hand-built documents, the block-attribution
 * invariant across every option combination, per-tier counter equivalence,
 * stream aggregation, and the JSON report schema.
 *
 * Every counter assertion sits inside `if constexpr (obs::kEnabled)` so the
 * same binary builds and passes under DESCEND_OBS=OFF — where the compile-
 * time checks at the top of this file verify the registry really collapsed
 * to an empty struct.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "descend/descend.h"
#include "descend/json/dom.h"

namespace {

using namespace descend;
using obs::Counter;

// --------------------------------------------------------------------------
// Gating contract: with the gate off the registry must be an empty struct
// (no counter storage in any object that embeds one); with it on, exactly
// one word per counter. Either way the API is complete, so call sites never
// see the gate.
#if DESCEND_OBS_ENABLED
static_assert(obs::kEnabled);
static_assert(sizeof(obs::Counters) == sizeof(std::uint64_t) * obs::kCounterCount);
static_assert(sizeof(obs::Timings) == sizeof(std::uint64_t) * obs::kPhaseCount);
#else
static_assert(!obs::kEnabled);
static_assert(sizeof(obs::Counters) == 1);
static_assert(sizeof(obs::Timings) == 1);
#endif
static_assert(obs::counter_is_gauge(Counter::kDepthStackMax));
static_assert(!obs::counter_is_gauge(Counter::kBlocksClassified));

RunStats run(const std::string& document, const std::string& query,
             EngineOptions options = {}, std::size_t* matches = nullptr)
{
    PaddedString padded(document);
    DescendEngine engine(automaton::CompiledQuery::compile(query), options);
    OffsetSink sink;
    RunStats stats = engine.run_with_stats(padded, sink);
    if (matches != nullptr) {
        *matches = sink.offsets().size();
    }
    return stats;
}

EngineOptions no_skips()
{
    EngineOptions options;
    options.leaf_skipping = false;
    options.child_skipping = false;
    options.sibling_skipping = false;
    options.head_skipping = false;
    options.label_within_skipping = false;
    return options;
}

void expect_invariant(const RunStats& stats, std::size_t document_bytes)
{
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(obs::accounted_blocks(stats.counters),
                  obs::total_blocks(document_bytes));
    } else {
        EXPECT_EQ(obs::accounted_blocks(stats.counters), 0u);
    }
}

TEST(ObsRegistry, AddGetMergeAndGaugeSemantics)
{
    obs::Counters a;
    obs::Counters b;
    a.add(Counter::kChildSkips);
    a.add(Counter::kChildSkips, 4);
    a.raise(Counter::kDepthStackMax, 7);
    b.add(Counter::kChildSkips, 10);
    b.raise(Counter::kDepthStackMax, 3);
    b.raise(Counter::kDepthStackMax, 2);  // below the high-water mark: no-op
    a.merge(b);
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(a.get(Counter::kChildSkips), 15u);     // sums
        EXPECT_EQ(a.get(Counter::kDepthStackMax), 7u);   // gauge: max, not 10
        EXPECT_EQ(b.get(Counter::kDepthStackMax), 3u);
    } else {
        EXPECT_EQ(a.get(Counter::kChildSkips), 0u);      // everything no-ops
        EXPECT_EQ(a.get(Counter::kDepthStackMax), 0u);
    }
}

TEST(ObsRegistry, CounterNamesAreStableAndUnique)
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
        names.emplace_back(obs::counter_name(static_cast<Counter>(i)));
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_NE(names[i], "unknown");
        for (std::size_t j = i + 1; j < names.size(); ++j) {
            EXPECT_NE(names[i], names[j]);
        }
    }
    // Spot-check the schema anchors documented in DESIGN.md §4.6.
    EXPECT_STREQ(obs::counter_name(Counter::kBlocksClassified),
                 "blocks_classified");
    EXPECT_STREQ(obs::counter_name(Counter::kBlocksTail), "blocks_tail");
}

// --------------------------------------------------------------------------
// Exact counters on hand-built documents. The inputs are small enough to
// count structural characters by hand; the expectations below are those
// hand counts, not recorded engine output.

TEST(ObsCounters, NestedDocumentWithAllSkipsDisabled)
{
    // Unquoted structural characters: { : { : [ , ] } , : }  — 11 events,
    // of which 3 open ({, {, [). One 64-byte block; one ring fill of 8.
    const std::string doc = R"({"a": {"b": [1, 2]}, "c": 3})";
    std::size_t matches = 0;
    RunStats stats = run(doc, "$..zzz", no_skips(), &matches);
    EXPECT_TRUE(stats.status.ok());
    EXPECT_EQ(matches, 0u);
    expect_invariant(stats, doc.size());
    if constexpr (obs::kEnabled) {
        const obs::Counters& c = stats.counters;
        EXPECT_EQ(c.get(Counter::kStructuralEvents), 11u);
        EXPECT_EQ(c.get(Counter::kOpeningEvents), 3u);
        EXPECT_EQ(c.get(Counter::kBatchRefills), 1u);
        EXPECT_EQ(c.get(Counter::kBlocksClassified), 8u);
        EXPECT_EQ(c.get(Counter::kBlocksStructural), 1u);
        EXPECT_EQ(c.get(Counter::kBlocksTail), 0u);
        EXPECT_EQ(c.get(Counter::kChildSkips), 0u);
        EXPECT_EQ(c.get(Counter::kSiblingSkips), 0u);
        EXPECT_EQ(c.get(Counter::kHeadSkipJumps), 0u);
    }
}

TEST(ObsCounters, ChildSkipAttributesRejectedSubtreeBlocks)
{
    // A large rejected array ("skip") followed by the match: with child
    // skipping on, every block of the array is consumed by the depth
    // pipeline; with it off, the same blocks are walked structurally.
    std::string doc = "{\"skip\": [";
    for (int i = 0; i < 200; ++i) {
        doc += "111111, ";
    }
    doc += "0], \"a\": 1}";
    const std::size_t blocks = obs::total_blocks(doc.size());
    ASSERT_GE(blocks, 20u);

    std::size_t matches = 0;
    RunStats skipping = run(doc, "$.a", EngineOptions{}, &matches);
    EXPECT_TRUE(skipping.status.ok());
    EXPECT_EQ(matches, 1u);
    expect_invariant(skipping, doc.size());

    EngineOptions no_child;
    no_child.child_skipping = false;
    RunStats walking = run(doc, "$.a", no_child, &matches);
    EXPECT_TRUE(walking.status.ok());
    EXPECT_EQ(matches, 1u);
    expect_invariant(walking, doc.size());

    if constexpr (obs::kEnabled) {
        EXPECT_EQ(skipping.counters.get(Counter::kChildSkips), 1u);
        EXPECT_EQ(skipping.counters.get(Counter::kBlocksChildSkipped),
                  blocks - 1);
        EXPECT_EQ(skipping.counters.get(Counter::kBlocksStructural), 1u);
        // The ablated run touches every block structurally instead.
        EXPECT_EQ(walking.counters.get(Counter::kChildSkips), 0u);
        EXPECT_EQ(walking.counters.get(Counter::kBlocksChildSkipped), 0u);
        EXPECT_EQ(walking.counters.get(Counter::kBlocksStructural), blocks);
        // Child skipping also shields the main loop from the array's
        // commas: far fewer events consumed.
        EXPECT_LT(skipping.counters.get(Counter::kStructuralEvents),
                  walking.counters.get(Counter::kStructuralEvents));
    }
}

TEST(ObsCounters, HeadSkipAttributesBlocksToLabelSearch)
{
    // `$..rare` head-skips: the label search owns every block; the main
    // loop never consumes a structural event before the match.
    std::string doc = "{\"pad\": \"" + std::string(400, 'x') + "\", \"rare\": 1}";
    std::size_t matches = 0;
    RunStats stats = run(doc, "$..rare", EngineOptions{}, &matches);
    EXPECT_TRUE(stats.status.ok());
    EXPECT_EQ(matches, 1u);
    expect_invariant(stats, doc.size());
    if constexpr (obs::kEnabled) {
        const obs::Counters& c = stats.counters;
        EXPECT_EQ(c.get(Counter::kHeadSkipJumps), 1u);
        EXPECT_EQ(c.get(Counter::kLabelSearchCandidates), 1u);
        EXPECT_EQ(c.get(Counter::kLabelSearchHits), 1u);
        EXPECT_EQ(c.get(Counter::kBlocksHeadSkip),
                  obs::total_blocks(doc.size()));
        EXPECT_EQ(c.get(Counter::kBlocksStructural), 0u);
        EXPECT_EQ(c.get(Counter::kStructuralEvents), 0u);
    }
}

/** A 2000-byte (32-block, four-batch) document: `"a": 1` in block 0,
 *  then a long array of `{"k": [0]}` entries, and `"z": 2` closing the
 *  root in block 31. */
std::string four_batch_document()
{
    const std::string entry = R"(, {"k": [0]})";
    const std::string tail = R"(], "z": 2})";
    std::string doc = R"({"a": 1, "rest": [{"k": [0]})";
    while (doc.size() + entry.size() + tail.size() <= 2000) {
        doc += entry;
    }
    doc.append(2000 - tail.size() - doc.size(), ' ');
    return doc + tail;
}

TEST(ObsCounters, SiblingSkipRunIsAccountedOnce)
{
    // `$.a` matches in block 0 and sibling-skips to the root's closer in
    // block 31: block 0 is structural, blocks 1-31 are one sibling-skip
    // run over four refills. Deleting a '[' inside the skipped run leaves
    // the object-kind skip and the block attribution unchanged; only the
    // validator's array balance sees it.
    std::string doc = four_batch_document();
    ASSERT_EQ(doc.size(), 2000u);
    std::string damaged = doc;
    damaged.erase(damaged.find('[', 1000), 1);
    for (const std::string& text : {doc, damaged}) {
        std::size_t matches = 0;
        RunStats stats = run(text, "$.a", EngineOptions{}, &matches);
        EXPECT_EQ(matches, 1u);
        const EngineStatus expected =
            text == doc ? EngineStatus{}
                        : EngineStatus{StatusCode::kUnbalancedStructure, text.size()};
        EXPECT_EQ(stats.status, expected);
        expect_invariant(stats, text.size());
        if constexpr (obs::kEnabled) {
            const obs::Counters& c = stats.counters;
            EXPECT_EQ(c.get(Counter::kSiblingSkips), 1u);
            EXPECT_EQ(c.get(Counter::kBlocksStructural), 1u);
            EXPECT_EQ(c.get(Counter::kBlocksSiblingSkipped), 31u);
            EXPECT_EQ(c.get(Counter::kBlocksTail), 0u);
            EXPECT_EQ(c.get(Counter::kBatchRefills), 4u);
            EXPECT_EQ(c.get(Counter::kBlocksClassified), 32u);
        }
    }
}

TEST(ObsCounters, HeadSkipRunIsAccountedOnce)
{
    // `$..z` head-skips over the same document: the label search walks all
    // 32 blocks (four refills) to the one candidate in block 31, and the
    // iterator's own stream refills block 0 once at construction. The
    // damaged copy differs in the verdict alone.
    std::string doc = four_batch_document();
    std::string damaged = doc;
    damaged.erase(damaged.find('[', 1000), 1);
    for (const std::string& text : {doc, damaged}) {
        std::size_t matches = 0;
        RunStats stats = run(text, "$..z", EngineOptions{}, &matches);
        EXPECT_EQ(matches, 1u);
        const EngineStatus expected =
            text == doc ? EngineStatus{}
                        : EngineStatus{StatusCode::kUnbalancedStructure, text.size()};
        EXPECT_EQ(stats.status, expected);
        expect_invariant(stats, text.size());
        if constexpr (obs::kEnabled) {
            const obs::Counters& c = stats.counters;
            EXPECT_EQ(c.get(Counter::kHeadSkipJumps), 1u);
            EXPECT_EQ(c.get(Counter::kBlocksHeadSkip), 32u);
            EXPECT_EQ(c.get(Counter::kBlocksStructural), 0u);
            EXPECT_EQ(c.get(Counter::kBatchRefills), 5u);
            EXPECT_EQ(c.get(Counter::kBlocksClassified), 40u);
        }
    }
}

/** A 256-byte (four-block) document: `"a"`'s object opens in block 0
 *  with a long array "p"; its members "y" (holding `"z": [1]`) and "w"
 *  follow in block 3, then `"b": 2` closes the root. */
std::string within_document()
{
    const std::string tail = R"(0], "y": {"z": [1]}, "w": {"k": 0}}, "b": 2})";
    std::string doc = R"({"a": {"p": [)";
    while (doc.size() + 3 + tail.size() <= 256) {
        doc += "0, ";
    }
    doc.append(256 - tail.size() - doc.size(), ' ');
    return doc + tail;
}

TEST(ObsCounters, WithinSkipScansToTheAwaitedLabel)
{
    // `$.a..z` waits for "z" inside "a"'s object, which the default
    // options within-skip three times: from its opening across "p" and
    // into y's object to the array value of "z" (blocks 1-3, one run);
    // from w's opening to its closer; and from w's closer to a's closer.
    // The events the main loop sees, hand-counted: { (root), { (a),
    // [ (z, the match), ], } (y), : (w, colons on in the accepting
    // state), { (w), } (w), } (a, then a sibling skip), } (root) — 10, of
    // which 4 open. Block 0 is structural, the scan walks blocks 1-3.
    const std::string doc = within_document();
    ASSERT_EQ(doc.size(), 256u);
    ASSERT_GE(doc.find("\"y\""), 3 * simd::kBlockSize);
    std::size_t matches = 0;
    RunStats stats = run(doc, "$.a..z", EngineOptions{}, &matches);
    EXPECT_TRUE(stats.status.ok());
    EXPECT_EQ(matches, 1u);
    expect_invariant(stats, doc.size());
    std::size_t plain_matches = 0;
    EngineOptions no_within;
    no_within.label_within_skipping = false;
    RunStats plain = run(doc, "$.a..z", no_within, &plain_matches);
    EXPECT_TRUE(plain.status.ok());
    EXPECT_EQ(plain_matches, 1u);
    expect_invariant(plain, doc.size());
    if constexpr (obs::kEnabled) {
        const obs::Counters& c = stats.counters;
        EXPECT_EQ(c.get(Counter::kWithinSkips), 3u);
        EXPECT_EQ(c.get(Counter::kBlocksWithinSkipped), 3u);
        EXPECT_EQ(c.get(Counter::kBlocksStructural), 1u);
        EXPECT_EQ(c.get(Counter::kStructuralEvents), 10u);
        EXPECT_EQ(c.get(Counter::kOpeningEvents), 4u);
        EXPECT_EQ(c.get(Counter::kSiblingSkips), 1u);
        // Without the skip, every block is walked structurally.
        EXPECT_EQ(plain.counters.get(Counter::kWithinSkips), 0u);
        EXPECT_EQ(plain.counters.get(Counter::kBlocksWithinSkipped), 0u);
        EXPECT_EQ(plain.counters.get(Counter::kBlocksStructural), 4u);
        EXPECT_GT(plain.counters.get(Counter::kStructuralEvents), 10u);
    }
}

TEST(ObsCounters, IndexQueriesNeverWithinSkip)
{
    // `$..a[1]` counts array entries, so its waiting initial state must
    // not scan past arrays uncounted: the within skip stays off even
    // though it is on in the options (head-skip off, so the main loop
    // runs from the root). The comma after a's object then counts in the
    // outer array's own counter.
    const std::string doc = R"({"x": [{"a": [5, 6]}, 7]})";
    EngineOptions no_head;
    no_head.head_skipping = false;
    ASSERT_TRUE(no_head.label_within_skipping);
    PaddedString padded(doc);
    DescendEngine engine(automaton::CompiledQuery::compile("$..a[1]"), no_head);
    OffsetSink sink;
    RunStats stats = engine.run_with_stats(padded, sink);
    EXPECT_TRUE(stats.status.ok());
    EXPECT_EQ(sink.offsets(), std::vector<std::size_t>{doc.find('6')});
    expect_invariant(stats, doc.size());
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(stats.counters.get(Counter::kWithinSkips), 0u);
    }
}

TEST(ObsCounters, TrailingWhitespaceBooksAsTailBlocks)
{
    // 8 content bytes + 200 spaces = 4 blocks; the run finishes inside
    // block 0, so finish() books the remaining 3 as tail.
    const std::string doc = std::string("{\"a\": 1}") + std::string(200, ' ');
    std::size_t matches = 0;
    RunStats stats = run(doc, "$.a", EngineOptions{}, &matches);
    EXPECT_TRUE(stats.status.ok());
    EXPECT_EQ(matches, 1u);
    expect_invariant(stats, doc.size());
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(obs::total_blocks(doc.size()), 4u);
        EXPECT_EQ(stats.counters.get(Counter::kBlocksStructural), 1u);
        EXPECT_EQ(stats.counters.get(Counter::kBlocksTail), 3u);
    }
}

TEST(ObsCounters, RunStatsAccessorsMirrorTheRegistry)
{
    RunStats stats = run(R"({"a": {"b": 1}})", "$.a.b");
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(stats.events(),
                  stats.counters.get(Counter::kStructuralEvents));
        EXPECT_EQ(stats.child_skips(),
                  stats.counters.get(Counter::kChildSkips));
        EXPECT_EQ(stats.sibling_skips(),
                  stats.counters.get(Counter::kSiblingSkips));
        EXPECT_EQ(stats.head_skip_jumps(),
                  stats.counters.get(Counter::kHeadSkipJumps));
        EXPECT_EQ(stats.within_skips(),
                  stats.counters.get(Counter::kWithinSkips));
        EXPECT_EQ(stats.max_stack(),
                  stats.counters.get(Counter::kDepthStackMax));
    } else {
        EXPECT_EQ(stats.events(), 0u);
        EXPECT_EQ(stats.max_stack(), 0u);
    }
}

// --------------------------------------------------------------------------
// The block-attribution invariant — accounted == ceil(bytes / 64) — must
// hold for every option combination and every run outcome, including
// malformed documents that fail mid-stream. (The fuzzer checks the same
// invariant over millions of mutants; this is the deterministic core.)

TEST(ObsInvariant, HoldsAcrossOptionCombinationsAndOutcomes)
{
    std::string big_nested = "{\"deep\": " + std::string(40, '[') +
                             std::string(40, ']') + ", \"a\": [1, 2, 3]}";
    const std::vector<std::string> documents = {
        R"({"a": 1})",
        R"({"a": {"b": [1, 2]}, "c": 3})",
        "{\"pad\": \"" + std::string(300, 'y') + "\", \"rare\": [1]}",
        std::string("[1, 2, 3]") + std::string(500, ' '),
        big_nested,
        // Malformed: unbalanced, truncated, and garbage tails.
        R"({"a": [1, 2})",
        R"({"a": 1}]]]])",
        std::string(100, '{'),
        "",
    };
    const std::vector<std::string> queries = {"$.a", "$..rare", "$..a[1]",
                                              "$.*"};
    for (int leaf = 0; leaf < 2; ++leaf) {
        for (int child = 0; child < 2; ++child) {
            for (int head = 0; head < 2; ++head) {
                for (int within = 0; within < 2; ++within) {
                    EngineOptions options;
                    options.leaf_skipping = leaf != 0;
                    options.child_skipping = child != 0;
                    options.head_skipping = head != 0;
                    options.label_within_skipping = within != 0;
                    for (const std::string& doc : documents) {
                        for (const std::string& query : queries) {
                            RunStats stats = run(doc, query, options);
                            expect_invariant(stats, doc.size());
                        }
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// Counter values are a property of the algorithm, not of the kernel tier:
// forcing each SIMD level must reproduce identical registries. (Unavailable
// tiers fall back to the best supported one, so this is safe on any host.)

TEST(ObsTiers, CountersAreTierInvariant)
{
    std::string doc = "{\"skip\": [";
    for (int i = 0; i < 100; ++i) {
        doc += "{\"k\": \"vvvvvv\"}, ";
    }
    doc += "{}], \"a\": {\"b\": [1, 2, 3]}, \"rare\": 7}";
    const std::vector<std::string> queries = {"$.a.b", "$..rare", "$..b[2]"};
    for (const std::string& query : queries) {
        EngineOptions base;
        base.simd = simd::Level::scalar;
        std::size_t scalar_matches = 0;
        RunStats reference = run(doc, query, base, &scalar_matches);
        EXPECT_TRUE(reference.status.ok());
        for (simd::Level level : {simd::Level::avx2, simd::Level::avx512}) {
            EngineOptions options;
            options.simd = level;
            std::size_t matches = 0;
            RunStats stats = run(doc, query, options, &matches);
            EXPECT_EQ(matches, scalar_matches);
            expect_invariant(stats, doc.size());
            if constexpr (obs::kEnabled) {
                for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
                    Counter id = static_cast<Counter>(i);
                    EXPECT_EQ(stats.counters.get(id), reference.counters.get(id))
                        << query << " @ " << simd::level_name(level) << ": "
                        << obs::counter_name(id);
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// Stream aggregation: per-shard registries merge into one stream-level
// registry that is independent of the thread count, and failed records are
// tallied per status code.

TEST(ObsStream, AggregationIsThreadCountInvariant)
{
    std::string input;
    for (int i = 0; i < 64; ++i) {
        input += "{\"a\": " + std::to_string(i) + ", \"b\": [1, 2]}\n";
    }
    PaddedString padded(input);
    auto run_stream = [&](std::size_t threads) {
        stream::StreamOptions options;
        options.threads = threads;
        options.records_per_batch = 4;
        stream::StreamExecutor executor(
            automaton::CompiledQuery::compile("$.a"), options);
        stream::CountingStreamSink sink;
        return executor.run(padded, sink);
    };
    stream::StreamResult serial = run_stream(1);
    stream::StreamResult parallel = run_stream(4);
    EXPECT_EQ(serial.records, 64u);
    EXPECT_EQ(serial.matches, 64u);
    EXPECT_EQ(parallel.matches, 64u);
    EXPECT_EQ(serial.record_blocks, parallel.record_blocks);
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(obs::accounted_blocks(serial.counters), serial.record_blocks);
        EXPECT_EQ(obs::accounted_blocks(parallel.counters),
                  parallel.record_blocks);
        for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
            Counter id = static_cast<Counter>(i);
            if (obs::counter_is_gauge(id)) {
                continue;  // gauges merge by max: shard-layout dependent
            }
            EXPECT_EQ(serial.counters.get(id), parallel.counters.get(id))
                << obs::counter_name(id);
        }
    } else {
        EXPECT_EQ(serial.record_blocks, 0u);
    }
}

TEST(ObsStream, ErrorTallyCountsFailedRecordsByStatus)
{
    // Records 1 and 3 are structurally damaged; skip-record policy keeps
    // going and tallies them under their status codes (ungated: the tally
    // works even in DESCEND_OBS=OFF builds).
    const std::string input =
        "{\"a\": 1}\n"
        "{\"a\": [}\n"
        "{\"a\": 2}\n"
        "{\"a\": [1, 2}\n"
        "{\"a\": 3}\n";
    PaddedString padded(input);
    stream::StreamOptions options;
    options.threads = 1;
    stream::StreamExecutor executor(automaton::CompiledQuery::compile("$.a"),
                                    options);
    stream::CountingStreamSink sink;
    stream::StreamResult result = executor.run(padded, sink);
    EXPECT_EQ(result.records, 5u);
    EXPECT_EQ(result.matches, 3u);
    EXPECT_EQ(result.failed_records, 2u);
    std::uint64_t tallied = 0;
    for (std::size_t i = 0; i < kStatusCodeCount; ++i) {
        tallied += result.error_tally[i];
    }
    EXPECT_EQ(tallied, 2u);
    EXPECT_EQ(result.error_tally[static_cast<std::size_t>(StatusCode::kOk)], 0u);
}

// --------------------------------------------------------------------------
// JSON report: the export must be valid JSON with the documented keys, and
// the "obs" flag must reflect the build gate.

TEST(ObsReport, RunReportIsValidJsonWithSchemaKeys)
{
    const std::string doc = R"({"a": {"b": 1}})";
    std::size_t matches = 0;
    obs::RunReport report;
    report.stats = run(doc, "$..b", EngineOptions{}, &matches);
    report.engine = "descend-test";
    report.document_bytes = doc.size();
    report.matches = matches;
    std::string text = obs::to_json(report);

    json::Document parsed = json::parse(text);
    const json::Value& root = parsed.root();
    ASSERT_TRUE(root.is_object());
    ASSERT_NE(root.find("obs"), nullptr);
    EXPECT_EQ(root.find("obs")->as_bool(), obs::kEnabled);
    EXPECT_EQ(root.find("engine")->as_string(), "descend-test");
    EXPECT_EQ(root.find("matches")->as_number(), 1.0);
    const json::Value* blocks = root.find("blocks");
    ASSERT_NE(blocks, nullptr);
    EXPECT_EQ(blocks->find("accounted")->as_number(),
              blocks->find("total")->as_number());
    const json::Value* counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(counters->members().size(), obs::kCounterCount);
        ASSERT_NE(counters->find("blocks_classified"), nullptr);
        EXPECT_GT(counters->find("blocks_classified")->as_number(), 0.0);
    } else {
        EXPECT_TRUE(counters->members().empty());
    }
}

TEST(ObsReport, StreamReportCarriesErrorsObject)
{
    obs::StreamReport report;
    report.engine = "descend";
    report.document_bytes = 128;
    report.records = 3;
    report.matches = 2;
    report.failed_records = 1;
    report.error_tally[static_cast<std::size_t>(
        StatusCode::kUnbalancedStructure)] = 1;
    std::string text = obs::to_json(report);
    json::Document parsed = json::parse(text);
    const json::Value& root = parsed.root();
    ASSERT_NE(root.find("errors"), nullptr);
    const json::Value* errors = root.find("errors");
    ASSERT_EQ(errors->members().size(), 1u);
    EXPECT_EQ(errors->members().front().key,
              status_name(StatusCode::kUnbalancedStructure));
    EXPECT_EQ(errors->members().front().value->as_number(), 1.0);
    EXPECT_EQ(root.find("records")->as_number(), 3.0);
    EXPECT_EQ(root.find("failed_records")->as_number(), 1.0);
}

}  // namespace
