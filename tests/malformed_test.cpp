/**
 * @file
 * Adversarial and malformed-input behaviour of all four engines.
 *
 * Every test feeds a damaged (or resource-exhausting) document to the main
 * engine (in several configurations), the surfer and JSONSki baselines,
 * and the DOM oracle, and demands a structured non-ok EngineStatus — never
 * a silently truncated match set, never a crash. Where the detection point
 * is engine-independent the exact code (and sometimes offset) is pinned
 * down; where engines legitimately classify differently (e.g. the DOM's
 * grammar-first view), only non-ok-ness is demanded.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "descend/engine/padded_string.h"
#include "descend/simd/dispatch.h"
#include "descend/baselines/dom_engine.h"
#include "descend/baselines/ski_engine.h"
#include "descend/baselines/surfer_engine.h"
#include "descend/descend.h"
#include "descend/engine/validation.h"
#include "descend/multi/fused.h"
#include "descend/util/errors.h"

namespace descend {
namespace {

EngineStatus descend_status(const std::string& query, const std::string& document,
                            EngineOptions options = {})
{
    DescendEngine engine(automaton::CompiledQuery::compile(query), options);
    CountSink sink;
    return engine.run(PaddedString(document), sink);
}

EngineStatus surfer_status(const std::string& query, const std::string& document,
                           EngineLimits limits = {})
{
    SurferEngine engine(automaton::CompiledQuery::compile(query), limits);
    CountSink sink;
    return engine.run(PaddedString(document), sink);
}

EngineStatus dom_status(const std::string& query, const std::string& document,
                        EngineLimits limits = {})
{
    DomEngine engine(query::Query::parse(query), limits);
    CountSink sink;
    return engine.run(PaddedString(document), sink);
}

EngineStatus ski_status(const std::string& query, const std::string& document,
                        EngineLimits limits = {})
{
    SkiEngine engine(query::Query::parse(query), simd::Level::avx2, limits);
    CountSink sink;
    return engine.run(PaddedString(document), sink);
}

/** Main-engine configurations that exercise distinct detection paths. */
std::vector<EngineOptions> descend_configurations()
{
    std::vector<EngineOptions> configurations;
    for (simd::Level level :
         {simd::Level::avx512, simd::Level::avx2, simd::Level::scalar}) {
        EngineOptions defaults;
        defaults.simd = level;
        configurations.push_back(defaults);
        EngineOptions no_skips;
        no_skips.simd = level;
        no_skips.leaf_skipping = false;
        no_skips.child_skipping = false;
        no_skips.sibling_skipping = false;
        no_skips.head_skipping = false;
        configurations.push_back(no_skips);
        EngineOptions within;
        within.simd = level;
        within.label_within_skipping = true;
        configurations.push_back(within);
    }
    return configurations;
}

/**
 * Asserts the full cross-engine contract for a damaged document: every
 * engine and every main-engine configuration reports a non-ok status.
 * @param ski_query a child-only query for the JSONSki baseline (it rejects
 *        descendants at construction).
 */
void expect_all_engines_reject(const std::string& query,
                               const std::string& ski_query,
                               const std::string& document)
{
    SCOPED_TRACE("document: " + document);
    for (const EngineOptions& options : descend_configurations()) {
        EngineStatus status = descend_status(query, document, options);
        EXPECT_FALSE(status.ok()) << "descend accepted damaged input";
    }
    EXPECT_FALSE(surfer_status(query, document).ok())
        << "surfer accepted damaged input";
    EXPECT_FALSE(dom_status(query, document).ok()) << "dom accepted damaged input";
    EXPECT_FALSE(ski_status(ski_query, document).ok())
        << "jsonski accepted damaged input";
}

TEST(Malformed, StrayCloserAtRoot)
{
    // The document is nothing but a stray closer.
    for (const std::string& document : {std::string("}"), std::string("]")}) {
        expect_all_engines_reject("$..a", "$.a", document);
    }
    // The event-driven engines pin down the exact offset (a `$.a` query
    // avoids head-skip mode, whose validator reports end-of-input offsets).
    EXPECT_EQ(descend_status("$.a", "}"),
              (EngineStatus{StatusCode::kUnbalancedStructure, 0}));
    EXPECT_EQ(surfer_status("$..a", "]"),
              (EngineStatus{StatusCode::kUnbalancedStructure, 0}));
}

TEST(Malformed, CloserAfterRoot)
{
    expect_all_engines_reject("$..a", "$.a", "{\"a\": 1}}");
    expect_all_engines_reject("$..a", "$.a", "[1, 2]]");
}

TEST(Malformed, MismatchedCloserKind)
{
    // An array closed by '}'.
    std::string document = "{\"a\": [1, 2}}";
    expect_all_engines_reject("$..a", "$.a", document);
    EXPECT_EQ(descend_status("$..a", document),
              (EngineStatus{StatusCode::kUnbalancedStructure, 11}));
    EXPECT_EQ(surfer_status("$..a", document),
              (EngineStatus{StatusCode::kUnbalancedStructure, 11}));
}

TEST(Malformed, StrayCloserInsideSkippedRegion)
{
    // The '}' inside the array is invisible to a kind-filtered array skip:
    // only the whole-document balance validator can see it. This is the
    // motivating case for StructuralValidator (engine/validation.h).
    expect_all_engines_reject("$..b", "$.b", "{\"a\": [}]}");
    EXPECT_EQ(ski_status("$.b", "{\"a\": [}]}").code,
              StatusCode::kUnbalancedStructure);
}

TEST(Malformed, InputEndsInsideContainers)
{
    expect_all_engines_reject("$..a", "$.a", "{\"a\": [1, 2");
    expect_all_engines_reject("$..a", "$.a", "[[[");
    EXPECT_EQ(descend_status("$..a", "{\"a\": [1, 2").code,
              StatusCode::kUnbalancedStructure);
}

TEST(Malformed, UnterminatedString)
{
    std::string document = "{\"a\": \"unterminated";
    expect_all_engines_reject("$..a", "$.a", document);
    EXPECT_EQ(descend_status("$..a", document).code, StatusCode::kTruncatedString);
    EXPECT_EQ(surfer_status("$..a", document).code, StatusCode::kTruncatedString);
    EXPECT_EQ(dom_status("$..a", document).code, StatusCode::kTruncatedString);
    EXPECT_EQ(ski_status("$.a", document).code, StatusCode::kTruncatedString);
}

TEST(Malformed, LoneBackslashAtEndOfInput)
{
    // The escape consumes the (absent) next byte, so the string never
    // closes — even though the document's last byte is a quote.
    std::string document = "{\"a\": \"x\\";
    expect_all_engines_reject("$..a", "$.a", document);
    EXPECT_EQ(descend_status("$..a", document).code, StatusCode::kTruncatedString);
    EXPECT_EQ(surfer_status("$..a", document).code, StatusCode::kTruncatedString);

    std::string quote_escaped = "{\"a\": \"x\\\"";
    expect_all_engines_reject("$..a", "$.a", quote_escaped);
    EXPECT_EQ(descend_status("$..a", quote_escaped).code,
              StatusCode::kTruncatedString);
}

TEST(Malformed, EmptyAndWhitespaceOnlyInput)
{
    for (const std::string& document :
         {std::string(""), std::string("   "), std::string("\n\t \r\n")}) {
        expect_all_engines_reject("$..a", "$.a", document);
        EXPECT_EQ(descend_status("$..a", document).code,
                  StatusCode::kEmptyDocument);
        EXPECT_EQ(surfer_status("$..a", document).code,
                  StatusCode::kEmptyDocument);
        EXPECT_EQ(dom_status("$..a", document).code, StatusCode::kEmptyDocument);
        EXPECT_EQ(ski_status("$.a", document).code, StatusCode::kEmptyDocument);
    }
}

TEST(Malformed, ByteOrderMarkPrefix)
{
    std::string document = "\xEF\xBB\xBF{\"a\": 1}";
    expect_all_engines_reject("$..a", "$.a", document);
    EXPECT_EQ(descend_status("$..a", document),
              (EngineStatus{StatusCode::kInvalidDocument, 0}));
    EXPECT_EQ(dom_status("$..a", document),
              (EngineStatus{StatusCode::kInvalidDocument, 0}));
}

TEST(Malformed, InvalidUtf8InLabel)
{
    // 0xFF can never appear in UTF-8; 0xC3 unfollowed is truncated.
    std::string document = "{\"\xFF\xFE\": {\"b\": 1}}";
    // Head-skip mode jumps straight to "b" occurrences and never inspects
    // the damaged label, so pin the event-driven path explicitly.
    EngineOptions no_head;
    no_head.head_skipping = false;
    EXPECT_EQ(descend_status("$..b", document, no_head).code,
              StatusCode::kInvalidUtf8InLabel);
    EXPECT_EQ(surfer_status("$..b", document).code,
              StatusCode::kInvalidUtf8InLabel);
    EXPECT_EQ(dom_status("$..b", document).code, StatusCode::kInvalidUtf8InLabel);
    EXPECT_EQ(ski_status("$.a", document).code, StatusCode::kInvalidUtf8InLabel);

    // Valid multi-byte labels must pass.
    std::string valid = "{\"caf\xC3\xA9\": 1}";
    EXPECT_TRUE(descend_status("$..x", valid).ok());
    EXPECT_TRUE(dom_status("$..x", valid).ok());
}

TEST(Malformed, InvalidUtf8AtEveryPositionOfALabel)
{
    // The label check skips whole 8-byte ASCII words before its byte loop:
    // a bad byte at every position 0-23 of labels 1-24 bytes long lands in
    // the first, second and third word and in the byte tail. Every tier of
    // the main engine and of a fused set reports the DOM oracle's
    // {code, offset}. Head skipping and within-element skipping would jump
    // past the label, so the event-driven path is pinned.
    const std::vector<std::string> set = {"$.*.b", "$.x.y", "$..c.d"};
    for (std::size_t length = 1; length <= 24; ++length) {
        for (std::size_t bad = 0; bad < length; ++bad) {
            std::string label(length, 'k');
            label[bad] = '\xFF';
            std::string document = "{\"x\": 1, \"" + label + "\": {\"b\": 1}}";
            SCOPED_TRACE("label length " + std::to_string(length) +
                         ", bad byte at " + std::to_string(bad));
            EngineStatus expected = dom_status("$.*.b", document);
            ASSERT_EQ(expected.code, StatusCode::kInvalidUtf8InLabel);
            for (const EngineOptions& base : descend_configurations()) {
                EngineOptions options = base;
                options.head_skipping = false;
                options.label_within_skipping = false;
                EXPECT_EQ(descend_status("$.*.b", document, options), expected);
                multi::FusedEngine fused(multi::MultiQuery::compile(set), options);
                multi::CountingMultiSink sink(set.size());
                EXPECT_EQ(fused.run(PaddedString(document), sink), expected);
            }
        }
    }
}

TEST(Limits, DeepNestingHitsDepthLimit)
{
    // 10k-deep nesting exceeds the default 1024 limit in every engine —
    // previously a recipe for unbounded stack growth. Object nesting keyed
    // on the queried label makes even the head-skip path descend.
    std::string document;
    for (int i = 0; i < 10000; ++i) document += "{\"a\":";
    document += "1";
    document.append(10000, '}');
    expect_all_engines_reject("$..a", "$.a", document);
    EXPECT_EQ(descend_status("$..a", document).code, StatusCode::kDepthLimit);
    EXPECT_EQ(surfer_status("$..a", document).code, StatusCode::kDepthLimit);
    EXPECT_EQ(dom_status("$..a", document).code, StatusCode::kDepthLimit);
    EXPECT_EQ(ski_status("$.a", document).code, StatusCode::kDepthLimit);
}

TEST(Limits, ConfigurableDepthLimit)
{
    // 6 levels of nesting, keyed on the queried label so every engine
    // configuration (including head-skip subruns) traverses the depth.
    std::string document = "{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":1}}}}}}";
    EngineLimits limits;
    limits.max_depth = 4;
    EngineOptions options;
    options.limits = limits;
    EXPECT_EQ(descend_status("$..a", document, options).code,
              StatusCode::kDepthLimit);
    EXPECT_EQ(surfer_status("$..a", document, limits).code,
              StatusCode::kDepthLimit);
    EXPECT_EQ(dom_status("$..a", document, limits).code, StatusCode::kDepthLimit);
    EXPECT_EQ(ski_status("$.a", document, limits).code, StatusCode::kDepthLimit);

    // At exactly the limit every engine still accepts.
    limits.max_depth = 6;
    options.limits = limits;
    EXPECT_TRUE(descend_status("$..a", document, options).ok());
    EXPECT_TRUE(surfer_status("$..a", document, limits).ok());
    EXPECT_TRUE(dom_status("$..a", document, limits).ok());
    EXPECT_TRUE(ski_status("$.a", document, limits).ok());
}

TEST(Limits, DocumentSizeLimit)
{
    std::string document = "{\"a\": [1, 2, 3, 4, 5, 6, 7, 8]}";
    EngineLimits limits;
    limits.max_document_size = 16;
    EngineOptions options;
    options.limits = limits;
    EXPECT_EQ(descend_status("$..a", document, options).code,
              StatusCode::kSizeLimit);
    EXPECT_EQ(surfer_status("$..a", document, limits).code, StatusCode::kSizeLimit);
    EXPECT_EQ(dom_status("$..a", document, limits).code, StatusCode::kSizeLimit);
    EXPECT_EQ(ski_status("$.a", document, limits).code, StatusCode::kSizeLimit);
}

TEST(Limits, MatchCountLimit)
{
    std::string document = "[1, 2, 3, 4, 5]";
    EngineLimits limits;
    limits.max_match_count = 2;
    EngineOptions options;
    options.limits = limits;
    EXPECT_EQ(descend_status("$.*", document, options).code,
              StatusCode::kMatchLimit);
    EXPECT_EQ(surfer_status("$.*", document, limits).code, StatusCode::kMatchLimit);
    EXPECT_EQ(dom_status("$.*", document, limits).code, StatusCode::kMatchLimit);
    EXPECT_EQ(ski_status("$.*", document, limits).code, StatusCode::kMatchLimit);

    limits.max_match_count = 5;
    options.limits = limits;
    EXPECT_TRUE(descend_status("$.*", document, options).ok());
    EXPECT_TRUE(surfer_status("$.*", document, limits).ok());
}

TEST(Limits, StatusOffsetsAlignAcrossEngines)
{
    // The alignment contract: tightening one knob just below a valid
    // document's needs yields the IDENTICAL {code, offset} from the main
    // engine (every configuration), surfer, JSONSki and the DOM oracle.
    //
    // Depth: the first opener that reaches the forbidden depth. "a" keys
    // the nesting so head-skip subruns traverse it too.
    std::string deep = R"({"a": {"a": {"a": 1}}})";
    EngineLimits limits;
    limits.max_depth = 2;
    EngineStatus expected{StatusCode::kDepthLimit, 12};  // third '{'
    EXPECT_EQ(surfer_status("$..a", deep, limits), expected);
    EXPECT_EQ(dom_status("$..a", deep, limits), expected);
    EXPECT_EQ(ski_status("$.a.a.a", deep, limits), expected);
    for (const EngineOptions& base : descend_configurations()) {
        EngineOptions options = base;
        options.limits = limits;
        // Head-skip subruns measure depth relative to the matched label's
        // element, so the absolute-depth expectation is exempt there.
        if (options.head_skipping) {
            continue;
        }
        EXPECT_EQ(descend_status("$..a", deep, options), expected);
    }

    // Match count: the offset of the first match past the budget.
    std::string list = "[1, 22, 333]";
    limits = {};
    limits.max_match_count = 2;
    EngineStatus third_match{StatusCode::kMatchLimit, 8};
    EXPECT_EQ(surfer_status("$.*", list, limits), third_match);
    EXPECT_EQ(dom_status("$.*", list, limits), third_match);
    EXPECT_EQ(ski_status("$.*", list, limits), third_match);
    for (const EngineOptions& base : descend_configurations()) {
        EngineOptions options = base;
        options.limits = limits;
        EXPECT_EQ(descend_status("$.*", list, options), third_match);
    }

    // Size: the shared preflight reports the limit itself as the offset.
    limits = {};
    limits.max_document_size = list.size() - 1;
    EngineStatus too_big{StatusCode::kSizeLimit, limits.max_document_size};
    EXPECT_EQ(surfer_status("$.*", list, limits), too_big);
    EXPECT_EQ(dom_status("$.*", list, limits), too_big);
    EXPECT_EQ(ski_status("$.*", list, limits), too_big);
    for (const EngineOptions& base : descend_configurations()) {
        EngineOptions options = base;
        options.limits = limits;
        EXPECT_EQ(descend_status("$.*", list, options), too_big);
    }
}

TEST(Limits, DepthLimitSeesThroughSkippedMixedBracketKinds)
{
    // Regression: skip_until_depth_zero used to count only the skipped
    // element's own bracket kind, so nesting of the OTHER kind inside a
    // skipped subtree was invisible to the depth limit — the same-kind
    // trick (§4.3) is sound for finding the matching closer but not for
    // absolute depth accounting. Here $.b child-skips the "a" object whose
    // payload nests arrays five deep.
    std::string document = R"({"a": {"x": [[[[1]]]]}, "b": 2})";
    EngineLimits limits;
    limits.max_depth = 4;
    EngineOptions options;  // defaults: child skipping on
    options.limits = limits;
    EXPECT_EQ(descend_status("$.b", document, options).code,
              StatusCode::kDepthLimit);
    // And the aligned offset, against the engines that walk everything:
    // the fourth-level opener (the '[' at byte 15 is depth 4... the first
    // opener to EXCEED the limit is the '[' reaching depth 5).
    EngineStatus expected = dom_status("$.b", document, limits);
    EXPECT_EQ(expected.code, StatusCode::kDepthLimit);
    EXPECT_EQ(surfer_status("$.b", document, limits), expected);
    for (const EngineOptions& base : descend_configurations()) {
        EngineOptions configured = base;
        configured.limits = limits;
        EXPECT_EQ(descend_status("$.b", document, configured), expected);
    }
    // A limit the document fits under stays clean — the skip still
    // terminates correctly on the same-kind closer.
    limits.max_depth = 8;
    options.limits = limits;
    EXPECT_TRUE(descend_status("$.b", document, options).ok());
    EXPECT_EQ(descend_status("$.b", document, options), EngineStatus{});
}

/**
 * Asserts the DOM oracle's {code, offset} from every main-engine
 * configuration (all three tiers) on @p document, run as a slice of a
 * buffer holding @p document followed by @p tail. On a clean run the
 * match offsets must equal the oracle's too.
 */
void expect_dom_status_on_every_tier(const std::string& query,
                                     const std::string& document,
                                     const EngineLimits& limits,
                                     const std::string& tail = "")
{
    SCOPED_TRACE("document: " + document + " | tail: " + tail);
    DomEngine dom(query::Query::parse(query), limits);
    OffsetSink expected_matches;
    const EngineStatus expected = dom.run(PaddedString(document), expected_matches);
    PaddedString buffer(document + tail);
    const PaddedView slice = PaddedView(buffer).subview(0, document.size());
    for (const EngineOptions& base : descend_configurations()) {
        EngineOptions options = base;
        options.limits = limits;
        DescendEngine engine(automaton::CompiledQuery::compile(query), options);
        OffsetSink matches;
        const EngineStatus status = engine.run(slice, matches);
        const std::string configuration =
            std::string(simd::level_name(options.simd)) +
            (options.head_skipping ? "" : " no-head-skip") +
            (options.child_skipping ? "" : " no-child-skip");
        EXPECT_EQ(status, expected) << configuration;
        if (expected.ok() && status.ok()) {
            EXPECT_EQ(matches.offsets(), expected_matches.offsets()) << configuration;
        }
    }
}

TEST(BlockCounts, SkipWhoseFirstBlockIsClippedByTheFloor)
{
    // "a"'s value opens mid-block behind three unclosed '[' and a '{' that
    // the skip must not count (they sit below its floor); the rest of
    // that block has no closer outside strings, so the block-skip test
    // consumes it whole on its clipped counts. The value then nests
    // through whole blocks whose counts come from the batch.
    std::string head = R"([[[{"a": [{"s": "]]]", "t": [)";
    head += std::string(simd::kBlockSize - head.size(), ' ');
    std::string nested;
    for (int i = 0; i < 30; ++i) {
        nested += R"({"x": [[1, "]]"], [2]]}, )";
    }
    nested += "[[[[[[0]]]]]]]}]";
    const std::string document = head + nested + R"(, "b": 7}]]])";
    // The deepest opener is at depth 13.
    for (std::size_t depth : {std::size_t{5}, std::size_t{9}, std::size_t{12},
                              std::size_t{13}}) {
        EngineLimits limits;
        limits.max_depth = depth;
        expect_dom_status_on_every_tier("$.*.*.*.b", document, limits);
    }
    // Unlimited: clean, with the oracle's match.
    EXPECT_TRUE(dom_status("$.*.*.*.b", document).ok());
    expect_dom_status_on_every_tier("$.*.*.*.b", document, EngineLimits{});
}

TEST(BlockCounts, SliceEndingInTheMiddleOfABlock)
{
    // The slices end mid-block; the rest of the buffer holds closers and
    // strings that would balance (or unbalance) them if any byte past the
    // end bound were counted.
    const std::string body = R"({"a": [)" + std::string(100, ' ') +
                             R"([1, [2]], {"b": [[3]]}], "b": 4})";
    ASSERT_NE(body.size() % simd::kBlockSize, 0u);
    for (const std::string& tail :
         {std::string("]]]]}}}}"), std::string("[[[[{{{{"), std::string("\"]]}"),
          std::string(200, '[')}) {
        expect_dom_status_on_every_tier("$.b", body, EngineLimits{}, tail);
        expect_dom_status_on_every_tier("$..b", body, EngineLimits{}, tail);
        EngineLimits limits;
        limits.max_depth = 4;  // the '[' of [[3]] exceeds it
        expect_dom_status_on_every_tier("$.b", body, limits, tail);
    }
}

TEST(BlockCounts, DepthLimitHitExactlyAtABlockBoundary)
{
    // The opener exceeding the limit sits at byte 63, then 64, then 127
    // and 128: the last bit of a block and the first of the next, under a
    // child skip ($.b skips "a") and under plain iteration ($.a.*).
    const std::size_t limit = 5;
    for (std::size_t opener_at : {std::size_t{63}, std::size_t{64},
                                  std::size_t{127}, std::size_t{128}}) {
        // {"a": [[[[ <spaces> [0]]]]], "b": 1}: the root plus four '[' put
        // the element at depth 5; the '[' at @p opener_at is depth 6.
        std::string document = R"({"a": [[[[)";
        document += std::string(opener_at - document.size(), ' ');
        document += R"([0]]]]], "b": 1})";
        EngineLimits limits;
        limits.max_depth = limit;
        const EngineStatus dom = dom_status("$.b", document, limits);
        EXPECT_EQ(dom, (EngineStatus{StatusCode::kDepthLimit, opener_at}));
        expect_dom_status_on_every_tier("$.b", document, limits);
        expect_dom_status_on_every_tier("$.a.*", document, limits);
    }
}

TEST(Malformed, RaiseStatusBridgesToExceptions)
{
    raise_status({});  // ok: no-op
    EXPECT_THROW(raise_status({StatusCode::kDepthLimit, 12}), ResourceLimitError);
    EXPECT_THROW(raise_status({StatusCode::kMatchLimit, 3}), ResourceLimitError);
    EXPECT_THROW(raise_status({StatusCode::kUnbalancedStructure, 7}),
                 DocumentError);
    try {
        raise_status({StatusCode::kTruncatedString, 41});
        FAIL() << "raise_status did not throw";
    } catch (const DocumentError& error) {
        EXPECT_EQ(error.status().code, StatusCode::kTruncatedString);
        EXPECT_EQ(error.status().offset, 41u);
    }
}

TEST(Malformed, TrailingContentAfterRoot)
{
    // `$.a` keeps the main engine on the event-driven path: head-skip mode
    // never observes the root element, so it cannot flag trailing content
    // (documented limitation — the balance validator sees nothing wrong
    // with `{"a": 1} true`).
    std::string document = "{\"a\": 1} true";
    EXPECT_EQ(descend_status("$.a", document).code, StatusCode::kTrailingContent);
    EXPECT_EQ(surfer_status("$..a", document).code, StatusCode::kTrailingContent);
    EXPECT_EQ(dom_status("$..a", document).code, StatusCode::kTrailingContent);
    EXPECT_EQ(ski_status("$.a", document).code, StatusCode::kTrailingContent);
}

/**
 * Regression guard for the padded-string contract: damage parked exactly at
 * SIMD block boundaries (the classifiers' resume points) must still be
 * detected, and well-formed documents of block-straddling sizes must pass.
 */
TEST(PaddedStringBoundary, BlockAlignedTruncation)
{
    // Build a valid document, then make its *total size* land exactly on
    // 64/128/192-byte boundaries by padding a string value, and truncate
    // at each boundary.
    for (std::size_t target : {64u, 128u, 192u}) {
        std::string prefix = "{\"k\": \"";
        std::string suffix = "\"}";
        std::string filler(target - prefix.size() - suffix.size(), 'x');
        std::string document = prefix + filler + suffix;
        ASSERT_EQ(document.size(), target);
        EXPECT_TRUE(descend_status("$..k", document).ok()) << target;
        EXPECT_TRUE(ski_status("$.k", document).ok()) << target;

        // Truncating inside the string, exactly at the previous block
        // boundary, must be flagged by every engine.
        std::string truncated = document.substr(0, target - suffix.size());
        expect_all_engines_reject("$..k", "$.k", truncated);
        EXPECT_EQ(descend_status("$..k", truncated).code,
                  StatusCode::kTruncatedString);
    }
}

TEST(PaddedStringBoundary, PaddingIsInert)
{
    // A document whose final byte is the root closer, at every size in a
    // two-block window: the padding past size() must never produce events
    // or matches.
    for (std::size_t extra = 0; extra < 130; ++extra) {
        std::string document = "{\"pad\": \"" + std::string(extra, 'y') + "\"}";
        DescendEngine engine(automaton::CompiledQuery::compile("$..pad"));
        OffsetSink sink;
        EngineStatus status = engine.run(PaddedString(document), sink);
        ASSERT_TRUE(status.ok()) << "size " << document.size();
        ASSERT_EQ(sink.offsets().size(), 1u) << "size " << document.size();
    }
}

TEST(Validation, PreflightClassification)
{
    EngineLimits limits;
    EXPECT_EQ(preflight_document(PaddedString(""), limits).code,
              StatusCode::kEmptyDocument);
    EXPECT_EQ(preflight_document(PaddedString("  "), limits).code,
              StatusCode::kEmptyDocument);
    EXPECT_EQ(preflight_document(PaddedString("\xEF\xBB\xBF{}"), limits).code,
              StatusCode::kInvalidDocument);
    EXPECT_TRUE(preflight_document(PaddedString("{}"), limits).ok());
    limits.max_document_size = 1;
    EXPECT_EQ(preflight_document(PaddedString("{}"), limits).code,
              StatusCode::kSizeLimit);
}

}  // namespace
}  // namespace descend
