/**
 * @file
 * The projection subsystem (src/descend/project): span extension against
 * the scalar extraction oracle across SIMD tiers, every sink against
 * DOM-oracle extraction across fused backends, the NDJSON record-boundary
 * contract, the LazyValue invariants of lazy_value.h, and the serve
 * protocol's projected-values body (round-trip, truncation, admission).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "descend/descend.h"
#include "descend/multi/fused.h"
#include "descend/serve/dispatch.h"
#include "descend/serve/protocol.h"
#include "descend/serve/query_cache.h"
#include "descend/stream/record_splitter.h"
#include "test_helpers.h"

namespace descend {
namespace {

using project::CountingProjectionSink;
using project::LazyValue;
using project::NdjsonSink;
using project::ProjectingMatchSink;
using project::SliceSink;
using project::SpanExtender;
using project::ValueSpan;

const std::vector<simd::Level> kTiers = {
    simd::Level::scalar, simd::Level::avx2, simd::Level::avx512};

/** All value-start offsets of @p document per the DOM oracle of $..*,
 *  plus the document root itself: every value is an extension subject. */
std::vector<std::size_t> every_value_offset(const std::string& document)
{
    std::vector<std::size_t> offsets = testing::oracle_offsets("$..*", document);
    offsets.push_back(0);
    std::sort(offsets.begin(), offsets.end());
    offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
    return offsets;
}

// ---------------------------------------------------------------------------
// SpanExtender: differential against the scalar oracle, per tier.
// ---------------------------------------------------------------------------

/** Documents chosen to cross every extension path: values within one
 *  block, values crossing a block boundary, subtrees long enough for the
 *  lean walk AND the batch-ring handoff (> 7 blocks), escapes at nasty
 *  positions, UTF-8 keys, zero-length values. */
std::vector<std::string> torture_documents()
{
    std::vector<std::string> documents = {
        "{}",
        "[]",
        "\"\"",
        "7",
        "{\"a\": 1, \"b\": [1, 2, 3], \"c\": {\"d\": null}}",
        "{\"key\": \"value with \\\" escaped quote\", \"b\": \"\\\\\"}",
        "{\"\\u00fcml\\u00e4ut\": {\"snowman\u2603\": [true, false]},"
        " \"\u00e9\": \"caf\u00e9 \\n newline\"}",
        "{\"empty_string\": \"\", \"empty_object\": {}, \"empty_array\": [],"
        " \"zero\": 0}",
        "[[[[[[[[1]]]]]]]]",
    };
    // A string spanning many blocks, with backslash runs straddling the
    // 64-byte boundaries (the escape carry of the string walk).
    std::string long_string = "{\"pad\": \"";
    while (long_string.size() % 64 != 62) {
        long_string += 'x';
    }
    long_string += "\\\\\\\"";  // run across the boundary
    long_string.append(700, 'y');
    long_string += "\", \"tail\": 1}";
    documents.push_back(long_string);
    // A container spanning well past the lean-walk budget, with structural
    // characters hidden inside strings.
    std::string big = "{\"big\": [";
    for (int i = 0; i < 120; ++i) {
        big += "{\"k" + std::to_string(i) + "\": \"}]},[{\", \"n\": " +
               std::to_string(i) + "},";
    }
    big += "0], \"after\": \"}\"}";
    documents.push_back(big);
    return documents;
}

TEST(SpanExtension, MatchesScalarOracleOnEveryValueEveryTier)
{
    for (const std::string& text : torture_documents()) {
        PaddedString document(text);
        for (simd::Level level : kTiers) {
            SpanExtender extender(document, simd::kernels_for(level));
            for (std::size_t offset : every_value_offset(text)) {
                const ValueSpan expected =
                    project::extend_value_span(document, offset);
                const ValueSpan got = extender.extend(offset);
                EXPECT_EQ(got, expected)
                    << "offset " << offset << " tier "
                    << simd::level_name(level) << " doc: " << text;
                EXPECT_EQ(extender.slice(got), extract_value(document, offset));
            }
        }
    }
}

TEST(SpanExtension, OutOfRangeOffsetYieldsEmptySpan)
{
    PaddedString document(std::string("{\"a\": 1}"));
    SpanExtender extender(document, simd::best_kernels());
    const ValueSpan span = extender.extend(document.size() + 5);
    EXPECT_TRUE(span.empty());
}

TEST(SpanExtension, UnclosedValueClampsToViewEnd)
{
    // Malformed on purpose: extension must clamp, exactly as the oracle.
    for (const std::string& text :
         {std::string("{\"a\": [1, 2"), std::string("{\"a\": \"runaway")}) {
        PaddedString document(text);
        for (simd::Level level : kTiers) {
            SpanExtender extender(document, simd::kernels_for(level));
            const std::size_t offset = text.find_first_of("[\"", 5);
            EXPECT_EQ(extender.extend(offset),
                      project::extend_value_span(document, offset));
        }
    }
}

TEST(SpanExtension, FeedsProjectionCounters)
{
    if constexpr (!obs::kEnabled) {
        GTEST_SKIP() << "obs counters compiled out";
    }
    PaddedString document(std::string("{\"a\": [1, 2], \"b\": \"xy\"}"));
    obs::Counters counters;
    SpanExtender extender(document, simd::best_kernels(), &counters);
    const ValueSpan array_span = extender.extend(6);
    extender.extend(19);  // the "xy" string
    EXPECT_EQ(counters.get(obs::Counter::kProjectedValues), 2u);
    EXPECT_EQ(counters.get(obs::Counter::kProjectedBytes),
              array_span.size() + 4);
}

// ---------------------------------------------------------------------------
// Sinks: engine runs against DOM-oracle extraction, per tier and backend.
// ---------------------------------------------------------------------------

struct SinkCase {
    const char* query;
    const char* document;
};

std::vector<SinkCase> sink_cases()
{
    return {
        {"$..b", "{\"a\": {\"b\": 1, \"c\": {\"b\": [2, {\"x\": 3}]}},"
                 " \"b\": \"four\"}"},
        // Escapes and UTF-8 keys survive byte-verbatim.
        {"$..text", "{\"text\": \"tab\\t\\\"quote\\\" \\u2603\","
                    " \"inner\": {\"text\": \"caf\u00e9\"}}"},
        {"$.*.v", "{\"\u00fc\": {\"v\": {}}, \"\u2603\": {\"v\": \"\"},"
                  " \"c\": {\"v\": []}}"},
        {"$..deep", "{\"deep\": {\"deep\": {\"deep\": [null, true]}}}"},
    };
}

TEST(ProjectionSinks, SlicesMatchDomExtractionEveryTier)
{
    for (const SinkCase& test_case : sink_cases()) {
        const std::string text = test_case.document;
        PaddedString document(text);
        const std::vector<std::size_t> expected_offsets =
            testing::oracle_offsets(test_case.query, text);
        const std::vector<std::string_view> expected =
            extract_values(document, expected_offsets);
        for (simd::Level level : kTiers) {
            EngineOptions options;
            options.simd = level;
            DescendEngine engine(
                automaton::CompiledQuery::compile(test_case.query), options);
            SpanExtender extender(document, simd::kernels_for(level));
            SliceSink slices;
            ProjectingMatchSink sink(extender, slices);
            ASSERT_TRUE(engine.run(document, sink).ok());
            ASSERT_EQ(slices.slices().size(), expected.size())
                << test_case.query;
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(slices.slices()[i], expected[i]);
                EXPECT_EQ(slices.spans()[i].begin, expected_offsets[i]);
            }
        }
    }
}

TEST(ProjectionSinks, FusedLegsProjectPerQueryMatchingSingleRuns)
{
    const std::string text =
        "{\"items\": [{\"name\": \"a\", \"price\": {\"amount\": 1}},"
        " {\"name\": \"b\\\"q\", \"price\": {\"amount\": 2}}]}";
    PaddedString document(text);
    const std::vector<std::string> queries = {"$..name", "$..amount",
                                              "$.items.*.price"};
    for (const auto& fused : testing::fused_legs(queries)) {
        multi::CollectingMultiSink collected(queries.size());
        ASSERT_TRUE(fused->run(document, collected).ok());
        SpanExtender extender(document, simd::best_kernels());
        for (std::size_t q = 0; q < queries.size(); ++q) {
            const std::vector<std::size_t> expected_offsets =
                testing::oracle_offsets(queries[q], text);
            SliceSink slices;
            project::project_all(extender, collected.offsets(q), slices);
            const std::vector<std::string_view> expected =
                extract_values(document, expected_offsets);
            ASSERT_EQ(slices.slices().size(), expected.size())
                << queries[q] << " via " << testing::leg_label(*fused);
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(slices.slices()[i], expected[i]);
            }
        }
    }
}

TEST(ProjectionSinks, NdjsonCompactsOutsideStringsOnly)
{
    std::string out;
    project::append_compact_value("{ \"a\" : [ 1 , \"x y\\n z\" ] }", out);
    EXPECT_EQ(out, "{\"a\":[1,\"x y\\n z\"]}");
    out.clear();
    project::append_compact_value("\" spaced \\\" string \"", out);
    EXPECT_EQ(out, "\" spaced \\\" string \"");
    out.clear();
    project::append_compact_value("{\n  \"k\": \"\"\n}", out);
    EXPECT_EQ(out, "{\"k\":\"\"}");
}

TEST(ProjectionSinks, NdjsonEmitsOneLinePerValue)
{
    const std::string text =
        "{\"a\": {\"multi\": [1,\n 2,\n 3]}, \"b\": {\"multi\":"
        " \"line\\nbreak\"}}";
    PaddedString document(text);
    DescendEngine engine = DescendEngine::for_query("$..multi");
    SpanExtender extender(document, simd::best_kernels());
    std::ostringstream out;
    NdjsonSink ndjson(out);
    ProjectingMatchSink sink(extender, ndjson);
    ASSERT_TRUE(engine.run(document, sink).ok());
    EXPECT_EQ(ndjson.lines(), 2u);
    EXPECT_EQ(out.str(), "[1,2,3]\n\"line\\nbreak\"\n");
}

TEST(ProjectionSinks, CountingSinkTotalsMatchSlices)
{
    const std::string text = "{\"a\": [1, 22, 333], \"b\": {\"a\": \"xyz\"}}";
    PaddedString document(text);
    DescendEngine engine = DescendEngine::for_query("$..a");
    SpanExtender extender(document, simd::best_kernels());
    SliceSink slices;
    CountingProjectionSink counting;
    ProjectingMatchSink slice_sink(extender, slices);
    ProjectingMatchSink count_sink(extender, counting);
    ASSERT_TRUE(engine.run(document, slice_sink).ok());
    ASSERT_TRUE(engine.run(document, count_sink).ok());
    EXPECT_EQ(counting.values(), slices.slices().size());
    std::size_t bytes = 0;
    for (std::string_view slice : slices.slices()) {
        bytes += slice.size();
    }
    EXPECT_EQ(counting.bytes(), bytes);
}

// ---------------------------------------------------------------------------
// NDJSON record-boundary contract: extension over record subviews.
// ---------------------------------------------------------------------------

TEST(RecordBoundaries, ExtensionCannotCrossIntoTheNextRecord)
{
    // Each record's matched value reaches the record's last byte; the
    // next record opens with bytes that would keep a leaked scan alive.
    const std::string text =
        "{\"a\": [1, 2]}\n{\"a\": [3, [4]]}\n{\"a\": \"tail\"}\n";
    PaddedString stream_input(text);
    const std::vector<stream::RecordSpan> records =
        stream::split_records(stream_input, simd::best_kernels());
    ASSERT_EQ(records.size(), 3u);
    for (simd::Level level : kTiers) {
        for (const stream::RecordSpan& record : records) {
            const PaddedView view = PaddedView(stream_input)
                                        .subview(record.begin, record.size());
            DescendEngine engine = DescendEngine::for_query("$.a");
            OffsetSink offsets;
            PaddedString copy(std::string(text, record.begin, record.size()));
            ASSERT_TRUE(engine.run(copy, offsets).ok());
            ASSERT_EQ(offsets.offsets().size(), 1u);
            SpanExtender extender(view, simd::kernels_for(level));
            const ValueSpan span = extender.extend(offsets.offsets()[0]);
            // The span ends within the record — never in the next one.
            EXPECT_LE(span.end, record.size());
            EXPECT_EQ(extender.slice(span),
                      extract_value(view, offsets.offsets()[0]));
        }
    }
}

TEST(RecordBoundaries, UnclosedValueClampsAtRecordEndNotStreamEnd)
{
    // The first record's value never closes; the second record would
    // balance it if the scan leaked across the newline.
    const std::string text = "{\"a\": [1, 2\n{\"a\": [3]}]}\n";
    PaddedString stream_input(text);
    const std::size_t record_len = text.find('\n');
    const PaddedView view = PaddedView(stream_input).subview(0, record_len);
    for (simd::Level level : kTiers) {
        SpanExtender extender(view, simd::kernels_for(level));
        const ValueSpan span = extender.extend(6);  // the open '['
        EXPECT_EQ(span.end, record_len);
    }
}

// ---------------------------------------------------------------------------
// LazyValue: the four invariants of lazy_value.h.
// ---------------------------------------------------------------------------

class LazyValueTest : public ::testing::Test {
protected:
    LazyValueTest()
        : text_("{\"user\": {\"name\": \"Ada \\\"L\\\"\", \"ids\": [7, "
                "{\"n\": 42}], \"flag\": true, \"none\": null}, "
                "\"\u00fc\": {\"deep\": {\"x\": 3.5}}}"),
          document_(text_)
    {
    }

    LazyValue root(obs::Counters* counters = nullptr) const
    {
        return LazyValue(document_, ValueSpan{0, text_.size()},
                         simd::best_kernels(), counters);
    }

    std::string text_;
    PaddedString document_;
};

TEST_F(LazyValueTest, RawIsByteIdenticalToTheInputSlice)
{
    EXPECT_EQ(root().raw(), std::string_view(text_));
    LazyValue user = root().field("user");
    ASSERT_TRUE(user.exists());
    EXPECT_EQ(user.raw(), extract_value(document_, user.span().begin));
}

TEST_F(LazyValueTest, NavigationAndLeafConversions)
{
    LazyValue value = root();
    EXPECT_TRUE(value.is_object());
    EXPECT_EQ(value.size(), 2u);

    LazyValue user = value.field("user");
    ASSERT_TRUE(user.exists());
    EXPECT_EQ(user.size(), 4u);
    EXPECT_EQ(user.field("name").as_string(), "Ada \"L\"");
    EXPECT_TRUE(user.field("flag").as_bool());
    EXPECT_TRUE(user.field("none").is_null());

    LazyValue ids = user.field("ids");
    ASSERT_TRUE(ids.is_array());
    EXPECT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids.element(0).as_number(), 7.0);
    EXPECT_EQ(ids.element(1).field("n").as_number(), 42.0);

    // The escaped-key convention is raw bytes between the quotes.
    EXPECT_EQ(value.field("\u00fc").field("deep").field("x").as_number(), 3.5);
}

TEST_F(LazyValueTest, MissingPathsStayAbsentThroughChains)
{
    LazyValue value = root();
    EXPECT_FALSE(value.field("nope").exists());
    EXPECT_FALSE(value.field("nope").field("deeper").element(3).exists());
    EXPECT_FALSE(value.field("user").element(0).exists());  // not an array
    EXPECT_FALSE(value.field("user").field("ids").element(9).exists());
    EXPECT_FALSE(LazyValue().exists());
}

TEST_F(LazyValueTest, TypeIsReadOffTheFirstByte)
{
    LazyValue user = root().field("user");
    EXPECT_EQ(user.type(), json::Type::kObject);
    EXPECT_EQ(user.field("ids").type(), json::Type::kArray);
    EXPECT_EQ(user.field("name").type(), json::Type::kString);
    EXPECT_EQ(user.field("flag").type(), json::Type::kBool);
    EXPECT_EQ(user.field("none").type(), json::Type::kNull);
    EXPECT_EQ(root().field("\u00fc").field("deep").field("x").type(),
              json::Type::kNumber);
}

TEST_F(LazyValueTest, ResolvedNavigationFeedsTheLazyCounter)
{
    if constexpr (!obs::kEnabled) {
        GTEST_SKIP() << "obs counters compiled out";
    }
    obs::Counters counters;
    LazyValue value = root(&counters);
    EXPECT_EQ(counters.get(obs::Counter::kLazyFieldsParsed), 0u);
    LazyValue user = value.field("user");
    EXPECT_EQ(counters.get(obs::Counter::kLazyFieldsParsed), 1u);
    user.field("ids").element(1);
    EXPECT_EQ(counters.get(obs::Counter::kLazyFieldsParsed), 3u);
    // A miss resolves nothing.
    value.field("nope");
    EXPECT_EQ(counters.get(obs::Counter::kLazyFieldsParsed), 3u);
    // Navigation alone never feeds the projection counters.
    EXPECT_EQ(counters.get(obs::Counter::kProjectedValues), 0u);
}

// ---------------------------------------------------------------------------
// Serve: the projected-values body end to end.
// ---------------------------------------------------------------------------

using serve::decode_response;
using serve::Dispatcher;
using serve::FrameLimits;
using serve::QueryCache;
using serve::Request;
using serve::RequestMode;
using serve::Response;
using serve::ServePolicy;
using serve::ServeStatus;

Request values_request(const std::string& query, const std::string& body,
                       RequestMode mode = RequestMode::kSingle)
{
    Request request;
    request.mode = mode;
    request.flags = serve::kWantValues;
    request.query = query;
    request.body = body;
    return request;
}

TEST(ServeValues, ResponseRoundTripsThroughTheWire)
{
    Response response;
    response.flags = serve::kHasValues;
    response.values = {"{\"a\": 1}", "", "\"x\\\"y\""};
    response.match_count = 3;
    const std::vector<std::uint8_t> wire = serve::encode_response(response);

    Response decoded;
    std::size_t consumed = 0;
    ASSERT_TRUE(decode_response(wire.data(), wire.size(), decoded, consumed));
    EXPECT_EQ(consumed, wire.size());
    ASSERT_TRUE(decoded.has_values());
    EXPECT_EQ(decoded.values, response.values);
}

TEST(ServeValues, DecoderAdmissionChecksTheValuesBody)
{
    Response response;
    response.flags = serve::kHasValues;
    response.values = {std::string(256, 'v')};
    const std::vector<std::uint8_t> wire = serve::encode_response(response);

    Response decoded;
    std::size_t consumed = 0;
    FrameLimits tight;
    tight.max_body_bytes = 16;
    EXPECT_FALSE(decode_response(wire.data(), wire.size(), decoded, consumed,
                                 &tight));
    FrameLimits roomy;
    roomy.max_body_bytes = 1 << 20;
    EXPECT_TRUE(decode_response(wire.data(), wire.size(), decoded, consumed,
                                &roomy));
}

TEST(ServeValues, TruncatedOrCorruptValueBodiesAreRejected)
{
    Response response;
    response.flags = serve::kHasValues;
    response.values = {"abcdef"};
    std::vector<std::uint8_t> wire = serve::encode_response(response);
    Response decoded;
    std::size_t consumed = 0;
    // Corrupt the per-value length prefix so it overruns the body.
    wire[serve::kResponseHeaderSize + 8] = 0xff;
    EXPECT_FALSE(
        decode_response(wire.data(), wire.size(), decoded, consumed));
}

class ProjectedDispatchTest : public ::testing::Test {
protected:
    ProjectedDispatchTest() : cache_(16, 2), dispatcher_(ServePolicy{}, cache_)
    {
    }

    Response handle(const Request& request)
    {
        return dispatcher_.handle(request, scratch_);
    }

    QueryCache cache_;
    Dispatcher dispatcher_;
    RunScratch scratch_;
};

TEST_F(ProjectedDispatchTest, SingleModeValuesMatchDirectExtraction)
{
    const std::string doc =
        "{\"a\": {\"b\": [1, 2]}, \"c\": {\"b\": \"two\"}}";
    Response response = handle(values_request("$..b", doc));
    ASSERT_EQ(response.serve_status, ServeStatus::kOk);
    ASSERT_TRUE(response.has_values());
    PaddedString padded(doc);
    const std::vector<std::size_t> offsets =
        testing::oracle_offsets("$..b", doc);
    ASSERT_EQ(response.values.size(), offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        EXPECT_EQ(response.values[i], extract_value(padded, offsets[i]));
    }
    EXPECT_FALSE(response.values_truncated());
}

TEST_F(ProjectedDispatchTest, MultiModeGroupsValuesPerQuery)
{
    const std::string doc = "{\"a\": {\"b\": 1}, \"c\": {\"b\": 2}}";
    Request request = values_request("$.a.b\n$.c.b", doc, RequestMode::kMulti);
    Response response = handle(request);
    ASSERT_EQ(response.serve_status, ServeStatus::kOk);
    ASSERT_TRUE(response.has_values());
    ASSERT_EQ(response.values.size(), 2u);
    EXPECT_EQ(response.values[0], "1");
    EXPECT_EQ(response.values[1], "2");
}

TEST_F(ProjectedDispatchTest, NdjsonModeValuesStayWithinRecords)
{
    const std::string doc = "{\"id\": [1, 2]}\n{\"id\": 3}\n";
    Request request = values_request("$.id", doc, RequestMode::kNdjson);
    Response response = handle(request);
    ASSERT_EQ(response.serve_status, ServeStatus::kOk);
    ASSERT_TRUE(response.has_values());
    ASSERT_EQ(response.values.size(), 2u);
    EXPECT_EQ(response.values[0], "[1, 2]");
    EXPECT_EQ(response.values[1], "3");
}

TEST(ServeValues, PolicyCapTruncatesInDocumentOrder)
{
    QueryCache cache(16, 2);
    ServePolicy policy;
    policy.max_projected_bytes = 8;
    Dispatcher dispatcher(policy, cache);
    RunScratch scratch;
    const std::string doc =
        "{\"a\": \"0123\", \"b\": {\"a\": \"01234567890123456789\"}}";
    Response response =
        dispatcher.handle(values_request("$..a", doc), scratch);
    ASSERT_EQ(response.serve_status, ServeStatus::kOk);
    ASSERT_TRUE(response.has_values());
    EXPECT_TRUE(response.values_truncated());
    // The first value fits the cap; the oversized second one is cut, but
    // match_count still reports both.
    ASSERT_EQ(response.values.size(), 1u);
    EXPECT_EQ(response.values[0], "\"0123\"");
    EXPECT_EQ(response.match_count, 2u);
}

}  // namespace
}  // namespace descend
