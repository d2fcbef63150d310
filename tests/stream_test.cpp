/**
 * @file
 * Record-stream subsystem tests: SIMD NDJSON splitting, zero-copy slice
 * runs over PaddedView subviews, the parallel sharded executor (every
 * thread count must reproduce the sequential per-record result
 * byte-for-byte, under both error policies), and the PaddedString
 * from_file mmap fast path.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "descend/descend.h"
#include "descend/multi/multi_stream.h"
#include "descend/workloads/datasets.h"

namespace descend {
namespace {

using stream::CollectingStreamSink;
using stream::ErrorPolicy;
using stream::RecordSpan;
using stream::StreamExecutor;
using stream::StreamOptions;
using stream::StreamResult;

/** Splits with both kernel levels and demands identical spans. */
std::vector<RecordSpan> split(const PaddedString& input)
{
    std::vector<RecordSpan> simd_spans =
        stream::split_records(input, simd::best_kernels());
    std::vector<RecordSpan> scalar_spans =
        stream::split_records(input, simd::scalar_kernels());
    EXPECT_EQ(simd_spans, scalar_spans)
        << "SIMD and scalar splitters disagree";
    return simd_spans;
}

std::vector<std::string> record_texts(const PaddedString& input)
{
    std::vector<std::string> texts;
    for (const RecordSpan& span : split(input)) {
        texts.push_back(std::string(input.view().substr(span.begin, span.size())));
    }
    return texts;
}

/**
 * The sequential oracle the executor must reproduce: each record copied
 * into its own isolated PaddedString (so no slice machinery is involved)
 * and run through the engine one by one.
 */
struct OracleResult {
    std::vector<CollectingStreamSink::Match> matches;
    std::vector<CollectingStreamSink::RecordError> errors;
};

OracleResult sequential_oracle(const std::string& query,
                               const PaddedString& input,
                               const std::vector<RecordSpan>& records)
{
    DescendEngine engine = DescendEngine::for_query(query);
    OracleResult result;
    for (std::size_t r = 0; r < records.size(); ++r) {
        const RecordSpan& span = records[r];
        PaddedString copy(input.view().substr(span.begin, span.size()));
        OffsetsResult offsets = engine.offsets_checked(copy);
        if (offsets.ok()) {
            for (std::size_t offset : offsets.offsets) {
                result.matches.push_back({r, offset});
            }
        } else {
            result.errors.push_back({r, offsets.status});
        }
    }
    return result;
}

StreamResult run_stream(const std::string& query, const PaddedString& input,
                        CollectingStreamSink& sink, std::size_t threads,
                        ErrorPolicy policy = ErrorPolicy::kSkipRecord,
                        std::size_t batch = 64)
{
    StreamOptions options;
    options.threads = threads;
    options.policy = policy;
    options.records_per_batch = batch;
    StreamExecutor executor(automaton::CompiledQuery::compile(query), options);
    return executor.run(input, sink);
}

// ---------------------------------------------------------------- splitter

TEST(RecordSplitter, BasicRecordsAndTrimming)
{
    PaddedString input("{\"a\":1}\n  {\"b\":2}  \n");
    EXPECT_EQ(record_texts(input),
              (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}"}));
}

TEST(RecordSplitter, NewlineInsideStringDoesNotSplit)
{
    // A raw 0x0A byte inside a string value: the quote classifier keeps the
    // in-string mask set, so this newline terminates nothing.
    PaddedString input("{\"a\":\"x\ny\"}\n{\"b\":2}\n");
    std::vector<std::string> texts = record_texts(input);
    ASSERT_EQ(texts.size(), 2u);
    EXPECT_EQ(texts[0], "{\"a\":\"x\ny\"}");
    EXPECT_EQ(texts[1], "{\"b\":2}");
}

TEST(RecordSplitter, EscapedQuoteBeforeNewline)
{
    // The string ends with an escaped quote; the newline after the real
    // closing quote must still split, and the \" must not.
    PaddedString input("{\"a\":\"say \\\"hi\\\"\"}\n{\"b\":1}\n");
    std::vector<std::string> texts = record_texts(input);
    ASSERT_EQ(texts.size(), 2u);
    EXPECT_EQ(texts[0], "{\"a\":\"say \\\"hi\\\"\"}");
    // A string whose last character is an escaped backslash: the closing
    // quote is real, the record ends normally.
    PaddedString tricky("{\"p\":\"c:\\\\\"}\n{\"q\":2}\n");
    EXPECT_EQ(record_texts(tricky).size(), 2u);
}

TEST(RecordSplitter, CrlfAndBlankLines)
{
    PaddedString input("{\"a\":1}\r\n\r\n   \r\n{\"b\":2}\r\n");
    EXPECT_EQ(record_texts(input),
              (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}"}));
}

TEST(RecordSplitter, CarriageReturnSeparatesRecords)
{
    // Classic-Mac style CR-only separators split records exactly like LF.
    PaddedString cr_only("{\"a\":1}\r{\"b\":2}\r{\"c\":3}");
    EXPECT_EQ(record_texts(cr_only),
              (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}", "{\"c\":3}"}));
    // CRLF is one separator, not two: the CR must not manufacture an
    // extra (empty) record in front of the LF's split.
    PaddedString crlf("{\"a\":1}\r\n{\"b\":2}");
    EXPECT_EQ(record_texts(crlf),
              (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}"}));
    // A raw 0x0D inside a string is content, not a separator.
    PaddedString in_string("{\"a\":\"x\ry\"}\r{\"b\":2}");
    std::vector<std::string> texts = record_texts(in_string);
    ASSERT_EQ(texts.size(), 2u);
    EXPECT_EQ(texts[0], "{\"a\":\"x\ry\"}");
    // Trailing CR terminates the final record without adding an empty one.
    EXPECT_EQ(record_texts(PaddedString("{\"a\":1}\r")),
              (std::vector<std::string>{"{\"a\":1}"}));
}

TEST(RecordSplitter, EmptyAndWhitespaceOnlyInput)
{
    EXPECT_TRUE(split(PaddedString("")).empty());
    EXPECT_TRUE(split(PaddedString("\n\n  \r\n \t\n")).empty());
}

TEST(RecordSplitter, FinalRecordWithoutTrailingNewline)
{
    PaddedString input("{\"a\":1}\n{\"b\":2}");
    EXPECT_EQ(record_texts(input),
              (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}"}));
    EXPECT_EQ(record_texts(PaddedString("{\"only\":0}")),
              (std::vector<std::string>{"{\"only\":0}"}));
}

TEST(RecordSplitter, RecordSpanningManyBlocks)
{
    // One record several 64-byte blocks long, with raw newlines inside its
    // string value straddling block boundaries.
    std::string value;
    for (int i = 0; i < 40; ++i) {
        value += "segment-" + std::to_string(i) + "\n";
    }
    std::string record = "{\"text\":\"" + value + "\"}";
    ASSERT_GT(record.size(), 6 * simd::kBlockSize);
    PaddedString input(record + "\n{\"tail\":1}\n");
    std::vector<std::string> texts = record_texts(input);
    ASSERT_EQ(texts.size(), 2u);
    EXPECT_EQ(texts[0], record);
    EXPECT_EQ(texts[1], "{\"tail\":1}");
}

TEST(RecordSplitter, UnterminatedStringFusesFollowingRecords)
{
    // The documented degradation: an unterminated string keeps the
    // in-string mask set, fusing the rest of the stream into one span that
    // then fails engine validation — an error, never silent misattribution.
    PaddedString input("{\"a\":\"unterminated}\n{\"b\":2}\n{\"c\":3}\n");
    std::vector<RecordSpan> records = split(input);
    ASSERT_EQ(records.size(), 1u);

    CollectingStreamSink sink;
    StreamResult result = run_stream("$.b", input, sink, 1);
    EXPECT_EQ(result.records, 1u);
    EXPECT_EQ(result.failed_records, 1u);
    EXPECT_TRUE(sink.matches().empty());
    ASSERT_EQ(sink.errors().size(), 1u);
    EXPECT_EQ(sink.errors()[0].status.code, StatusCode::kTruncatedString);
}

// -------------------------------------------------------- slice semantics

/** Running over a subview must equal running over an isolated copy, no
 *  matter what bytes follow the slice in the parent buffer. */
void expect_slice_equals_copy(const std::string& query,
                              const std::string& document,
                              const std::string& tail)
{
    SCOPED_TRACE("document: " + document);
    PaddedString buffer(document + tail);
    PaddedView slice = PaddedView(buffer).subview(0, document.size());
    PaddedString copy(document);

    DescendEngine engine = DescendEngine::for_query(query);
    OffsetSink slice_sink;
    EngineStatus slice_status = engine.run(slice, slice_sink);
    OffsetsResult copy_result = engine.offsets_checked(copy);
    EXPECT_EQ(slice_status, copy_result.status);
    EXPECT_EQ(slice_sink.offsets(), copy_result.offsets);
}

TEST(SliceRuns, TailBytesNeverInterpreted)
{
    // Tails full of structural noise, quotes, and garbage that would wreck
    // the result if any bit past the end bound leaked into the masks.
    std::vector<std::string> tails = {
        "}}}]]]",
        "\"}{\"x\":[1,2,3]}",
        "\\\"\\\\\"\"\"",
        std::string(200, '{'),
        "{\"a\":999}",
    };
    for (const std::string& tail : tails) {
        expect_slice_equals_copy("$.a", "{\"a\":1}", tail);
        expect_slice_equals_copy("$..b", "{\"a\":{\"b\":[1,{\"b\":2}]}}", tail);
        expect_slice_equals_copy("$.*", "[1,2,{\"x\":3},[4]]", tail);
        // Document sized to end mid-block so the partial-block masking path
        // runs (not the aligned-boundary path).
        expect_slice_equals_copy(
            "$..id", "{\"items\":[{\"id\":1},{\"id\":22},{\"id\":333}]}",
            tail);
    }
}

TEST(SliceRuns, TruncationDetectedDespiteClosingBytesInTail)
{
    // The slice ends inside a string; the bytes that would close it sit
    // just past the end bound and must not rescue the run.
    std::string document = "{\"a\":\"xy\"}";
    PaddedString buffer(document);
    PaddedView slice = PaddedView(buffer).subview(0, 8);  // {"a":"xy
    DescendEngine engine = DescendEngine::for_query("$.a");
    OffsetSink sink;
    EngineStatus status = engine.run(slice, sink);
    EXPECT_EQ(status.code, StatusCode::kTruncatedString);

    // Same for an unbalanced slice: the closers exist only past the bound.
    PaddedView open_slice = PaddedView(buffer).subview(0, 5);  // {"a":
    EngineStatus open_status = engine.run(open_slice, sink);
    EXPECT_FALSE(open_status.ok());
}

// ------------------------------------------------------------- executor

std::string well_formed_stream(std::size_t records)
{
    std::string text;
    for (std::size_t i = 0; i < records; ++i) {
        text += "{\"id\":" + std::to_string(i) + ",\"items\":[{\"id\":" +
                std::to_string(i * 10) + "},{\"id\":" +
                std::to_string(i * 10 + 1) + "}]}\n";
    }
    return text;
}

TEST(StreamExecutor, MatchesEverySequentialRunAtEveryThreadCount)
{
    PaddedString input(well_formed_stream(100));
    std::vector<RecordSpan> records = split(input);
    ASSERT_EQ(records.size(), 100u);
    for (const char* query : {"$..id", "$.items[*]", "$.*"}) {
        OracleResult expected = sequential_oracle(query, input, records);
        ASSERT_FALSE(expected.matches.empty());
        for (std::size_t threads : {1u, 2u, 4u, 8u}) {
            for (std::size_t batch : {1u, 5u, 64u}) {
                SCOPED_TRACE(std::string("query=") + query +
                             " threads=" + std::to_string(threads) +
                             " batch=" + std::to_string(batch));
                CollectingStreamSink sink;
                StreamResult result =
                    run_stream(query, input, sink, threads,
                               ErrorPolicy::kSkipRecord, batch);
                EXPECT_TRUE(result.ok());
                EXPECT_EQ(result.records, records.size());
                EXPECT_EQ(result.matches, expected.matches.size());
                EXPECT_EQ(sink.matches(), expected.matches);
                EXPECT_TRUE(sink.errors().empty());
            }
        }
    }
}

TEST(StreamExecutor, PerRecordStatusCarriesIntraRecordOffset)
{
    // Record 2 is malformed; its status must match the isolated run's,
    // offset relative to the record, not the stream.
    std::string bad = "{\"a\":[}";
    PaddedString input("{\"a\":1}\n{\"a\":2}\n" + bad + "\n{\"a\":4}\n");
    std::vector<RecordSpan> records = split(input);
    ASSERT_EQ(records.size(), 4u);

    DescendEngine engine = DescendEngine::for_query("$.a");
    OffsetsResult isolated = engine.offsets_checked(PaddedString(bad));
    ASSERT_FALSE(isolated.ok());

    CollectingStreamSink sink;
    StreamResult result = run_stream("$.a", input, sink, 2);
    EXPECT_EQ(result.failed_records, 1u);
    EXPECT_EQ(result.first_error_record, 2u);
    EXPECT_EQ(result.first_error, isolated.status);
    ASSERT_EQ(sink.errors().size(), 1u);
    EXPECT_EQ(sink.errors()[0].record, 2u);
    EXPECT_EQ(sink.errors()[0].status, isolated.status);
    // The other three records still matched.
    EXPECT_EQ(result.matches, 3u);
}

TEST(StreamExecutor, SkipPolicyReportsEveryFailureFailFastOnlyTheFirst)
{
    std::string text;
    for (std::size_t i = 0; i < 10; ++i) {
        bool broken = i == 4 || i == 7;
        text += broken ? "{\"a\":[}\n"
                       : "{\"a\":" + std::to_string(i) + "}\n";
    }
    PaddedString input(text);
    std::vector<RecordSpan> records = split(input);
    ASSERT_EQ(records.size(), 10u);

    for (std::size_t threads : {1u, 2u, 4u}) {
        for (std::size_t batch : {1u, 3u, 64u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " batch=" + std::to_string(batch));
            CollectingStreamSink skip_sink;
            StreamResult skip = run_stream("$.a", input, skip_sink, threads,
                                           ErrorPolicy::kSkipRecord, batch);
            EXPECT_EQ(skip.failed_records, 2u);
            EXPECT_EQ(skip.first_error_record, 4u);
            EXPECT_EQ(skip.matches, 8u);
            ASSERT_EQ(skip_sink.errors().size(), 2u);
            EXPECT_EQ(skip_sink.errors()[0].record, 4u);
            EXPECT_EQ(skip_sink.errors()[1].record, 7u);

            CollectingStreamSink fast_sink;
            StreamResult fast = run_stream("$.a", input, fast_sink, threads,
                                           ErrorPolicy::kFailFast, batch);
            EXPECT_EQ(fast.failed_records, 1u);
            EXPECT_EQ(fast.first_error_record, 4u);
            // Exactly the matches of records 0..3, in order.
            EXPECT_EQ(fast.matches, 4u);
            ASSERT_EQ(fast_sink.matches().size(), 4u);
            for (std::size_t i = 0; i < 4; ++i) {
                EXPECT_EQ(fast_sink.matches()[i].record, i);
            }
            ASSERT_EQ(fast_sink.errors().size(), 1u);
            EXPECT_EQ(fast_sink.errors()[0].record, 4u);
        }
    }
}

TEST(StreamExecutor, EmptyStream)
{
    CollectingStreamSink sink;
    StreamResult result = run_stream("$.a", PaddedString("\n \n"), sink, 4);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.records, 0u);
    EXPECT_EQ(result.matches, 0u);
}

TEST(StreamExecutor, EngineLimitsApplyPerRecord)
{
    // max_match_count is a per-record limit: the flooding record fails with
    // kMatchLimit and contributes nothing; its neighbors are unaffected.
    StreamOptions options;
    options.threads = 2;
    options.engine.limits.max_match_count = 2;
    StreamExecutor executor(automaton::CompiledQuery::compile("$.*"), options);
    PaddedString input("{\"a\":1}\n[1,2,3,4,5]\n{\"b\":2}\n");
    CollectingStreamSink sink;
    StreamResult result = executor.run(input, sink);
    EXPECT_EQ(result.failed_records, 1u);
    EXPECT_EQ(result.first_error_record, 1u);
    EXPECT_EQ(result.first_error.code, StatusCode::kMatchLimit);
    EXPECT_EQ(result.matches, 2u);
}

// ------------------------------------------------- front-end agreement

/** What one stream run delivered, comparable across the front ends. */
struct FrontEndRun {
    std::vector<CollectingStreamSink::Match> matches;
    std::vector<CollectingStreamSink::RecordError> errors;
    StreamResult result;
};

FrontEndRun run_front_end(bool fused, const std::string& query,
                          const PaddedString& input,
                          const StreamOptions& options)
{
    FrontEndRun run;
    if (!fused) {
        StreamExecutor executor =
            StreamExecutor::for_query(query, options);
        CollectingStreamSink sink;
        run.result = executor.run(input, sink);
        run.matches = sink.matches();
        run.errors = sink.errors();
        return run;
    }
    multi::MultiStreamExecutor executor =
        multi::MultiStreamExecutor::for_queries({query}, options);
    multi::CollectingMultiStreamSink sink;
    run.result = executor.run(input, sink);
    for (const multi::CollectingMultiStreamSink::Match& match : sink.matches()) {
        EXPECT_EQ(match.query, 0u);
        run.matches.push_back({match.record, match.offset});
    }
    run.errors = sink.errors();
    return run;
}

TEST(StreamFrontEnds, SingleQueryAndOneQuerySetAgree)
{
    // StreamExecutor and a one-query MultiStreamExecutor share one record
    // scheduler: over the same streams, under every policy and governance
    // setting, they must deliver and report exactly the same.
    std::string clean = well_formed_stream(12);
    std::string malformed = clean;
    malformed.replace(malformed.find("{\"id\":5,"), 8, "{\"id\":[}");
    struct Governance {
        const char* name;
        RunBudget stream_budget;
        std::uint64_t record_budget_ms;
    };
    const Governance governance[] = {
        {"none", RunBudget{}, 0},
        {"expired stream budget",
         RunBudget{RunBudget::Clock::now() - std::chrono::hours(1), nullptr},
         0},
        {"record budget", RunBudget{}, 60000},
    };
    for (const std::string* text : {&clean, &malformed}) {
        PaddedString input(*text);
        for (const Governance& g : governance) {
            for (ErrorPolicy policy :
                 {ErrorPolicy::kSkipRecord, ErrorPolicy::kFailFast,
                  ErrorPolicy::kRetryScalar}) {
                for (std::size_t threads : {1u, 3u}) {
                    for (std::size_t batch : {1u, 3u}) {
                        SCOPED_TRACE(std::string(text == &clean ? "clean"
                                                                : "malformed") +
                                     " governance=" + g.name +
                                     " policy=" +
                                     std::to_string(static_cast<int>(policy)) +
                                     " threads=" + std::to_string(threads) +
                                     " batch=" + std::to_string(batch));
                        StreamOptions options;
                        options.threads = threads;
                        options.records_per_batch = batch;
                        options.policy = policy;
                        options.stream_budget = g.stream_budget;
                        options.record_budget_ms = g.record_budget_ms;
                        FrontEndRun single =
                            run_front_end(false, "$..id", input, options);
                        FrontEndRun fused =
                            run_front_end(true, "$..id", input, options);
                        EXPECT_EQ(single.matches, fused.matches);
                        EXPECT_EQ(single.errors, fused.errors);
                        const StreamResult& a = single.result;
                        const StreamResult& b = fused.result;
                        EXPECT_EQ(a.records, b.records);
                        EXPECT_EQ(a.matches, b.matches);
                        EXPECT_EQ(a.failed_records, b.failed_records);
                        EXPECT_EQ(a.first_error_record, b.first_error_record);
                        EXPECT_EQ(a.first_error, b.first_error);
                        EXPECT_EQ(a.first_error_span_begin,
                                  b.first_error_span_begin);
                        EXPECT_EQ(a.retried_records, b.retried_records);
                        EXPECT_EQ(a.tier_divergences, b.tier_divergences);
                        EXPECT_EQ(a.budget_stopped, b.budget_stopped);
                        EXPECT_EQ(a.error_tally, b.error_tally);
                        // Each setting is exercised: an expired budget
                        // stops at record 0, else the malformed record 5
                        // is the first error.
                        EXPECT_EQ(a.first_error_record,
                                  g.stream_budget.active() ? 0u
                                  : text == &malformed     ? 5u
                                                           : StreamResult::kNone);
                    }
                }
            }
        }
    }
}

// ------------------------------------------------- workload differential

TEST(StreamDifferential, WorkloadDatasetsAsNdjson)
{
    // Concatenate every workload generator's output as one NDJSON stream
    // (each document is a single compact line) and demand that sharded
    // execution reproduces the sequential per-record result exactly.
    std::string text;
    std::size_t docs = 0;
    for (const std::string& name : workloads::dataset_names()) {
        for (std::size_t kb : {16u, 40u}) {
            std::string doc = workloads::generate(name, kb * 1024);
            ASSERT_EQ(doc.find('\n'), std::string::npos)
                << name << " generator emitted a multi-line document";
            text += doc;
            text += '\n';
            ++docs;
        }
    }
    PaddedString input(text);
    std::vector<RecordSpan> records = split(input);
    ASSERT_EQ(records.size(), docs);

    for (const char* query : {"$..id", "$.*"}) {
        OracleResult expected = sequential_oracle(query, input, records);
        for (std::size_t threads : {1u, 3u}) {
            SCOPED_TRACE(std::string("query=") + query +
                         " threads=" + std::to_string(threads));
            CollectingStreamSink sink;
            StreamResult result = run_stream(query, input, sink, threads);
            EXPECT_TRUE(result.ok());
            EXPECT_EQ(sink.matches(), expected.matches);
        }
    }
}

// ------------------------------------------------------- from_file / mmap

PaddedString roundtrip_through_file(const std::string& content)
{
    // The pid keeps concurrent runs of this binary (one ctest entry per
    // kernel tier) from writing and removing each other's file.
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("descend_stream_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(content.size()) + ".json");
    {
        std::ofstream out(path, std::ios::binary);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
    }
    PaddedString loaded = PaddedString::from_file(path.string());
    std::filesystem::remove(path);
    return loaded;
}

TEST(PaddedStringFromFile, SmallFileReadPath)
{
    std::string content = "{\"a\":[1,2,3]}";
    PaddedString loaded = roundtrip_through_file(content);
    EXPECT_EQ(loaded.view(), content);
    DescendEngine engine = DescendEngine::for_query("$.a[*]");
    EXPECT_EQ(engine.count_checked(loaded).count, 3u);
}

TEST(PaddedStringFromFile, LargeFileMmapPath)
{
    // Above PaddedString::kMmapThreshold, with a size that is not a page
    // multiple, so the copy-on-write padding of the final partial page is
    // exercised.
    std::string content = workloads::generate("twitter", 5 << 20);
    content.resize(content.size() - content.size() % 4096 + 123);
    ASSERT_GT(content.size(), PaddedString::kMmapThreshold);
    // Keep it valid JSON regardless of where the resize cut: overwrite the
    // tail with spaces and close nothing — instead just compare bytes and
    // run the splitter-level machinery that only needs readable padding.
    PaddedString loaded = roundtrip_through_file(content);
    ASSERT_EQ(loaded.size(), content.size());
    EXPECT_EQ(loaded.view(), content);
    // The padding contract: kPadding bytes past the end must be readable
    // whitespace for an owning PaddedString.
    for (std::size_t i = 0; i < PaddedString::kPadding; ++i) {
        EXPECT_EQ(loaded.data()[loaded.size() + i], ' ');
    }
}

TEST(PaddedStringFromFile, LargeFileRunsThroughEngine)
{
    std::string content = workloads::generate("bestbuy", 5 << 20);
    ASSERT_GT(content.size(), PaddedString::kMmapThreshold);
    PaddedString loaded = roundtrip_through_file(content);
    DescendEngine engine = DescendEngine::for_query("$..productId");
    CountResult mapped = engine.count_checked(loaded);
    CountResult heap = engine.count_checked(PaddedString(content));
    EXPECT_EQ(mapped.status, heap.status);
    EXPECT_EQ(mapped.count, heap.count);
}

/** Scoped DESCEND_MMAP_THRESHOLD override (restored on destruction). */
class MmapThresholdOverride {
public:
    explicit MmapThresholdOverride(const char* value)
    {
        ::setenv("DESCEND_MMAP_THRESHOLD", value, 1);
    }
    ~MmapThresholdOverride() { ::unsetenv("DESCEND_MMAP_THRESHOLD"); }
};

TEST(PaddedStringFromFile, ThresholdEnvOverrideParsesStrictly)
{
    EXPECT_EQ(PaddedString::mmap_threshold(), PaddedString::kMmapThreshold);
    {
        MmapThresholdOverride override_guard("12345");
        EXPECT_EQ(PaddedString::mmap_threshold(), 12345u);
    }
    {
        // Trailing junk and non-numbers fall back to the default.
        MmapThresholdOverride override_guard("12x");
        EXPECT_EQ(PaddedString::mmap_threshold(),
                  PaddedString::kMmapThreshold);
    }
    EXPECT_EQ(PaddedString::mmap_threshold(), PaddedString::kMmapThreshold);
}

TEST(PaddedStringFromFile, ZeroLengthFileLoadsEvenWhenMmapIsForced)
{
    // Regression: with the threshold forced to 0 every file qualifies for
    // the mmap fast path, but mmap of length 0 is EINVAL — a zero-length
    // file must be routed down the portable path up front, not rescued by
    // the mmap-failure fallback.
    MmapThresholdOverride override_guard("0");
    PaddedString loaded = roundtrip_through_file("");
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_TRUE(loaded.empty());
    ASSERT_NE(loaded.data(), nullptr);
    for (std::size_t i = 0; i < PaddedString::kPadding; ++i) {
        EXPECT_EQ(loaded.data()[i], ' ');
    }
    // An engine run over the empty document reports kEmptyDocument, the
    // same as an empty heap-backed PaddedString.
    DescendEngine engine = DescendEngine::for_query("$..a");
    CountResult from_disk = engine.count_checked(loaded);
    CountResult from_heap = engine.count_checked(PaddedString(""));
    EXPECT_EQ(from_disk.status, from_heap.status);
    EXPECT_EQ(from_disk.count, from_heap.count);
}

TEST(PaddedStringFromFile, SmallFileTakesMmapPathUnderLoweredThreshold)
{
    // The override steers a tiny fixture down the mmap path: contents,
    // padding, and engine results must be indistinguishable from the
    // portable read.
    std::string content = "{\"a\": [1, 2, 3], \"b\": {\"a\": 4}}";
    MmapThresholdOverride override_guard("1");
    ASSERT_EQ(PaddedString::mmap_threshold(), 1u);
    PaddedString loaded = roundtrip_through_file(content);
    EXPECT_EQ(loaded.view(), content);
    for (std::size_t i = 0; i < PaddedString::kPadding; ++i) {
        EXPECT_EQ(loaded.data()[loaded.size() + i], ' ');
    }
    DescendEngine engine = DescendEngine::for_query("$..a");
    EXPECT_EQ(engine.count_checked(loaded).count, 2u);
}

}  // namespace
}  // namespace descend
