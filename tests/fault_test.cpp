/**
 * @file
 * Failpoint-registry tests: deterministic fault injection through the
 * compile-time-gated src/descend/fault subsystem.
 *
 * The suite is registered in every build; with DESCEND_FAULT=OFF each test
 * skips up front (the no-op inline stubs are still exercised by the
 * registration itself). With DESCEND_FAULT=ON it pins down:
 *  - one-shot arming semantics (skip counts, hit/fired accounting),
 *  - a deterministic engine-visible failure for every governance
 *    StatusCode (kDeadlineExceeded, kCancelled) via the batch-refill site,
 *  - a scalar-tier retry cut short by governance keeps the original
 *    tier's verdict, on both stream front ends,
 *  - the from_file I/O failpoints (open, short read, mmap fall-through),
 *  - DESCEND_FAULT_SPEC-style spec parsing.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "descend/descend.h"
#include "descend/fault/failpoints.h"
#include "descend/multi/multi_stream.h"
#include "descend/stream/stream_executor.h"
#include "descend/util/errors.h"

namespace descend {
namespace {

class FaultTest : public ::testing::Test {
protected:
    void SetUp() override
    {
        if (!fault::kEnabled) {
            GTEST_SKIP() << "built with DESCEND_FAULT=OFF";
        }
        fault::disarm_all();
    }
    void TearDown() override { fault::disarm_all(); }
};

/** A ~600-byte document: enough blocks for several batch refills. */
std::string wide_document()
{
    std::string doc = "{\"a\":[";
    for (int i = 0; i < 120; ++i) {
        doc += (i ? ",{\"b\":1}" : "{\"b\":1}");
    }
    doc += "]}";
    return doc;
}

TEST_F(FaultTest, OneShotFiresExactlyOnceAfterSkip)
{
    fault::arm(fault::Site::kBatchRefill, 2, 0);
    EXPECT_FALSE(fault::should_fire(fault::Site::kBatchRefill));
    EXPECT_FALSE(fault::should_fire(fault::Site::kBatchRefill));
    EXPECT_TRUE(fault::should_fire(fault::Site::kBatchRefill));
    EXPECT_FALSE(fault::should_fire(fault::Site::kBatchRefill));
    EXPECT_EQ(fault::hits(fault::Site::kBatchRefill), 4u);
    EXPECT_EQ(fault::fired_count(fault::Site::kBatchRefill), 1u);
    fault::disarm_all();
    EXPECT_EQ(fault::hits(fault::Site::kBatchRefill), 0u);
    EXPECT_EQ(fault::fired_count(fault::Site::kBatchRefill), 0u);
}

TEST_F(FaultTest, DisarmDiscardsAPendingShot)
{
    fault::arm(fault::Site::kBatchRefill, 0, 0);
    fault::disarm(fault::Site::kBatchRefill);
    EXPECT_FALSE(fault::should_fire(fault::Site::kBatchRefill));
}

TEST_F(FaultTest, BatchRefillForcesDeadlineExceeded)
{
    std::string doc = wide_document();
    PaddedString padded(doc);
    fault::arm(fault::Site::kBatchRefill, 0,
               static_cast<std::uint64_t>(StatusCode::kDeadlineExceeded));
    DescendEngine engine = DescendEngine::for_query("$..b");
    CountSink sink;
    EngineStatus status = engine.run(padded, sink);
    EXPECT_EQ(fault::fired_count(fault::Site::kBatchRefill), 1u);
    EXPECT_EQ(status.code, StatusCode::kDeadlineExceeded);
    EXPECT_LE(status.offset, padded.size());
}

TEST_F(FaultTest, BatchRefillForcesCancelled)
{
    std::string doc = wide_document();
    PaddedString padded(doc);
    fault::arm(fault::Site::kBatchRefill, 0,
               static_cast<std::uint64_t>(StatusCode::kCancelled));
    DescendEngine engine = DescendEngine::for_query("$..b");
    CountSink sink;
    EngineStatus status = engine.run(padded, sink);
    EXPECT_EQ(fault::fired_count(fault::Site::kBatchRefill), 1u);
    EXPECT_EQ(status.code, StatusCode::kCancelled);
}

TEST_F(FaultTest, BatchRefillAtLaterBlockKeepsEarlierMatches)
{
    // Firing at the second refill: matches from the first 512-byte batch
    // are delivered before the forced interrupt parks the stream.
    std::string doc = wide_document();
    PaddedString padded(doc);
    EngineOptions options;
    options.head_skipping = false;  // single pipeline: refill order is fixed
    fault::arm(fault::Site::kBatchRefill, 1,
               static_cast<std::uint64_t>(StatusCode::kDeadlineExceeded));
    DescendEngine engine(automaton::CompiledQuery::compile("$..b"), options);
    OffsetSink sink;
    EngineStatus status = engine.run(padded, sink);
    EXPECT_EQ(status.code, StatusCode::kDeadlineExceeded);
    EXPECT_GT(sink.offsets().size(), 0u);
    EXPECT_GE(status.offset, simd::kBatchSize);
}

/** `{"pad": [...], <member> "pad": [...], "z": 2}` with @p member at
 *  about byte 600 and the document about 3000 bytes long. */
std::string long_member_document(const std::string& member)
{
    std::string doc = "{\"pad\": [";
    while (doc.size() < 590) {
        doc += "{\"k\": 0}, ";
    }
    doc += "0], " + member + " \"rest\": [";
    while (doc.size() < 3000) {
        doc += "{\"k\": 0}, ";
    }
    return doc + "0], \"z\": 2}";
}

TEST_F(FaultTest, BatchRefillInTheMiddleOfALongSkip)
{
    // `$.a` matches at ~600, then sibling-skips to the root's closer: the
    // third refill (byte 1024) fires inside that skip.
    PaddedString padded(long_member_document("\"a\": 1,"));
    fault::arm(fault::Site::kBatchRefill, 2,
               static_cast<std::uint64_t>(StatusCode::kDeadlineExceeded));
    DescendEngine engine = DescendEngine::for_query("$.a");
    RunStats stats;
    {
        OffsetSink sink;
        stats = engine.run_with_stats(padded, sink);
        EXPECT_EQ(sink.offsets().size(), 1u);
    }
    EXPECT_EQ(stats.status,
              (EngineStatus{StatusCode::kDeadlineExceeded, 2 * simd::kBatchSize}));
    EXPECT_EQ(fault::fired_count(fault::Site::kBatchRefill), 1u);
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(stats.counters.get(obs::Counter::kSiblingSkips), 1u);
    }
}

TEST_F(FaultTest, BatchRefillInTheMiddleOfAHeadSkipWalk)
{
    // `$..z` head-skips: the search and the idle iterator refill block 0
    // once each, then the search walks; its second walk refill (byte
    // 1024, the fourth refill overall) fires mid-walk.
    PaddedString padded(long_member_document("\"a\": 1,"));
    fault::arm(fault::Site::kBatchRefill, 3,
               static_cast<std::uint64_t>(StatusCode::kCancelled));
    DescendEngine engine = DescendEngine::for_query("$..z");
    CountSink sink;
    EXPECT_EQ(engine.run(padded, sink),
              (EngineStatus{StatusCode::kCancelled, 2 * simd::kBatchSize}));
    EXPECT_EQ(sink.count(), 0u);
    EXPECT_EQ(fault::fired_count(fault::Site::kBatchRefill), 1u);
}

TEST_F(FaultTest, BatchRefillInTheMiddleOfAWithinScan)
{
    // `$..a..z` under the default options head-skips to "a", whose object
    // holds the whole document, and within-skips from its opening toward
    // "z" near byte 3000. Refills: the search and the idle iterator fill
    // block 0 once each, the hand-off restarts the iterator's stream at
    // block 0, and the scan refills at 512; the fifth refill (byte 1024)
    // fires in the middle of the scan. Either governance code parks the
    // run there, and every block is still accounted.
    const std::string doc =
        "{\"a\": " + long_member_document("\"y\": 1,") + "}";
    PaddedString padded(doc);
    DescendEngine engine = DescendEngine::for_query("$..a..z");
    for (StatusCode code : {StatusCode::kDeadlineExceeded, StatusCode::kCancelled}) {
        SCOPED_TRACE(status_name(code));
        fault::disarm_all();
        fault::arm(fault::Site::kBatchRefill, 4, static_cast<std::uint64_t>(code));
        CountSink sink;
        RunStats stats = engine.run_with_stats(padded, sink);
        EXPECT_EQ(stats.status, (EngineStatus{code, 2 * simd::kBatchSize}));
        EXPECT_EQ(sink.count(), 0u);
        EXPECT_EQ(fault::fired_count(fault::Site::kBatchRefill), 1u);
        if constexpr (obs::kEnabled) {
            EXPECT_EQ(stats.counters.get(obs::Counter::kWithinSkips), 1u);
            EXPECT_GT(stats.counters.get(obs::Counter::kBlocksWithinSkipped), 0u);
            EXPECT_EQ(obs::accounted_blocks(stats.counters),
                      obs::total_blocks(doc.size()));
        }
    }
}

TEST_F(FaultTest, OutOfRangePayloadDefaultsToDeadline)
{
    std::string doc = wide_document();
    PaddedString padded(doc);
    fault::arm(fault::Site::kBatchRefill, 0, 9999);
    DescendEngine engine = DescendEngine::for_query("$..b");
    CountSink sink;
    EXPECT_EQ(engine.run(padded, sink).code, StatusCode::kDeadlineExceeded);
}

TEST_F(FaultTest, StreamRecordFailsWithForcedCode)
{
    std::string text = "{\"id\":0}\n{\"id\":1}\n{\"id\":2}\n";
    PaddedString padded(text);
    fault::arm(fault::Site::kBatchRefill, 0,
               static_cast<std::uint64_t>(StatusCode::kCancelled));
    fault::arm(fault::Site::kWorkerStartup, 0, 1);  // 1 ms stall, coverage
    stream::StreamOptions options;
    options.threads = 1;
    stream::StreamExecutor executor =
        stream::StreamExecutor::for_query("$..id", options);
    stream::CollectingStreamSink sink;
    stream::StreamResult result = executor.run(padded, sink);
    EXPECT_EQ(result.records, 3u);
    EXPECT_EQ(result.failed_records, 1u);
    ASSERT_EQ(sink.errors().size(), 1u);
    EXPECT_EQ(sink.errors().front().record, 0u);
    EXPECT_EQ(sink.errors().front().status.code, StatusCode::kCancelled);
    // No stream budget was set: a governance-coded record failure counts
    // as a regular record error, not a budget stop.
    EXPECT_FALSE(result.budget_stopped);
}

using RecordErrors = std::vector<stream::CollectingStreamSink::RecordError>;

/** One threads = 1 run of @p text through either stream front end. */
stream::StreamResult run_front_end(bool fused, const PaddedString& text,
                                   stream::ErrorPolicy policy,
                                   RecordErrors& errors)
{
    stream::StreamOptions options;
    options.threads = 1;
    options.policy = policy;
    if (fused) {
        multi::MultiStreamExecutor executor =
            multi::MultiStreamExecutor::for_queries({"$..id"}, options);
        multi::CollectingMultiStreamSink sink;
        stream::StreamResult result = executor.run(text, sink);
        errors = sink.errors();
        return result;
    }
    stream::StreamExecutor executor =
        stream::StreamExecutor::for_query("$..id", options);
    stream::CollectingStreamSink sink;
    stream::StreamResult result = executor.run(text, sink);
    errors = sink.errors();
    return result;
}

TEST_F(FaultTest, ScalarRetryCutShortKeepsTheOriginalVerdict)
{
    // Record 1 is malformed, so kRetryScalar re-runs it on the scalar
    // tier; a deadline forced at that re-run's first refill leaves the
    // re-run without a verdict. No stream budget is set, so the record
    // keeps the original tier's error and no divergence is counted.
    PaddedString text("{\"id\":0}\n{\"id\":[}\n");
    for (bool fused : {false, true}) {
        SCOPED_TRACE(fused ? "MultiStreamExecutor" : "StreamExecutor");
        fault::disarm_all();
        RecordErrors original;
        run_front_end(fused, text, stream::ErrorPolicy::kSkipRecord, original);
        ASSERT_EQ(original.size(), 1u);
        ASSERT_EQ(original.front().record, 1u);
        ASSERT_FALSE(original.front().status.is_governance());
        // A retry run repeats these refills first; the next one is the
        // scalar re-run's first.
        const std::uint64_t refills = fault::hits(fault::Site::kBatchRefill);

        fault::disarm_all();
        fault::arm(fault::Site::kBatchRefill, refills,
                   static_cast<std::uint64_t>(StatusCode::kDeadlineExceeded));
        RecordErrors errors;
        stream::StreamResult result = run_front_end(
            fused, text, stream::ErrorPolicy::kRetryScalar, errors);
        EXPECT_EQ(fault::fired_count(fault::Site::kBatchRefill), 1u);
        EXPECT_EQ(errors, original);
        EXPECT_EQ(result.failed_records, 1u);
        EXPECT_EQ(result.first_error, original.front().status);
        EXPECT_EQ(result.retried_records, 1u);
        EXPECT_EQ(result.tier_divergences, 0u);
        EXPECT_EQ(result.error_tally[static_cast<std::size_t>(
                      StatusCode::kDeadlineExceeded)],
                  0u);
        EXPECT_FALSE(result.budget_stopped);
        EXPECT_EQ(result.matches, 1u);
    }
}

class FromFileFaultTest : public FaultTest {
protected:
    std::string write_temp(const std::string& contents)
    {
        std::string path = ::testing::TempDir() + "fault_test_doc.json";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << contents;
        out.close();
        return path;
    }
};

TEST_F(FromFileFaultTest, OpenFailpointThrows)
{
    std::string path = write_temp("{\"a\":1}");
    fault::arm(fault::Site::kFromFileOpen);
    EXPECT_THROW(PaddedString::from_file(path), Error);
    EXPECT_EQ(fault::fired_count(fault::Site::kFromFileOpen), 1u);
    // The shot is spent: the next open succeeds.
    PaddedString loaded = PaddedString::from_file(path);
    EXPECT_EQ(loaded.view(), "{\"a\":1}");
    std::remove(path.c_str());
}

TEST_F(FromFileFaultTest, ShortReadFailpointThrows)
{
    std::string path = write_temp("{\"a\":1}");
    fault::arm(fault::Site::kFromFileRead);
    EXPECT_THROW(PaddedString::from_file(path), Error);
    EXPECT_EQ(fault::fired_count(fault::Site::kFromFileRead), 1u);
    std::remove(path.c_str());
}

TEST_F(FromFileFaultTest, MmapFailpointFallsThroughToPortableRead)
{
    // A file past kMmapThreshold takes the mmap fast path; the failpoint
    // simulates a map failure and the portable read must still succeed
    // with identical contents.
    std::string big = "[";
    while (big.size() < PaddedString::kMmapThreshold + 100) {
        big += "1,";
    }
    big += "1]";
    std::string path = write_temp(big);
    fault::arm(fault::Site::kFromFileMmap);
    PaddedString loaded = PaddedString::from_file(path);
    EXPECT_EQ(loaded.size(), big.size());
    EXPECT_EQ(loaded.view().substr(0, 16), big.substr(0, 16));
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_EQ(fault::fired_count(fault::Site::kFromFileMmap), 1u);
#endif
    std::remove(path.c_str());
}

TEST_F(FaultTest, SpecParsingArmsSites)
{
    EXPECT_TRUE(fault::arm_from_spec("batch_refill=3:10"));
    EXPECT_EQ(fault::payload(fault::Site::kBatchRefill), 10u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(fault::should_fire(fault::Site::kBatchRefill));
    }
    EXPECT_TRUE(fault::should_fire(fault::Site::kBatchRefill));

    fault::disarm_all();
    EXPECT_TRUE(fault::arm_from_spec("from_file_open=0,worker_startup=1:5"));
    EXPECT_TRUE(fault::should_fire(fault::Site::kFromFileOpen));
    EXPECT_EQ(fault::payload(fault::Site::kWorkerStartup), 5u);
}

TEST_F(FaultTest, MalformedSpecIsRejected)
{
    EXPECT_FALSE(fault::arm_from_spec("no_such_site=1"));
    EXPECT_FALSE(fault::arm_from_spec("batch_refill"));
    EXPECT_FALSE(fault::arm_from_spec("batch_refill=x"));
    EXPECT_FALSE(fault::arm_from_spec("=1"));
    EXPECT_TRUE(fault::arm_from_spec(""));
}

TEST_F(FaultTest, SiteNamesAreStable)
{
    EXPECT_STREQ(fault::site_name(fault::Site::kFromFileOpen),
                 "from_file_open");
    EXPECT_STREQ(fault::site_name(fault::Site::kFromFileRead),
                 "from_file_read");
    EXPECT_STREQ(fault::site_name(fault::Site::kFromFileMmap),
                 "from_file_mmap");
    EXPECT_STREQ(fault::site_name(fault::Site::kBatchRefill), "batch_refill");
    EXPECT_STREQ(fault::site_name(fault::Site::kWorkerStartup),
                 "worker_startup");
}

}  // namespace
}  // namespace descend
