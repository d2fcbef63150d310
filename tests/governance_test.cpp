/**
 * @file
 * Run-governance tests: RunBudget/CancelToken semantics, pre-expired and
 * mid-run governance across every engine, deterministic stream-budget
 * behaviour at every thread count, the kRetryScalar degradation policy,
 * and the exact-boundary behaviour of every EngineLimits knob.
 *
 * Determinism discipline: no test here depends on wall-clock timing. A
 * "tripped" budget is always one whose deadline is already in the past (or
 * whose CancelToken is already set) before the run starts, so the outcome
 * is a pure function of the code path, not of scheduling.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "descend/baselines/dom_engine.h"
#include "descend/baselines/ski_engine.h"
#include "descend/baselines/surfer_engine.h"
#include "descend/descend.h"
#include "descend/multi/fused.h"
#include "descend/stream/stream_executor.h"
#include "descend/util/budget.h"
#include "test_helpers.h"

namespace descend {
namespace {

/** A budget whose deadline passed long before the run starts. */
RunBudget expired_budget(const CancelToken* token = nullptr)
{
    return {RunBudget::Clock::now() - std::chrono::hours(1), token};
}

// ---------------------------------------------------------------------------
// RunBudget / CancelToken / BudgetGate unit semantics.
// ---------------------------------------------------------------------------

TEST(RunBudgetTest, DefaultIsInactiveAndNeverTrips)
{
    RunBudget budget;
    EXPECT_FALSE(budget.active());
    EXPECT_EQ(budget.exceeded(), StatusCode::kOk);
}

TEST(RunBudgetTest, ExpiredDeadlineTripsAsDeadlineExceeded)
{
    RunBudget budget = expired_budget();
    EXPECT_TRUE(budget.active());
    EXPECT_EQ(budget.exceeded(), StatusCode::kDeadlineExceeded);
}

TEST(RunBudgetTest, CancelTokenTripsAsCancelled)
{
    CancelToken token;
    RunBudget budget = RunBudget::with_cancel(&token);
    EXPECT_TRUE(budget.active());
    EXPECT_EQ(budget.exceeded(), StatusCode::kOk);
    token.cancel();
    EXPECT_EQ(budget.exceeded(), StatusCode::kCancelled);
    token.reset();
    EXPECT_EQ(budget.exceeded(), StatusCode::kOk);
}

TEST(RunBudgetTest, CancelWinsOverExpiredDeadline)
{
    CancelToken token;
    token.cancel();
    RunBudget budget = expired_budget(&token);
    EXPECT_EQ(budget.exceeded(), StatusCode::kCancelled);
}

TEST(RunBudgetTest, TightenedKeepsMinDeadlineAndToken)
{
    CancelToken token;
    RunBudget wide = RunBudget::within_ms(1000000, &token);
    RunBudget::Clock::time_point earlier =
        RunBudget::Clock::now() - std::chrono::seconds(1);
    RunBudget tight = wide.tightened(earlier);
    EXPECT_EQ(tight.deadline, earlier);
    EXPECT_EQ(tight.cancel, &token);
    // Tightening with a *later* point keeps the original deadline.
    RunBudget same = tight.tightened(wide.deadline);
    EXPECT_EQ(same.deadline, earlier);
}

TEST(RunBudgetTest, BudgetGateSamplesAtStrideGranularity)
{
    RunBudget inactive;
    BudgetGate idle(inactive, 4);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(idle.poll(), StatusCode::kOk);
    }
    RunBudget expired = expired_budget();
    BudgetGate gate(expired, 4);
    // The first three polls ride the stride; the fourth samples the clock.
    EXPECT_EQ(gate.poll(), StatusCode::kOk);
    EXPECT_EQ(gate.poll(), StatusCode::kOk);
    EXPECT_EQ(gate.poll(), StatusCode::kOk);
    EXPECT_EQ(gate.poll(), StatusCode::kDeadlineExceeded);
}

TEST(RunBudgetTest, GovernanceCodesAreClassified)
{
    EXPECT_TRUE(is_governance(StatusCode::kDeadlineExceeded));
    EXPECT_TRUE(is_governance(StatusCode::kCancelled));
    EXPECT_FALSE(is_governance(StatusCode::kOk));
    EXPECT_FALSE(is_governance(StatusCode::kDepthLimit));
    EngineStatus status{StatusCode::kCancelled, 7};
    EXPECT_TRUE(status.is_governance());
    EXPECT_FALSE(status.is_limit());
}

// ---------------------------------------------------------------------------
// Pre-expired governance across every engine: the run must fail before any
// work, with the pinned status {code, 0}, for every tier and configuration.
// ---------------------------------------------------------------------------

const char* kDoc = R"({"a":{"b":1},"c":[2,3]})";
const char* kDescendantQuery = "$..b";

TEST(GovernanceEngineTest, PreExpiredDeadlineFailsAtOffsetZeroEverywhere)
{
    PaddedString padded(kDoc);
    EngineStatus expected{StatusCode::kDeadlineExceeded, 0};
    for (EngineOptions options : testing::engine_configurations()) {
        options.budget = expired_budget();
        DescendEngine engine(
            automaton::CompiledQuery::compile(kDescendantQuery), options);
        CountSink sink;
        EXPECT_EQ(engine.run(padded, sink), expected)
            << "descend[" << testing::describe(options) << "]";
        EXPECT_EQ(sink.count(), 0u);
    }

    DomEngine dom(query::Query::parse(kDescendantQuery), {}, expired_budget());
    CountSink dom_sink;
    EXPECT_EQ(dom.run(padded, dom_sink), expected) << "dom";

    SurferEngine surfer(automaton::CompiledQuery::compile(kDescendantQuery),
                        {}, expired_budget());
    CountSink surfer_sink;
    EXPECT_EQ(surfer.run(padded, surfer_sink), expected) << "surfer";

    SkiEngine ski(query::Query::parse("$.a"), simd::default_level(), {},
                  expired_budget());
    CountSink ski_sink;
    EXPECT_EQ(ski.run(padded, ski_sink), expected) << "jsonski";

    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
        EngineOptions options;
        options.simd = level;
        options.budget = expired_budget();
        std::unique_ptr<multi::FusedEngine> fused = multi::make_fused_engine(
            std::vector<std::string>{"$..b", "$.*"}, options);
        multi::CollectingMultiSink sink(2);
        EXPECT_EQ(fused->run(padded, sink), expected)
            << "multi[" << simd::level_name(level) << "]";
    }
}

TEST(GovernanceEngineTest, PreCancelledFailsAtOffsetZeroEverywhere)
{
    PaddedString padded(kDoc);
    CancelToken token;
    token.cancel();
    RunBudget cancelled = RunBudget::with_cancel(&token);
    EngineStatus expected{StatusCode::kCancelled, 0};
    for (EngineOptions options : testing::engine_configurations()) {
        options.budget = cancelled;
        DescendEngine engine(
            automaton::CompiledQuery::compile(kDescendantQuery), options);
        CountSink sink;
        EXPECT_EQ(engine.run(padded, sink), expected)
            << "descend[" << testing::describe(options) << "]";
    }
    DomEngine dom(query::Query::parse(kDescendantQuery), {}, cancelled);
    CountSink dom_sink;
    EXPECT_EQ(dom.run(padded, dom_sink), expected) << "dom";
    SurferEngine surfer(automaton::CompiledQuery::compile(kDescendantQuery),
                        {}, cancelled);
    CountSink surfer_sink;
    EXPECT_EQ(surfer.run(padded, surfer_sink), expected) << "surfer";
    SkiEngine ski(query::Query::parse("$.a"), simd::default_level(), {},
                  cancelled);
    CountSink ski_sink;
    EXPECT_EQ(ski.run(padded, ski_sink), expected) << "jsonski";
}

TEST(GovernanceEngineTest, InactiveBudgetMatchesUngovernedRun)
{
    // The default EngineOptions carries an inactive budget: results must be
    // identical to the pre-governance behaviour, match-for-match.
    std::string doc = testing::oracle_offsets(kDescendantQuery, kDoc).empty()
                          ? std::string(kDoc)
                          : std::string(kDoc);
    std::vector<std::size_t> expected =
        testing::oracle_offsets(kDescendantQuery, doc);
    ASSERT_FALSE(expected.empty());
    testing::expect_all_engines_agree(kDescendantQuery, doc);
}

/** A sink that fires the cancel token on the first delivered match. */
struct CancellingSink final : MatchSink {
    explicit CancellingSink(CancelToken& token) : token_(&token) {}
    void on_match(std::size_t) override
    {
        ++matches;
        token_->cancel();
    }
    CancelToken* token_;
    std::size_t matches = 0;
};

TEST(GovernanceEngineTest, MidRunCancellationStopsTheRun)
{
    // An early match in a long document: the sink cancels on delivery and
    // the engine must stop at a subsequent batch refill with kCancelled.
    // Deterministic: the cancel happens on this thread, before the poll.
    std::string doc = "{\"b\":1";
    for (int i = 0; i < 200; ++i) {
        doc += ",\"k" + std::to_string(i) + "\":\"" +
               std::string(40, 'x') + "\"";
    }
    doc += "}";
    PaddedString padded(doc);
    for (EngineOptions options : testing::engine_configurations()) {
        CancelToken token;
        options.budget = RunBudget::with_cancel(&token);
        DescendEngine engine(automaton::CompiledQuery::compile("$..b"),
                             options);
        CancellingSink sink(token);
        EngineStatus status = engine.run(padded, sink);
        EXPECT_EQ(status.code, StatusCode::kCancelled)
            << "descend[" << testing::describe(options)
            << "] got " << to_string(status);
        EXPECT_EQ(sink.matches, 1u)
            << "descend[" << testing::describe(options) << "]";
    }
}

/** @p head, then `"pad": [` entries of `{"k": "x"}` up to byte @p tail_at,
 *  then @p tail: a long array no label search or skip can stop in. */
std::string padded_member(const std::string& head, std::size_t tail_at,
                          const std::string& tail)
{
    std::string doc = head + R"("pad": [{"k": "x"})";
    while (doc.size() + 12 <= tail_at - 2) {
        doc += R"(, {"k": "x"})";
    }
    doc.append(tail_at - 2 - doc.size(), ' ');
    return doc.append("], ").append(tail);
}

TEST(GovernanceEngineTest, CancelLatchedInTheMiddleOfALongSkip)
{
    // `$.a` matches its atom near byte 620, then sibling-skips the rest of
    // the root (or, in ablated configurations, walks it): the refill at
    // 1024 observes the cancel, in the middle of the skip, and the run
    // reports it there.
    std::string doc = padded_member("{", 600, R"("a": 1, )");
    doc = padded_member(doc, 3000, R"("z": 2})");
    ASSERT_GT(doc.find("\"a\""), simd::kBatchSize);
    ASSERT_LT(doc.find("\"a\""), 2 * simd::kBatchSize);
    PaddedString padded(doc);
    for (EngineOptions options : testing::engine_configurations()) {
        CancelToken token;
        options.budget = RunBudget::with_cancel(&token);
        DescendEngine engine(automaton::CompiledQuery::compile("$.a"), options);
        CancellingSink sink(token);
        EXPECT_EQ(engine.run(padded, sink),
                  (EngineStatus{StatusCode::kCancelled, 2 * simd::kBatchSize}))
            << "descend[" << testing::describe(options) << "]";
        EXPECT_EQ(sink.matches, 1u);
    }
}

TEST(GovernanceEngineTest, CancelLatchedInTheMiddleOfAHeadSkipWalk)
{
    // `$..b` matches an atom near byte 620; the label search then walks
    // candidate-free blocks toward the next "b" at ~3000 and observes the
    // cancel at the refill of byte 1024 (a configuration without
    // head-skipping iterates instead and stops at the same refill).
    std::string doc = padded_member("{", 600, R"("b": 1, )");
    doc = padded_member(doc, 3000, R"("b": 2})");
    PaddedString padded(doc);
    for (EngineOptions options : testing::engine_configurations()) {
        CancelToken token;
        options.budget = RunBudget::with_cancel(&token);
        DescendEngine engine(automaton::CompiledQuery::compile("$..b"), options);
        CancellingSink sink(token);
        EXPECT_EQ(engine.run(padded, sink),
                  (EngineStatus{StatusCode::kCancelled, 2 * simd::kBatchSize}))
            << "descend[" << testing::describe(options) << "]";
        EXPECT_EQ(sink.matches, 1u);
    }
}

// ---------------------------------------------------------------------------
// Stream governance: deterministic across thread counts.
// ---------------------------------------------------------------------------

std::string ndjson_stream(std::size_t records)
{
    std::string text;
    for (std::size_t i = 0; i < records; ++i) {
        text += "{\"id\":" + std::to_string(i) + "}\n";
    }
    return text;
}

TEST(GovernanceStreamTest, PreExpiredStreamBudgetIsIdenticalAtEveryThreadCount)
{
    std::string text = ndjson_stream(8);
    PaddedString padded(text);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        stream::StreamOptions options;
        options.threads = threads;
        options.records_per_batch = 2;
        options.stream_budget = expired_budget();
        stream::StreamExecutor executor =
            stream::StreamExecutor::for_query("$..id", options);
        stream::CollectingStreamSink sink;
        stream::StreamResult result = executor.run(padded, sink);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_TRUE(result.budget_stopped);
        EXPECT_EQ(result.records, 8u);
        EXPECT_EQ(result.matches, 0u);
        EXPECT_EQ(result.failed_records, 1u);
        EXPECT_EQ(result.first_error_record, 0u);
        EXPECT_EQ(result.first_error,
                  (EngineStatus{StatusCode::kDeadlineExceeded, 0}));
        EXPECT_EQ(result.first_error_span_begin, 0u);
        ASSERT_EQ(sink.errors().size(), 1u);
        EXPECT_EQ(sink.errors().front().record, 0u);
        EXPECT_EQ(sink.errors().front().status,
                  (EngineStatus{StatusCode::kDeadlineExceeded, 0}));
        EXPECT_TRUE(sink.matches().empty());
        EXPECT_EQ(result.error_tally[static_cast<std::size_t>(
                      StatusCode::kDeadlineExceeded)],
                  1u);
    }
}

TEST(GovernanceStreamTest, PreCancelledStreamBudgetSynthesizesCancelled)
{
    std::string text = ndjson_stream(5);
    PaddedString padded(text);
    CancelToken token;
    token.cancel();
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        stream::StreamOptions options;
        options.threads = threads;
        options.stream_budget = RunBudget::with_cancel(&token);
        stream::StreamExecutor executor =
            stream::StreamExecutor::for_query("$..id", options);
        stream::CollectingStreamSink sink;
        stream::StreamResult result = executor.run(padded, sink);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_TRUE(result.budget_stopped);
        EXPECT_EQ(result.first_error_record, 0u);
        EXPECT_EQ(result.first_error,
                  (EngineStatus{StatusCode::kCancelled, 0}));
    }
}

TEST(GovernanceStreamTest, GenerousBudgetsLeaveTheStreamUntouched)
{
    std::string text = ndjson_stream(6);
    PaddedString padded(text);
    stream::StreamOptions options;
    options.threads = 2;
    options.stream_budget = RunBudget::within_ms(1000000);
    options.record_budget_ms = 1000000;
    stream::StreamExecutor executor =
        stream::StreamExecutor::for_query("$..id", options);
    stream::CollectingStreamSink sink;
    stream::StreamResult result = executor.run(padded, sink);
    EXPECT_FALSE(result.budget_stopped);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.records, 6u);
    EXPECT_EQ(result.matches, 6u);
    EXPECT_EQ(result.retried_records, 0u);
}

TEST(GovernanceStreamTest, RetryScalarReRunsFailedRecordsOnScalarTier)
{
    // Record 2 is malformed: under kRetryScalar it is re-run on the scalar
    // tier, the scalar verdict (the same failure) is reported, and the
    // stream otherwise behaves like kSkipRecord. The tiers agree on the
    // failure, so no divergence is tallied.
    std::string text = "{\"id\":0}\n{\"id\":1}\n{\"id\":\n{\"id\":3}\n";
    PaddedString padded(text);
    DescendEngine scalar_reference = [] {
        EngineOptions scalar;
        scalar.simd = simd::Level::scalar;
        return DescendEngine(automaton::CompiledQuery::compile("$..id"),
                             scalar);
    }();
    PaddedString bad_record("{\"id\":");
    EngineStatus scalar_verdict =
        scalar_reference.offsets_checked(bad_record).status;
    ASSERT_FALSE(scalar_verdict.ok());

    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        stream::StreamOptions options;
        options.threads = threads;
        options.policy = stream::ErrorPolicy::kRetryScalar;
        stream::StreamExecutor executor =
            stream::StreamExecutor::for_query("$..id", options);
        stream::CollectingStreamSink sink;
        stream::StreamResult result = executor.run(padded, sink);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(result.records, 4u);
        EXPECT_EQ(result.matches, 3u);
        EXPECT_EQ(result.failed_records, 1u);
        EXPECT_EQ(result.retried_records, 1u);
        EXPECT_EQ(result.tier_divergences, 0u);
        ASSERT_EQ(sink.errors().size(), 1u);
        EXPECT_EQ(sink.errors().front().record, 2u);
        EXPECT_EQ(sink.errors().front().status, scalar_verdict);
    }
}

TEST(GovernanceStreamTest, GovernanceFailuresAreNeverRetried)
{
    std::string text = ndjson_stream(4);
    PaddedString padded(text);
    stream::StreamOptions options;
    options.policy = stream::ErrorPolicy::kRetryScalar;
    options.stream_budget = expired_budget();
    stream::StreamExecutor executor =
        stream::StreamExecutor::for_query("$..id", options);
    stream::CollectingStreamSink sink;
    stream::StreamResult result = executor.run(padded, sink);
    EXPECT_TRUE(result.budget_stopped);
    EXPECT_EQ(result.retried_records, 0u);
    EXPECT_EQ(result.tier_divergences, 0u);
}

TEST(GovernanceStreamTest, AbsoluteErrorPositionIsSpanBeginPlusOffset)
{
    // The second record is structurally damaged; the stream result must
    // report its span start so span_begin + intra-record offset gives the
    // absolute stream position. The expected status comes from a
    // sequential run over the isolated record — the stream adds only the
    // span-begin translation.
    std::string first = "{\"id\":0}";
    std::string bad = "{\"id\":]}";
    std::string text = first + "\n" + bad + "\n{\"id\":2}\n";
    PaddedString padded(text);
    DescendEngine engine = DescendEngine::for_query("$..id");
    PaddedString bad_copy(bad);
    EngineStatus reference = engine.offsets_checked(bad_copy).status;
    ASSERT_FALSE(reference.ok());

    stream::StreamExecutor executor =
        stream::StreamExecutor::for_query("$..id", {});
    stream::CollectingStreamSink sink;
    stream::StreamResult result = executor.run(padded, sink);
    ASSERT_EQ(result.failed_records, 1u);
    EXPECT_EQ(result.first_error_record, 1u);
    EXPECT_EQ(result.first_error, reference);
    EXPECT_EQ(result.first_error_span_begin, first.size() + 1);
    EXPECT_EQ(result.first_error_span_begin + result.first_error.offset,
              first.size() + 1 + reference.offset);
}

// ---------------------------------------------------------------------------
// Exact limit boundaries: each EngineLimits knob at its boundary value must
// pass, and one past it must fail with the pinned {code, offset} — across
// the DOM oracle, the surfer, JSONSki and every descend configuration.
// ---------------------------------------------------------------------------

void expect_status_everywhere(const std::string& query, EngineLimits limits,
                              const PaddedString& padded,
                              EngineStatus expected, bool exempt_head_skip)
{
    auto compiled = automaton::CompiledQuery::compile(query);
    DomEngine dom(query::Query::parse(query), limits);
    CountSink dom_sink;
    EXPECT_EQ(dom.run(padded, dom_sink), expected) << "dom, query " << query;

    SurferEngine surfer(compiled, limits);
    CountSink surfer_sink;
    EXPECT_EQ(surfer.run(padded, surfer_sink), expected)
        << "surfer, query " << query;

    for (EngineOptions options : testing::engine_configurations()) {
        bool head_skip_active =
            options.head_skipping && compiled.head_skip_label().has_value();
        if (exempt_head_skip && head_skip_active) {
            continue;  // head-skip depth is subdocument-relative (DESIGN.md)
        }
        options.limits = limits;
        DescendEngine engine(compiled, options);
        CountSink sink;
        EXPECT_EQ(engine.run(padded, sink), expected)
            << "descend[" << testing::describe(options) << "], query "
            << query;
    }
}

TEST(LimitBoundaryTest, DocumentSizeExactlyAtLimitPasses)
{
    std::string doc = kDoc;
    PaddedString padded(doc);
    EngineLimits at;
    at.max_document_size = doc.size();
    expect_status_everywhere("$.*", at, padded, EngineStatus{}, false);

    EngineLimits over;
    over.max_document_size = doc.size() - 1;
    expect_status_everywhere(
        "$.*", over, padded,
        EngineStatus{StatusCode::kSizeLimit, doc.size() - 1}, false);

    // JSONSki shares the preflight.
    SkiEngine at_ski(query::Query::parse("$.a"), simd::default_level(), at);
    CountSink s1;
    EXPECT_EQ(at_ski.run(padded, s1), EngineStatus{});
    SkiEngine over_ski(query::Query::parse("$.a"), simd::default_level(), over);
    CountSink s2;
    EXPECT_EQ(over_ski.run(padded, s2),
              (EngineStatus{StatusCode::kSizeLimit, doc.size() - 1}));
}

TEST(LimitBoundaryTest, DepthExactlyAtLimitPasses)
{
    // kDoc nests exactly two levels; the first depth-2 opener is the '{'
    // of {"b":1} at offset 5.
    PaddedString padded(kDoc);
    EngineLimits at;
    at.max_depth = 2;
    expect_status_everywhere("$.*", at, padded, EngineStatus{}, true);

    EngineLimits over;
    over.max_depth = 1;
    expect_status_everywhere("$.*", over, padded,
                             EngineStatus{StatusCode::kDepthLimit, 5}, true);

    SkiEngine at_ski(query::Query::parse("$.a"), simd::default_level(), at);
    CountSink s1;
    EXPECT_EQ(at_ski.run(padded, s1), EngineStatus{});
    SkiEngine over_ski(query::Query::parse("$.a"), simd::default_level(), over);
    CountSink s2;
    EXPECT_EQ(over_ski.run(padded, s2),
              (EngineStatus{StatusCode::kDepthLimit, 5}));
}

TEST(LimitBoundaryTest, MatchCountBoundaries)
{
    PaddedString padded(kDoc);
    // $.* matches the values of "a" (offset 5) and "c" (offset 17).
    ASSERT_EQ(testing::oracle_offsets("$.*", kDoc),
              (std::vector<std::size_t>{5, 17}));

    EngineLimits two;
    two.max_match_count = 2;
    expect_status_everywhere("$.*", two, padded, EngineStatus{}, false);

    EngineLimits one;
    one.max_match_count = 1;
    expect_status_everywhere("$.*", one, padded,
                             EngineStatus{StatusCode::kMatchLimit, 17}, false);

    EngineLimits zero;
    zero.max_match_count = 0;
    expect_status_everywhere("$.*", zero, padded,
                             EngineStatus{StatusCode::kMatchLimit, 5}, false);

    // Descendant query with a single match: boundary at exactly one.
    ASSERT_EQ(testing::oracle_offsets("$..b", kDoc),
              (std::vector<std::size_t>{10}));
    EngineLimits single;
    single.max_match_count = 1;
    expect_status_everywhere("$..b", single, padded, EngineStatus{}, false);
    EngineLimits none;
    none.max_match_count = 0;
    expect_status_everywhere("$..b", none, padded,
                             EngineStatus{StatusCode::kMatchLimit, 10}, false);
}

}  // namespace
}  // namespace descend
