/**
 * @file
 * Parallel sharded execution of compiled queries over a record stream.
 *
 * One record scheduler (stream_executor.cpp) serves two front ends:
 * StreamExecutor below runs one query on a DescendEngine, and
 * multi::MultiStreamExecutor (multi/multi_stream.h) runs a query set on a
 * FusedEngine. They differ only in the engine a record runs on, that
 * engine's scalar-tier twin, and how a buffered (query, offset) reaches
 * their sink; everything below is the scheduler's contract and holds for
 * both.
 *
 * The engine is built once and shared read-only by every worker (its
 * const run paths are stateless). Workers claim contiguous batches of
 * records from an atomic cursor and run the engine zero-copy over each
 * record's PaddedView subview of the one stream buffer. A batch buffers
 * its records' outcomes and one flat (query, offset) match buffer; after
 * the workers join, the batches are replayed in document order through
 * the front end's sink, so the sink observes exactly the sequential order
 * and never needs to be thread-safe.
 *
 * Failure semantics are deterministic for every thread count:
 *  - ErrorPolicy::kSkipRecord — every failed record is reported through
 *    on_record_error() and its matches withheld; all other records are
 *    processed normally.
 *  - ErrorPolicy::kFailFast — the stream stops at the *first* failing
 *    record in document order: workers maintain a monotonically decreasing
 *    shared error floor (the smallest failing record index seen) and stop
 *    claiming work beyond it, and the merge emits all matches before that
 *    record, then exactly one on_record_error() for it. Records after the
 *    floor are never reported, even if a worker already ran them.
 *  - ErrorPolicy::kRetryScalar — see the enumerator.
 *  - StreamOptions::stream_budget and record_budget_ms — see the fields.
 */
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "descend/automaton/compiled.h"
#include "descend/engine/main_engine.h"
#include "descend/engine/padded_string.h"
#include "descend/obs/counters.h"
#include "descend/obs/timing.h"
#include "descend/stream/record_splitter.h"
#include "descend/stream/stream_sink.h"
#include "descend/util/status.h"

namespace descend::stream {

/** What to do when a record's engine run reports a non-ok status. */
enum class ErrorPolicy : std::uint8_t {
    /** Report the record via on_record_error() and keep going. */
    kSkipRecord,
    /** Stop at the first failing record in document order. */
    kFailFast,
    /**
     * Degradation policy: re-run a failed record on the scalar SIMD tier
     * before reporting it, then behave like kSkipRecord with the scalar
     * outcome. A divergence between the tiers (a scalar re-run that
     * changes the status or succeeds) is tallied in
     * StreamResult::tier_divergences — it indicates a kernel-tier bug, and
     * the scalar verdict is the one reported. Governance failures
     * (deadline/cancel) are never retried: the scalar tier is slower, so
     * the re-run could only fail the same way later. A re-run that is
     * itself cut short by governance has no verdict: if the stream budget
     * tripped, the record is unfinished (the budget floor, as for a first
     * run); otherwise the original tier's verdict stands and no divergence
     * is counted.
     */
    kRetryScalar,
};

/** Knobs of the stream executor. */
struct StreamOptions {
    /** Worker thread count; 0 means std::thread::hardware_concurrency().
     *  With one worker the executor runs inline, spawning no threads. */
    std::size_t threads = 0;
    /** Records per scheduling batch. Batches amortize the atomic claim and
     *  keep each worker's results contiguous in document order. */
    std::size_t records_per_batch = 64;
    ErrorPolicy policy = ErrorPolicy::kSkipRecord;
    /** Per-record engine configuration (SIMD level, skipping, limits). */
    EngineOptions engine;
    /**
     * Whole-stream governance (see util/budget.h). When the budget expires
     * or its CancelToken fires, the stream stops like a fail-fast floor at
     * the first record that did not finish in document order: every record
     * before it is reported normally, that record gets exactly one
     * synthesized on_record_error() with {kDeadlineExceeded|kCancelled, 0},
     * and everything after it is discarded — even records a worker had
     * already finished when the budget tripped. The result is a function
     * of *which records finished*, not of thread interleaving: a budget
     * that was already expired at run start yields the identical
     * StreamResult (floor 0) for every thread count. Active budgets are
     * threaded into each record's engine run, so in-flight records are
     * cut short cooperatively at batch-refill granularity.
     */
    RunBudget stream_budget;
    /**
     * Per-record deadline in milliseconds; 0 = none. Each record runs
     * under stream_budget tightened to now + record_budget_ms, so a slow
     * record fails itself (a regular record error, subject to `policy`)
     * without sinking the whole stream. When either this or stream_budget
     * is set, the stream governance replaces `engine.budget` for record
     * runs.
     */
    std::uint64_t record_budget_ms = 0;
};

/** Aggregate outcome of one stream run. */
struct StreamResult {
    static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

    /** Records found by the splitter (blank lines excluded). Under
     *  kFailFast, records after the failing one are counted here but were
     *  neither fully processed nor reported. */
    std::size_t records = 0;
    /** Matches delivered to the sink. */
    std::size_t matches = 0;
    /** Records reported through on_record_error() (at most 1 under
     *  kFailFast). */
    std::size_t failed_records = 0;
    /** Index of the first failing record in document order, kNone if all
     *  records succeeded. */
    std::size_t first_error_record = kNone;
    /** Status of that record (offset is intra-record). */
    EngineStatus first_error;
    /** Absolute byte offset of first_error_record's span start in the
     *  stream buffer, kNone when there was no error. The error's absolute
     *  stream position is first_error_span_begin + first_error.offset —
     *  what the CLI prints so a byte position in a multi-gigabyte stream
     *  can be seeked to directly. */
    std::size_t first_error_span_begin = kNone;
    /** Records re-run on the scalar tier (ErrorPolicy::kRetryScalar). */
    std::size_t retried_records = 0;
    /** Scalar re-runs whose verdict differed from the original tier's (a
     *  re-run cut short by governance has none). */
    std::size_t tier_divergences = 0;
    /** True when the stream budget stopped the run before every record
     *  finished; the floor record's synthesized governance error is then
     *  counted in failed_records (and is first_error if nothing failed
     *  earlier). */
    bool budget_stopped = false;

    /** Failed records per status code, indexed by the StatusCode value.
     *  Unlike the obs registries below this is not gated: it rides the
     *  (rare) failure path only, and error triage should not require an
     *  instrumented build. */
    std::array<std::uint64_t, kStatusCodeCount> error_tally{};

    /** Per-shard obs registries merged after the workers join (empty when
     *  DESCEND_OBS is off). Counters reflect the work *performed*: under
     *  kFailFast a worker may have run records past the final error floor
     *  before the floor settled — their counters are included here even
     *  though their matches were discarded by the ordered replay. */
    obs::Counters counters;
    /** Merged per-record engine timings plus the stream's split phase. */
    obs::Timings timings;
    /** Sum of ceil(record_size / kBlockSize) over the records the engine
     *  actually ran (== all records except those beyond a fail-fast
     *  floor): the accounting invariant's right-hand side for streams.
     *  Zero when DESCEND_OBS is off. */
    std::size_t record_blocks = 0;

    bool ok() const noexcept { return failed_records == 0; }
};

/** Runs a compiled query over NDJSON streams; reusable across streams. */
class StreamExecutor {
public:
    explicit StreamExecutor(automaton::CompiledQuery query,
                            StreamOptions options = {})
        : engine_(std::move(query), options.engine), options_(options)
    {
    }

    /** Convenience: parse, compile and wrap a query. */
    static StreamExecutor for_query(std::string_view query_text,
                                    StreamOptions options = {})
    {
        return StreamExecutor(automaton::CompiledQuery::compile(query_text),
                              options);
    }

    /** Splits @p input into records and runs the query over each. */
    StreamResult run(PaddedView input, StreamSink& sink) const;

    /** Runs over records already split from @p input (spans index into it). */
    StreamResult run_records(PaddedView input,
                             const std::vector<RecordSpan>& records,
                             StreamSink& sink) const;

    const DescendEngine& engine() const noexcept { return engine_; }
    const StreamOptions& options() const noexcept { return options_; }

private:
    DescendEngine engine_;
    StreamOptions options_;
};

namespace detail {

/** One buffered match: its query's index in the set (always 0 for a
 *  single query) and its intra-record offset. */
struct QueryMatch {
    std::size_t query;
    std::size_t offset;
};

/** How a front end's sink receives the replay: called after the workers
 *  join, on the calling thread, records ascending. */
class RecordReplay {
public:
    /** An ok record's matches [first, last) (never empty), in the
     *  engine's report order. */
    virtual void on_matches(std::size_t record, const QueryMatch* first,
                            const QueryMatch* last) = 0;
    virtual void on_record_error(std::size_t record,
                                 const EngineStatus& status) = 0;

protected:
    ~RecordReplay() = default;
};

/** Builds @p engine's twin under @p options (the scalar tier, for
 *  kRetryScalar); called at most once per worker, on its first retry. */
template <class Engine>
using ScalarTwin = std::unique_ptr<Engine> (*)(const Engine& engine,
                                               const EngineOptions& options);

/**
 * The record scheduler behind both front ends (see the file comment).
 * @p engine was built with options.engine. Defined in stream_executor.cpp
 * for Engine = DescendEngine and multi::FusedEngine.
 */
template <class Engine>
StreamResult run_sharded(const Engine& engine, ScalarTwin<Engine> scalar_twin,
                         const StreamOptions& options, PaddedView input,
                         const std::vector<RecordSpan>& records,
                         RecordReplay& replay);

}  // namespace detail

}  // namespace descend::stream
