#include "descend/stream/stream_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "descend/fault/failpoints.h"
#include "descend/multi/fused.h"

namespace descend::stream {
namespace {

using detail::QueryMatch;
using detail::RecordReplay;

constexpr std::size_t kNoError = StreamResult::kNone;

/** One record's buffered run outcome, produced by a worker. */
struct RecordOutcome {
    std::size_t record = 0;
    EngineStatus status;
    /** [begin, end) into the batch's match buffer; empty unless
     *  status.ok(), so a failed record's partial matches can never leak
     *  into the sink. */
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** A batch's outcomes and the one flat buffer their matches live in. */
struct BatchOutcome {
    std::vector<RecordOutcome> records;
    std::vector<QueryMatch> matches;
};

/** The sink either engine type reports through: appends a record's
 *  matches to its batch's buffer in report order. */
class BatchCollector final : public MatchSink, public multi::MultiSink {
public:
    explicit BatchCollector(std::vector<QueryMatch>& out) : out_(out) {}

    void on_match(std::size_t offset) override { out_.push_back({0, offset}); }

    void on_match(std::size_t query_index, std::size_t offset) override
    {
        out_.push_back({query_index, offset});
    }

private:
    std::vector<QueryMatch>& out_;
};

/**
 * Atomic fetch-min. The floor only ever decreases, which is what makes
 * fail-fast deterministic: a worker skips record r only while r > floor,
 * so every record below the *final* floor is guaranteed to have been
 * processed by someone.
 */
void lower_floor(std::atomic<std::size_t>& floor, std::size_t candidate)
{
    std::size_t current = floor.load(std::memory_order_relaxed);
    while (candidate < current &&
           !floor.compare_exchange_weak(current, candidate,
                                        std::memory_order_relaxed)) {
    }
}

/**
 * Per-shard obs aggregation: each worker owns one (no synchronization in
 * the hot path), and they are folded into the stream-level report after
 * the join. Counters/timings are empty when the gate is off; the retry
 * tallies ride the rare failure path and are ungated.
 */
struct ShardObs {
    obs::Counters counters;
    obs::Timings timings;
    std::size_t record_blocks = 0;
    std::size_t retried = 0;
    std::size_t diverged = 0;
};

void merge_shards(const std::vector<ShardObs>& shard_obs, StreamResult& result)
{
    for (const ShardObs& shard : shard_obs) {
        result.counters.merge(shard.counters);
        result.timings.merge(shard.timings);
        result.record_blocks += shard.record_blocks;
        result.retried_records += shard.retried;
        result.tier_divergences += shard.diverged;
    }
}

/**
 * Ordered replay: batches ascend and records ascend within each batch, so
 * a single pass delivers document order to the (single-threaded) sink.
 * Under fail-fast the first error ends it: that is the error floor's
 * record, since every record below the final floor ran. The budget floor
 * ends it too, except its record has no outcome of its own (it never
 * finished), so its error is synthesized afterwards.
 */
void replay_in_order(const std::vector<BatchOutcome>& outcomes,
                     std::size_t budget_floor, bool fail_fast,
                     const RunBudget& stream_budget,
                     const std::vector<RecordSpan>& records,
                     RecordReplay& replay, StreamResult& result)
{
    auto report_error = [&](std::size_t record, const EngineStatus& status) {
        replay.on_record_error(record, status);
        ++result.failed_records;
        ++result.error_tally[static_cast<std::size_t>(status.code)];
        if (result.first_error_record == StreamResult::kNone) {
            result.first_error_record = record;
            result.first_error = status;
            result.first_error_span_begin = records[record].begin;
        }
    };
    bool error_stopped = false;
    for (std::size_t b = 0; b < outcomes.size() && !error_stopped; ++b) {
        const BatchOutcome& batch = outcomes[b];
        for (const RecordOutcome& outcome : batch.records) {
            if (outcome.record >= budget_floor) {
                // Finished after the budget floor: discarded, like a
                // fail-fast record past the error floor.
                break;
            }
            if (outcome.status.ok()) {
                if (outcome.begin != outcome.end) {
                    replay.on_matches(outcome.record,
                                      batch.matches.data() + outcome.begin,
                                      batch.matches.data() + outcome.end);
                    result.matches += outcome.end - outcome.begin;
                }
                continue;
            }
            report_error(outcome.record, outcome.status);
            if (fail_fast) {
                error_stopped = true;
                break;
            }
        }
    }
    if (budget_floor != kNoError && !error_stopped) {
        // The stream budget stopped the run: synthesize the floor record's
        // governance error. Offset 0 — none of the record was conclusively
        // processed.
        StatusCode code = stream_budget.exceeded();
        if (code == StatusCode::kOk) {
            // The deadline passed mid-run but a cancel token was since
            // reset; the floor is still authoritative.
            code = StatusCode::kDeadlineExceeded;
        }
        result.budget_stopped = true;
        report_error(budget_floor, EngineStatus{code, 0});
    }
}

}  // namespace

namespace detail {

template <class Engine>
StreamResult run_sharded(const Engine& engine, ScalarTwin<Engine> scalar_twin,
                         const StreamOptions& options, PaddedView input,
                         const std::vector<RecordSpan>& records,
                         RecordReplay& replay)
{
    StreamResult result;
    result.records = records.size();
    if (records.empty()) {
        return result;
    }

    const std::size_t batch_size =
        options.records_per_batch > 0 ? options.records_per_batch : 1;
    const std::size_t num_batches =
        (records.size() + batch_size - 1) / batch_size;
    std::size_t workers = options.threads != 0
                              ? options.threads
                              : std::thread::hardware_concurrency();
    workers = std::min(std::max<std::size_t>(workers, 1), num_batches);

    const bool fail_fast = options.policy == ErrorPolicy::kFailFast;
    const bool retry_scalar = options.policy == ErrorPolicy::kRetryScalar;
    const RunBudget& stream_budget = options.stream_budget;
    const bool stream_governed = stream_budget.active();
    const bool record_governed = options.record_budget_ms > 0;
    // True once the *stream* budget (not a per-record one) has tripped.
    auto stream_tripped = [&] {
        return stream_governed && stream_budget.exceeded() != StatusCode::kOk;
    };
    std::vector<BatchOutcome> outcomes(num_batches);
    std::atomic<std::size_t> next_batch{0};
    std::atomic<std::size_t> error_floor{kNoError};
    // First record in document order that did not finish because the
    // stream budget tripped. Monotone like error_floor: every record below
    // the final value finished, so the replay below is deterministic in
    // the set of finished records, not in thread interleaving.
    std::atomic<std::size_t> budget_floor{kNoError};
    std::vector<ShardObs> shard_obs(workers);

    auto worker = [&](std::size_t shard) {
        if constexpr (fault::kEnabled) {
            // Deterministic worker stall (payload = milliseconds): lets
            // tests pin down budget floors under scheduling skew.
            fault::maybe_stall(fault::Site::kWorkerStartup);
        }
        ShardObs& local = shard_obs[shard];
        // Scalar-tier twin for kRetryScalar, built on first use (the
        // failure path).
        std::unique_ptr<Engine> scalar_engine;
        for (;;) {
            std::size_t batch = next_batch.fetch_add(1, std::memory_order_relaxed);
            if (batch >= num_batches) {
                break;
            }
            std::size_t first = batch * batch_size;
            std::size_t last = std::min(first + batch_size, records.size());
            if (stream_tripped()) {
                // Budget tripped between batches: everything from this
                // batch on is unfinished. Batches are claimed in
                // ascending order, so `first` bounds every unclaimed
                // record from below.
                lower_floor(budget_floor, first);
                break;
            }
            if (fail_fast && first > error_floor.load(std::memory_order_relaxed)) {
                continue;
            }
            BatchOutcome& out = outcomes[batch];
            out.records.reserve(last - first);
            BatchCollector collector(out.matches);
            bool budget_tripped = false;
            for (std::size_t r = first; r < last; ++r) {
                if (fail_fast && r > error_floor.load(std::memory_order_relaxed)) {
                    break;
                }
                if (stream_tripped()) {
                    lower_floor(budget_floor, r);
                    budget_tripped = true;
                    break;
                }
                const RecordSpan& span = records[r];
                const PaddedView record = input.subview(span.begin, span.size());
                // Active stream governance replaces the engine's own
                // budget for record runs; a per-record deadline nests
                // inside the stream budget.
                RunBudget budget = options.engine.budget;
                if (stream_governed || record_governed) {
                    budget = stream_budget;
                }
                if (record_governed) {
                    budget = stream_budget.tightened(
                        RunBudget::Clock::now() +
                        std::chrono::milliseconds(options.record_budget_ms));
                }
                RecordOutcome outcome;
                outcome.record = r;
                outcome.begin = out.matches.size();
                RunStats run_stats = engine.run_with_stats(record, collector, budget);
                outcome.status = run_stats.status;
                if constexpr (obs::kEnabled) {
                    local.counters.merge(run_stats.counters);
                    local.timings.merge(run_stats.timings);
                    local.record_blocks +=
                        (span.size() + simd::kBlockSize - 1) / simd::kBlockSize;
                }
                if (outcome.status.is_governance() && stream_tripped()) {
                    // The stream budget cut this run short: the record is
                    // unfinished, not failed.
                    lower_floor(budget_floor, r);
                    budget_tripped = true;
                    break;
                }
                if (!outcome.status.ok() && retry_scalar &&
                    !outcome.status.is_governance()) {
                    // Degradation re-run on the scalar tier; its verdict
                    // (and its matches) replaces the original.
                    out.matches.resize(outcome.begin);
                    if (scalar_engine == nullptr) {
                        EngineOptions scalar_options = options.engine;
                        scalar_options.simd = simd::Level::scalar;
                        scalar_engine = scalar_twin(engine, scalar_options);
                    }
                    EngineStatus rerun =
                        scalar_engine->run_with_stats(record, collector, budget)
                            .status;
                    ++local.retried;
                    local.counters.add(obs::Counter::kScalarRetries);
                    if (rerun.is_governance()) {
                        // Cut short, so no verdict to compare: unfinished
                        // if the stream budget tripped, else the original
                        // tier's verdict stands.
                        if (stream_tripped()) {
                            lower_floor(budget_floor, r);
                            budget_tripped = true;
                            break;
                        }
                    } else {
                        if (rerun != outcome.status) {
                            ++local.diverged;
                            local.counters.add(obs::Counter::kTierDivergences);
                        }
                        outcome.status = rerun;
                    }
                }
                if (!outcome.status.ok()) {
                    out.matches.resize(outcome.begin);
                    if (fail_fast) {
                        lower_floor(error_floor, r);
                    }
                }
                outcome.end = out.matches.size();
                out.records.push_back(outcome);
                if (fail_fast && !outcome.status.ok()) {
                    break;
                }
            }
            if (budget_tripped) {
                break;
            }
        }
    };

    if (workers <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i) {
            pool.emplace_back(worker, i);
        }
        for (std::thread& thread : pool) {
            thread.join();
        }
    }
    merge_shards(shard_obs, result);
    replay_in_order(outcomes, budget_floor.load(std::memory_order_relaxed),
                    fail_fast, stream_budget, records, replay, result);
    return result;
}

template StreamResult run_sharded<DescendEngine>(
    const DescendEngine&, ScalarTwin<DescendEngine>, const StreamOptions&,
    PaddedView, const std::vector<RecordSpan>&, RecordReplay&);
template StreamResult run_sharded<multi::FusedEngine>(
    const multi::FusedEngine&, ScalarTwin<multi::FusedEngine>,
    const StreamOptions&, PaddedView, const std::vector<RecordSpan>&,
    RecordReplay&);

}  // namespace detail

namespace {

/** The single-query replay: every buffered match is query 0's. */
class SinkReplay final : public RecordReplay {
public:
    explicit SinkReplay(StreamSink& sink) : sink_(sink) {}

    void on_matches(std::size_t record, const QueryMatch* first,
                    const QueryMatch* last) override
    {
        for (; first != last; ++first) {
            sink_.on_match(record, first->offset);
        }
    }

    void on_record_error(std::size_t record, const EngineStatus& status) override
    {
        sink_.on_record_error(record, status);
    }

private:
    StreamSink& sink_;
};

/** Built only on a worker's first retry, so kept out of the hot text. */
[[gnu::cold]] std::unique_ptr<DescendEngine> scalar_twin(
    const DescendEngine& engine, const EngineOptions& options)
{
    return std::make_unique<DescendEngine>(
        automaton::CompiledQuery::compile(engine.compiled_query().source()),
        options);
}

}  // namespace

StreamResult StreamExecutor::run(PaddedView input, StreamSink& sink) const
{
    const simd::Kernels& kernels = simd::kernels_for(options_.engine.simd);
    obs::PhaseStopwatch watch;
    std::vector<RecordSpan> records = split_records(input, kernels);
    std::uint64_t split_ns = watch.elapsed_ns();
    StreamResult result = run_records(input, records, sink);
    result.timings.add(obs::Phase::kSplit, split_ns);
    return result;
}

StreamResult StreamExecutor::run_records(PaddedView input,
                                         const std::vector<RecordSpan>& records,
                                         StreamSink& sink) const
{
    SinkReplay replay(sink);
    return detail::run_sharded(engine_, &scalar_twin, options_, input, records,
                               replay);
}

}  // namespace descend::stream
