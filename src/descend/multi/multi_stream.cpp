#include "descend/multi/multi_stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "descend/fault/failpoints.h"

namespace descend::multi {
namespace {

constexpr std::size_t kNoError = stream::StreamResult::kNone;

/** One buffered match: the query it belongs to and its intra-record
 *  offset. */
struct QueryMatch {
    std::size_t query;
    std::size_t offset;
};

/** One record's buffered fused-run outcome, produced by a worker. */
struct RecordOutcome {
    std::size_t record = 0;
    EngineStatus status;
    /** [begin, end) into the batch's match buffer, queries ascending and
     *  report order within a query; empty unless status.ok(), so a failed
     *  record never leaks partial matches. */
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** A batch's outcomes and the one flat buffer their matches live in. */
struct BatchOutcome {
    std::vector<RecordOutcome> records;
    std::vector<QueryMatch> matches;
};

/**
 * A worker's reusable sink: buffers one record's matches in report order
 * and appends them to a batch buffer grouped by query. Buffers keep their
 * capacity across records (the RunScratch pattern of StreamExecutor), so
 * the steady state allocates nothing per record.
 */
class RecordCollector final : public MultiSink {
public:
    explicit RecordCollector(std::size_t num_queries) : starts_(num_queries)
    {
    }

    void on_match(std::size_t query_index, std::size_t offset) override
    {
        pending_.push_back({query_index, offset});
    }

    void reset() noexcept { pending_.clear(); }

    /** Appends the buffered matches to @p out, queries ascending and report
     *  (document) order within a query: a stable counting sort by query. */
    void flush_into(std::vector<QueryMatch>& out)
    {
        std::fill(starts_.begin(), starts_.end(), 0);
        for (const QueryMatch& match : pending_) {
            ++starts_[match.query];
        }
        std::size_t next = out.size();
        for (std::size_t& start : starts_) {
            next += start;
            start = next - start;
        }
        out.resize(next);
        for (const QueryMatch& match : pending_) {
            out[starts_[match.query]++] = match;
        }
    }

private:
    std::vector<QueryMatch> pending_;
    /** Counting-sort scratch: per-query write cursors into the output. */
    std::vector<std::size_t> starts_;
};

/** Atomic fetch-min (see stream_executor.cpp for why this makes
 *  fail-fast deterministic). */
void lower_floor(std::atomic<std::size_t>& floor, std::size_t candidate)
{
    std::size_t current = floor.load(std::memory_order_relaxed);
    while (candidate < current &&
           !floor.compare_exchange_weak(current, candidate,
                                        std::memory_order_relaxed)) {
    }
}

}  // namespace

MultiStreamExecutor::MultiStreamExecutor(MultiQuery queries,
                                         stream::StreamOptions options)
    : engine_(make_fused_engine(std::move(queries), options.engine)),
      options_(options)
{
}

stream::StreamResult MultiStreamExecutor::run(PaddedView input,
                                              MultiStreamSink& sink) const
{
    const simd::Kernels& kernels = simd::kernels_for(options_.engine.simd);
    obs::PhaseStopwatch watch;
    std::vector<stream::RecordSpan> records = stream::split_records(input, kernels);
    std::uint64_t split_ns = watch.elapsed_ns();
    stream::StreamResult result = run_records(input, records, sink);
    result.timings.add(obs::Phase::kSplit, split_ns);
    return result;
}

stream::StreamResult MultiStreamExecutor::run_records(
    PaddedView input, const std::vector<stream::RecordSpan>& records,
    MultiStreamSink& sink) const
{
    stream::StreamResult result;
    result.records = records.size();
    if (records.empty()) {
        return result;
    }
    const std::size_t num_queries = engine_->query_set().size();

    const std::size_t batch_size =
        options_.records_per_batch > 0 ? options_.records_per_batch : 1;
    const std::size_t num_batches =
        (records.size() + batch_size - 1) / batch_size;
    std::size_t workers = options_.threads != 0
                              ? options_.threads
                              : std::thread::hardware_concurrency();
    workers = std::min(std::max<std::size_t>(workers, 1), num_batches);

    const bool fail_fast = options_.policy == stream::ErrorPolicy::kFailFast;
    const bool retry_scalar =
        options_.policy == stream::ErrorPolicy::kRetryScalar;
    const RunBudget& stream_budget = options_.stream_budget;
    const bool stream_governed = stream_budget.active();
    const bool record_governed = options_.record_budget_ms > 0;
    std::vector<BatchOutcome> outcomes(num_batches);
    std::atomic<std::size_t> next_batch{0};
    std::atomic<std::size_t> error_floor{kNoError};
    // First record that did not finish because the stream budget tripped
    // (see stream_executor.cpp for the determinism argument).
    std::atomic<std::size_t> budget_floor{kNoError};

    struct ShardObs {
        obs::Counters counters;
        obs::Timings timings;
        std::size_t record_blocks = 0;
        std::size_t retried = 0;
        std::size_t diverged = 0;
    };
    std::vector<ShardObs> shard_obs(workers);

    auto worker = [&](std::size_t shard) {
        if constexpr (fault::kEnabled) {
            fault::maybe_stall(fault::Site::kWorkerStartup);
        }
        ShardObs& local = shard_obs[shard];
        // One collector for every record (and scalar retry) this worker
        // runs.
        RecordCollector collector(num_queries);
        // Scalar-tier fused engine for kRetryScalar, built on first use.
        std::unique_ptr<FusedEngine> scalar_engine;
        for (;;) {
            std::size_t batch = next_batch.fetch_add(1, std::memory_order_relaxed);
            if (batch >= num_batches) {
                break;
            }
            std::size_t first = batch * batch_size;
            std::size_t last = std::min(first + batch_size, records.size());
            if (stream_governed &&
                stream_budget.exceeded() != StatusCode::kOk) {
                lower_floor(budget_floor, first);
                break;
            }
            if (fail_fast && first > error_floor.load(std::memory_order_relaxed)) {
                continue;
            }
            BatchOutcome& out = outcomes[batch];
            out.records.reserve(last - first);
            bool budget_tripped = false;
            for (std::size_t r = first; r < last; ++r) {
                if (fail_fast && r > error_floor.load(std::memory_order_relaxed)) {
                    break;
                }
                if (stream_governed &&
                    stream_budget.exceeded() != StatusCode::kOk) {
                    lower_floor(budget_floor, r);
                    budget_tripped = true;
                    break;
                }
                const stream::RecordSpan& span = records[r];
                collector.reset();
                RecordOutcome outcome;
                outcome.record = r;
                RunBudget record_budget = stream_budget;
                if (record_governed) {
                    record_budget = stream_budget.tightened(
                        RunBudget::Clock::now() +
                        std::chrono::milliseconds(options_.record_budget_ms));
                }
                RunStats run_stats =
                    stream_governed || record_governed
                        ? engine_->run_with_stats(
                              input.subview(span.begin, span.size()),
                              collector, record_budget)
                        : engine_->run_with_stats(
                              input.subview(span.begin, span.size()),
                              collector);
                outcome.status = run_stats.status;
                if constexpr (obs::kEnabled) {
                    local.counters.merge(run_stats.counters);
                    local.timings.merge(run_stats.timings);
                    local.record_blocks +=
                        (span.size() + simd::kBlockSize - 1) / simd::kBlockSize;
                }
                if (!outcome.status.ok() && outcome.status.is_governance() &&
                    stream_governed &&
                    stream_budget.exceeded() != StatusCode::kOk) {
                    // The stream budget cut this record short: unfinished,
                    // not failed.
                    lower_floor(budget_floor, r);
                    budget_tripped = true;
                    break;
                }
                if (!outcome.status.ok() && retry_scalar &&
                    !outcome.status.is_governance()) {
                    if (scalar_engine == nullptr) {
                        EngineOptions scalar_options = options_.engine;
                        scalar_options.simd = simd::Level::scalar;
                        std::vector<query::Query> sources;
                        sources.reserve(engine_->query_set().size());
                        for (std::size_t q = 0; q < engine_->query_set().size();
                             ++q) {
                            sources.push_back(engine_->query_set().source(q));
                        }
                        scalar_engine = make_fused_engine(
                            MultiQuery::compile(sources), scalar_options);
                    }
                    collector.reset();
                    RunStats scalar_stats =
                        stream_governed || record_governed
                            ? scalar_engine->run_with_stats(
                                  input.subview(span.begin, span.size()),
                                  collector, record_budget)
                            : scalar_engine->run_with_stats(
                                  input.subview(span.begin, span.size()),
                                  collector);
                    ++local.retried;
                    local.counters.add(obs::Counter::kScalarRetries);
                    if (scalar_stats.status.code != outcome.status.code ||
                        scalar_stats.status.offset != outcome.status.offset) {
                        ++local.diverged;
                        local.counters.add(obs::Counter::kTierDivergences);
                    }
                    outcome.status = scalar_stats.status;
                }
                outcome.begin = out.matches.size();
                if (outcome.status.ok()) {
                    collector.flush_into(out.matches);
                }
                outcome.end = out.matches.size();
                if (!outcome.status.ok() && fail_fast) {
                    lower_floor(error_floor, r);
                }
                bool failed = !outcome.status.ok();
                out.records.push_back(outcome);
                if (fail_fast && failed) {
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
    for (const ShardObs& shard : shard_obs) {
        result.counters.merge(shard.counters);
        result.timings.merge(shard.timings);
        result.record_blocks += shard.record_blocks;
        result.retried_records += shard.retried;
        result.tier_divergences += shard.diverged;
    }

    // Ordered replay: records ascend across and within batches; per record
    // the queries replay in set order. Under fail-fast everything past the
    // floor is discarded, the floor record being the one reported error.
    const std::size_t floor = error_floor.load(std::memory_order_relaxed);
    const std::size_t bfloor = budget_floor.load(std::memory_order_relaxed);
    bool stopped = false;
    bool error_stopped = false;
    for (std::size_t batch = 0; batch < num_batches && !stopped; ++batch) {
        const BatchOutcome& batch_outcome = outcomes[batch];
        for (const RecordOutcome& outcome : batch_outcome.records) {
            if (outcome.record >= bfloor) {
                // Finished after the budget floor: discarded, like a
                // fail-fast record past the error floor.
                stopped = true;
                break;
            }
            if (fail_fast && outcome.record > floor) {
                stopped = true;
                error_stopped = true;
                break;
            }
            if (outcome.status.ok()) {
                for (std::size_t i = outcome.begin; i < outcome.end; ++i) {
                    const QueryMatch& match = batch_outcome.matches[i];
                    sink.on_match(match.query, outcome.record, match.offset);
                }
                result.matches += outcome.end - outcome.begin;
            } else {
                sink.on_record_error(outcome.record, outcome.status);
                ++result.failed_records;
                ++result.error_tally[static_cast<std::size_t>(outcome.status.code)];
                if (result.first_error_record == stream::StreamResult::kNone) {
                    result.first_error_record = outcome.record;
                    result.first_error = outcome.status;
                    result.first_error_span_begin =
                        records[outcome.record].begin;
                }
                if (fail_fast) {
                    stopped = true;
                    error_stopped = true;
                    break;
                }
            }
        }
    }
    if (bfloor != kNoError && !error_stopped) {
        // Stream-budget stop: synthesize the floor record's governance
        // error (see stream_executor.cpp).
        StatusCode code = stream_budget.exceeded();
        if (code == StatusCode::kOk) {
            code = StatusCode::kDeadlineExceeded;
        }
        EngineStatus synthesized{code, 0};
        result.budget_stopped = true;
        sink.on_record_error(bfloor, synthesized);
        ++result.failed_records;
        ++result.error_tally[static_cast<std::size_t>(code)];
        if (result.first_error_record == stream::StreamResult::kNone) {
            result.first_error_record = bfloor;
            result.first_error = synthesized;
            result.first_error_span_begin = records[bfloor].begin;
        }
    }
    return result;
}

}  // namespace descend::multi
