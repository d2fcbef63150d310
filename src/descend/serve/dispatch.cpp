#include "descend/serve/dispatch.h"

#include <cstddef>
#include <exception>
#include <vector>

#include "descend/multi/fused.h"
#include "descend/obs/report.h"
#include "descend/project/span.h"
#include "descend/simd/dispatch.h"
#include "descend/stream/record_splitter.h"
#include "descend/stream/stream_executor.h"
#include "descend/stream/stream_sink.h"
#include "descend/util/errors.h"

namespace descend::serve {
namespace {

/** Folds the cache outcome into a run's counter registry, so per-request
 *  stats reports carry it (the cache's own atomics hold the aggregate). */
void tally_cache(obs::Counters& counters, bool hit)
{
    counters.add(hit ? obs::Counter::kServeCacheHits
                     : obs::Counter::kServeCacheMisses);
}

/**
 * Accumulates projected value slices into a response under the policy
 * cap. Once the cap trips, remaining matches are not even extended — the
 * truncation exists precisely so a small request cannot command
 * quadratic span-extension work plus an unbounded reply.
 */
struct ResponseValues {
    Response& response;
    std::size_t cap;  // 0 = uncapped
    std::size_t total = 0;
    bool truncated = false;

    void add(project::SpanExtender& extender, std::size_t offset)
    {
        if (truncated) {
            return;
        }
        const project::ValueSpan span = extender.extend(offset);
        const std::string_view slice = extender.slice(span);
        if (cap != 0 && slice.size() > cap - total) {
            truncated = true;
            response.flags |= kValuesTruncated;
            return;
        }
        total += slice.size();
        response.values.emplace_back(slice);
    }
};

/** Runs @p run, turning what it throws into a structured status. */
template <typename Run>
Response guarded(Run&& run)
{
    try {
        return run();
    } catch (const QueryError&) {
        // Compile failures (and set-level compile limits below) are the
        // tenant's problem, reported structurally; the connection and the
        // server outlive them.
        Response response;
        response.serve_status = ServeStatus::kBadQuery;
        return response;
    } catch (const LimitError&) {
        Response response;
        response.serve_status = ServeStatus::kBadQuery;
        return response;
    } catch (const std::exception&) {
        Response response;
        response.serve_status = ServeStatus::kInternal;
        return response;
    }
}

}  // namespace

Response Dispatcher::handle(const Request& request, RunScratch& scratch,
                            const CancelToken* drain_cancel) const
{
    return guarded([&] {
        return dispatch(request, scratch.document.assign(request.body),
                        scratch, drain_cancel);
    });
}

Response Dispatcher::handle(const ReceivedRequest& request,
                            RunScratch& scratch,
                            const CancelToken* drain_cancel) const
{
    return guarded([&] {
        return dispatch(request.request, request.body, scratch,
                        drain_cancel);
    });
}

EngineLimits Dispatcher::effective_limits(const Request& request) const
{
    // Tenant governance: a request's limits may only tighten the server
    // defaults — 0 means "server default", anything else is clamped to it.
    EngineLimits limits = policy_.engine.limits;
    if (request.max_depth != 0 && request.max_depth < limits.max_depth) {
        limits.max_depth = request.max_depth;
    }
    if (request.max_matches != 0 &&
        request.max_matches < limits.max_match_count) {
        limits.max_match_count =
            static_cast<std::size_t>(request.max_matches);
    }
    return limits;
}

RunBudget Dispatcher::effective_budget(const Request& request,
                                       const CancelToken* drain_cancel) const
{
    // Same tightening rule for time: 0 falls back to the server default,
    // and the tenant cap bounds both (an uncapped request under a
    // configured cap gets exactly the cap).
    std::uint32_t ms = request.deadline_ms != 0 ? request.deadline_ms
                                                : policy_.default_deadline_ms;
    if (policy_.max_deadline_ms != 0 &&
        (ms == 0 || ms > policy_.max_deadline_ms)) {
        ms = policy_.max_deadline_ms;
    }
    if (ms != 0) {
        return RunBudget::within_ms(ms, drain_cancel);
    }
    if (drain_cancel != nullptr) {
        return RunBudget::with_cancel(drain_cancel);
    }
    return RunBudget{};
}

Response Dispatcher::dispatch(const Request& request, PaddedView document,
                              RunScratch& scratch,
                              const CancelToken* drain_cancel) const
{
    EngineOptions options = policy_.engine;
    options.limits = effective_limits(request);
    // Governance travels as an explicit per-run budget (below), never
    // through the cached engines' options — entries are shared across
    // requests with different deadlines.
    options.budget = RunBudget{};

    const RunBudget budget = effective_budget(request, drain_cancel);

    bool hit = false;
    CachedQueryPtr entry =
        cache_->lookup(request.mode, request.query, options, hit);

    Response response;
    if (hit) {
        response.flags |= kCacheHit;
    }

    switch (request.mode) {
        case RequestMode::kSingle: {
            scratch.matches.reset();
            RunStats stats = entry->engine->run_with_stats(
                document, scratch.matches, budget);
            tally_cache(stats.counters, hit);
            response.engine_status = stats.status;
            response.match_count = scratch.matches.size();
            if (request.want_offsets()) {
                response.offsets.assign(scratch.matches.offsets().begin(),
                                        scratch.matches.offsets().end());
            }
            if (request.want_values()) {
                response.flags |= kHasValues;
                project::SpanExtender extender(
                    document, simd::kernels_for(options.simd),
                    &stats.counters);
                ResponseValues values{response, policy_.max_projected_bytes};
                for (std::size_t offset : scratch.matches.offsets()) {
                    values.add(extender, offset);
                }
            }
            if (request.want_stats()) {
                obs::RunReport report;
                report.engine = entry->engine->name();
                report.document_bytes = document.size();
                report.matches = scratch.matches.size();
                report.stats = stats;
                response.stats_json = obs::to_json(report);
            }
            break;
        }
        case RequestMode::kMulti: {
            const std::size_t num_queries =
                entry->multi_engine->query_set().size();
            if (request.want_offsets() || request.want_values()) {
                multi::CollectingMultiSink sink(num_queries);
                RunStats stats = entry->multi_engine->run_with_stats(
                    document, sink, budget);
                tally_cache(stats.counters, hit);
                response.engine_status = stats.status;
                for (std::size_t q = 0; q < num_queries; ++q) {
                    if (request.want_offsets()) {
                        for (std::size_t offset : sink.offsets(q)) {
                            response.offsets.push_back(q);
                            response.offsets.push_back(offset);
                        }
                    }
                    response.match_count += sink.offsets(q).size();
                }
                if (request.want_values()) {
                    // Per-owner fanout: values grouped per query in set
                    // order, document order within — the same convention
                    // as the (query, offset) pairs above.
                    response.flags |= kHasValues;
                    project::SpanExtender extender(
                        document, simd::kernels_for(options.simd),
                        &stats.counters);
                    ResponseValues values{response,
                                          policy_.max_projected_bytes};
                    for (std::size_t q = 0; q < num_queries; ++q) {
                        for (std::size_t offset : sink.offsets(q)) {
                            values.add(extender, offset);
                        }
                    }
                }
                if (request.want_stats()) {
                    obs::RunReport report;
                    report.engine = entry->multi_engine->name();
                    report.document_bytes = document.size();
                    report.matches =
                        static_cast<std::size_t>(response.match_count);
                    report.stats = stats;
                    response.stats_json = obs::to_json(report);
                }
            } else {
                multi::CountingMultiSink sink(num_queries);
                RunStats stats = entry->multi_engine->run_with_stats(
                    document, sink, budget);
                tally_cache(stats.counters, hit);
                response.engine_status = stats.status;
                response.match_count = sink.total();
                if (request.want_stats()) {
                    obs::RunReport report;
                    report.engine = entry->multi_engine->name();
                    report.document_bytes = document.size();
                    report.matches = sink.total();
                    report.stats = stats;
                    response.stats_json = obs::to_json(report);
                }
            }
            break;
        }
        case RequestMode::kNdjson: {
            // A per-request executor over the *cached* automaton (a table
            // copy, not a recompilation). One inline worker: the daemon
            // parallelizes across requests, not within one.
            stream::StreamOptions stream_options;
            stream_options.threads = 1;
            stream_options.engine = options;
            stream_options.policy = stream::ErrorPolicy::kSkipRecord;
            stream_options.stream_budget = budget;
            stream::StreamExecutor executor(entry->engine->compiled_query(),
                                            stream_options);
            const std::vector<stream::RecordSpan> records =
                stream::split_records(document,
                                      simd::kernels_for(options.simd));
            stream::CollectingStreamSink sink;
            stream::StreamResult result =
                executor.run_records(document, records, sink);
            if (result.first_error_record != stream::StreamResult::kNone) {
                // The protocol reports one engine status per request; for a
                // stream that is the first failing record, at its absolute
                // stream position.
                response.engine_status.code = result.first_error.code;
                response.engine_status.offset =
                    result.first_error_span_begin + result.first_error.offset;
            }
            response.match_count = result.matches;
            if (request.want_offsets()) {
                response.offsets.reserve(sink.matches().size());
                for (const auto& match : sink.matches()) {
                    response.offsets.push_back(records[match.record].begin +
                                               match.offset);
                }
            }
            obs::Counters projection_counters;
            if (request.want_values()) {
                // Extension runs over each record's SUBVIEW (the record-
                // boundary contract, project/span.h): a match at a
                // record's last byte cannot scan into the next record.
                response.flags |= kHasValues;
                ResponseValues values{response, policy_.max_projected_bytes};
                const simd::Kernels& kernels =
                    simd::kernels_for(options.simd);
                for (const auto& match : sink.matches()) {
                    const stream::RecordSpan& span = records[match.record];
                    project::SpanExtender extender(
                        document.subview(span.begin, span.end - span.begin),
                        kernels, &projection_counters);
                    values.add(extender, match.offset);
                }
            }
            if (request.want_stats()) {
                obs::StreamReport report;
                report.engine = executor.engine().name();
                report.document_bytes = document.size();
                report.records = result.records;
                report.matches = result.matches;
                report.failed_records = result.failed_records;
                report.record_blocks = result.record_blocks;
                report.counters = result.counters;
                report.counters.merge(projection_counters);
                tally_cache(report.counters, hit);
                report.timings = result.timings;
                report.error_tally = result.error_tally;
                response.stats_json = obs::to_json(report);
            }
            break;
        }
    }
    return response;
}

}  // namespace descend::serve
