#include "descend/multi/multi_stream.h"

#include <utility>

namespace descend::multi {
namespace {

using stream::detail::QueryMatch;

/**
 * The fused replay: a record's matches arrive in the engine's report
 * (document) order and reach the sink queries ascending, report order
 * within a query — a stable counting sort by query. Its buffers keep
 * their capacity across a run's records.
 */
class QueryOrderedReplay final : public stream::detail::RecordReplay {
public:
    QueryOrderedReplay(MultiStreamSink& sink, std::size_t num_queries)
        : sink_(sink), starts_(num_queries)
    {
    }

    void on_matches(std::size_t record, const QueryMatch* first,
                    const QueryMatch* last) override
    {
        starts_.assign(starts_.size(), 0);
        for (const QueryMatch* match = first; match != last; ++match) {
            ++starts_[match->query];
        }
        std::size_t next = 0;
        for (std::size_t& start : starts_) {
            next += start;
            start = next - start;
        }
        sorted_.resize(next);
        for (const QueryMatch* match = first; match != last; ++match) {
            sorted_[starts_[match->query]++] = *match;
        }
        for (std::size_t i = 0; i < sorted_.size(); ++i) {
            sink_.on_match(sorted_[i].query, record, sorted_[i].offset);
        }
    }

    void on_record_error(std::size_t record, const EngineStatus& status) override
    {
        sink_.on_record_error(record, status);
    }

private:
    MultiStreamSink& sink_;
    /** Counting-sort scratch: per-query write cursors into sorted_. */
    std::vector<std::size_t> starts_;
    std::vector<QueryMatch> sorted_;
};

/** Built only on a worker's first retry, so kept out of the hot text. */
[[gnu::cold]] std::unique_ptr<FusedEngine> scalar_twin(
    const FusedEngine& engine, const EngineOptions& options)
{
    return make_fused_engine(engine.query_set(), options);
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
    QueryOrderedReplay replay(sink, engine_->query_set().size());
    return stream::detail::run_sharded(*engine_, &scalar_twin, options_, input,
                                       records, replay);
}

}  // namespace descend::multi
