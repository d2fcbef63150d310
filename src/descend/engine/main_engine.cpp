#include "descend/engine/main_engine.h"

#include <optional>

#include "descend/engine/depth_stack.h"
#include "descend/project/filter_eval.h"

namespace descend {
namespace {

/**
 * The single-query reporter: the filter gate, the match limit and the
 * sink. Templated over the sink so the counting path is fully
 * monomorphized.
 */
template <typename Sink>
class QueryReporter {
public:
    /** @param document / @p kernels the run's view and kernel tier — the
     *  filter gate extends candidate spans over them when the query
     *  carries a trailing predicate. */
    QueryReporter(const automaton::CompiledQuery& query,
                  const EngineOptions& options, Sink& sink, RunStats& stats,
                  PaddedView document, const simd::Kernels& kernels)
        : options_(options), sink_(sink)
    {
        if (const query::FilterExpr* filter = query.filter()) {
            filter_gate_.emplace(*filter, document, kernels, &stats.counters);
        }
    }

    /** Reports a match, enforcing EngineLimits::max_match_count. With a
     *  filter query this is the candidate-accepting choke point: the
     *  predicate runs over the candidate span first, and a rejected
     *  candidate is not a match (it does not count toward the limit —
     *  mirroring the DOM oracle, which never reports it at all). */
    bool report(int, std::size_t offset)
    {
        if (filter_gate_.has_value() && !filter_gate_->admits(offset)) {
            return true;
        }
        if (++matches_ > options_.limits.max_match_count) {
            return false;
        }
        sink_.on_match(offset);
        return true;
    }

    /** The query is exactly `$`: the whole document is its one match. */
    void report_root(std::size_t start) { sink_.on_match(start); }

private:
    const EngineOptions& options_;
    Sink& sink_;
    /** Present iff the query carries a trailing filter predicate. */
    std::optional<project::FilterGate> filter_gate_;
    std::size_t matches_ = 0;
};

}  // namespace

DescendEngine::DescendEngine(automaton::CompiledQuery query, EngineOptions options)
    : query_(std::move(query)),
      options_(options),
      kernels_(&simd::kernels_for(options.simd))
{
}

std::string DescendEngine::name() const
{
    return std::string("descend-") + kernels_->name;
}

template <typename Sink>
RunStats DescendEngine::dispatch(PaddedView document, Sink& sink,
                                 const RunBudget& budget) const
{
    RunStats stats;
    QueryReporter<Sink> reporter(query_, options_, sink, stats, document,
                                 *kernels_);
    detail::run_depth_stack(query_, query_.alphabet(), query_.has_indices(),
                            query_.root_accepting(), options_, *kernels_,
                            document, budget, reporter, stats);
    return stats;
}

EngineStatus DescendEngine::run(PaddedView document, MatchSink& sink) const
{
    return dispatch(document, sink, options_.budget).status;
}

RunStats DescendEngine::run_with_stats(PaddedView document, MatchSink& sink) const
{
    return run_with_stats(document, sink, options_.budget);
}

RunStats DescendEngine::run_with_stats(PaddedView document, MatchSink& sink,
                                       const RunBudget& budget) const
{
    // A stopwatch rather than a scoped timer: the timing must land in the
    // returned object, and a destructor firing after the return-value copy
    // would miss it.
    obs::PhaseStopwatch watch;
    RunStats stats = dispatch(document, sink, budget);
    stats.timings.add(obs::Phase::kAutomaton, watch.elapsed_ns());
    return stats;
}

namespace {

/** Concrete counting sink: no virtual dispatch inside the hot loop. */
struct DirectCounter {
    std::size_t count = 0;
    void on_match(std::size_t) { ++count; }
};

}  // namespace

CountResult DescendEngine::count_checked(PaddedView document) const
{
    DirectCounter counter;
    CountResult result;
    result.status = dispatch(document, counter, options_.budget).status;
    result.count = counter.count;
    return result;
}

}  // namespace descend
