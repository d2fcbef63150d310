#include "descend/multi/fused.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "descend/engine/depth_stack.h"
#include "descend/project/filter_eval.h"

namespace descend::multi {
namespace {

/**
 * The subscriber-set reporter: an accepting product state reports its
 * whole accept set at once.
 */
class SetReporter {
public:
    SetReporter(const MultiQuery& queries, const ProductAutomaton& product,
                const EngineOptions& options, MultiSink& sink, RunStats& stats,
                PaddedView document, const simd::Kernels& kernels)
        : queries_(queries),
          product_(product),
          options_(options),
          sink_(sink),
          stats_(stats),
          document_(document),
          kernels_(kernels),
          matches_(queries.num_distinct(), 0)
    {
    }

    /**
     * Fans an accepting state out to its subscribers: distinct queries in
     * ascending id order (bitset scan), then each one's owners in
     * ascending input order — the report order of N independent runs. The
     * match limit applies per distinct query; duplicates share the counter
     * and so trip it identically to their own independent runs. A gated
     * set runs each filter-bearing subscriber's predicate first: a
     * rejected candidate is not a match, so it neither reaches the owners
     * nor counts toward the limit.
     */
    bool report(int state, std::size_t offset)
    {
        const int accept_id = product_.accept_set_id(state);
        const bool gated = product_.accept_set_gated(accept_id);
        bool within_limits = true;
        product_.accept_set(accept_id).for_each([&](std::size_t d) {
            if (gated && !admits(d, offset)) {
                return;
            }
            if (++matches_[d] > options_.limits.max_match_count) {
                within_limits = false;
                return;
            }
            for (std::size_t owner : queries_.owners(d)) {
                stats_.counters.add(obs::Counter::kSubscriberFanout);
                sink_.on_match(owner, offset);
            }
        });
        return within_limits;
    }

    /** Every query is `$`: each one's match is the whole document. */
    void report_root(std::size_t start)
    {
        for (std::size_t i = 0; i < queries_.size(); ++i) {
            sink_.on_match(i, start);
        }
    }

private:
    /** Distinct query @p d's filter verdict on the candidate at @p offset;
     *  true for filter-free queries. A gate is built on its query's first
     *  candidate of the run, so runs that surface no filter candidate
     *  allocate nothing for filters. */
    bool admits(std::size_t d, std::size_t offset)
    {
        const query::FilterExpr* filter = queries_.distinct(d).filter();
        if (filter == nullptr) {
            return true;
        }
        if (gates_.empty()) {
            gates_.resize(queries_.num_distinct());
        }
        std::unique_ptr<project::FilterGate>& gate = gates_[d];
        if (gate == nullptr) {
            gate = std::make_unique<project::FilterGate>(
                *filter, document_, kernels_, &stats_.counters);
        }
        return gate->admits(offset);
    }

    const MultiQuery& queries_;
    const ProductAutomaton& product_;
    const EngineOptions& options_;
    MultiSink& sink_;
    RunStats& stats_;
    PaddedView document_;
    const simd::Kernels& kernels_;
    /** Per-DISTINCT-query match tallies (limit enforcement). */
    std::vector<std::size_t> matches_;
    /** Per-distinct-query filter gates, built lazily by admits(). */
    std::vector<std::unique_ptr<project::FilterGate>> gates_;
};

/** Buffers a split run's matches, one part after another. */
class PartBuffer final : public MultiSink {
public:
    struct Match {
        std::size_t offset;
        std::size_t query;
    };

    void on_match(std::size_t query_index, std::size_t offset) override
    {
        matches.push_back({offset, query_index});
    }

    std::vector<Match> matches;
};

}  // namespace

FusedEngine::FusedEngine(MultiQuery queries, EngineOptions options,
                         int max_states)
    : queries_(std::move(queries)),
      parts_(QuerySetCompiler::compile_parts(queries_, max_states)),
      options_(options),
      kernels_(&simd::kernels_for(options.simd))
{
}

FusedEngine::~FusedEngine() = default;

std::string FusedEngine::name() const
{
    return std::string("descend-product-") + kernels_->name;
}

RunStats FusedEngine::dispatch(PaddedView document, MultiSink& sink,
                               const RunBudget& budget) const
{
    if (parts_.size() == 1) {
        return run_part(parts_.front(), document, sink, budget);
    }
    // Parts run back to back over the same view. A later part may fail
    // earlier in the document than an earlier part's matches reach, so
    // matches wait in a buffer until every part has run; a governance stop
    // (deadline, cancellation) ends the run at once.
    RunStats stats;
    PartBuffer buffer;
    std::uint64_t states = 0;
    for (const ProductAutomaton& part : parts_) {
        RunStats part_stats = run_part(part, document, buffer, budget);
        stats.counters.merge(part_stats.counters);
        states += static_cast<std::uint64_t>(part.num_states());
        const EngineStatus& status = part_stats.status;
        if (!status.ok() &&
            (stats.status.ok() || status.offset < stats.status.offset)) {
            stats.status = status;
        }
        if (status.is_governance()) {
            break;
        }
    }
    stats.counters.raise(obs::Counter::kProductStates, states);
    // Document order across parts; parts hold ascending distinct ids, so
    // equal offsets keep the single automaton's report order.
    std::stable_sort(buffer.matches.begin(), buffer.matches.end(),
                     [](const PartBuffer::Match& a, const PartBuffer::Match& b) {
                         return a.offset < b.offset;
                     });
    for (const PartBuffer::Match& match : buffer.matches) {
        if (!stats.status.ok() && match.offset > stats.status.offset) {
            break;
        }
        sink.on_match(match.query, match.offset);
    }
    return stats;
}

RunStats FusedEngine::run_part(const ProductAutomaton& part,
                               PaddedView document, MultiSink& sink,
                               const RunBudget& budget) const
{
    RunStats stats;
    stats.counters.raise(obs::Counter::kProductStates,
                         static_cast<std::uint64_t>(part.num_states()));
    SetReporter reporter(queries_, part, options_, sink, stats, document,
                         *kernels_);
    detail::run_depth_stack(part, queries_.alphabet(), queries_.any_counting(),
                            queries_.all_root_accepting(), options_, *kernels_,
                            document, budget, reporter, stats);
    return stats;
}

EngineStatus FusedEngine::run(PaddedView document, MultiSink& sink) const
{
    return dispatch(document, sink, options_.budget).status;
}

RunStats FusedEngine::run_with_stats(PaddedView document, MultiSink& sink,
                                     const RunBudget& budget) const
{
    obs::PhaseStopwatch watch;
    RunStats stats = dispatch(document, sink, budget);
    stats.timings.add(obs::Phase::kAutomaton, watch.elapsed_ns());
    return stats;
}

std::unique_ptr<FusedEngine> make_fused_engine(MultiQuery queries,
                                               EngineOptions options)
{
    return std::make_unique<FusedEngine>(std::move(queries), options);
}

std::unique_ptr<FusedEngine> make_fused_engine(
    const std::vector<std::string>& query_texts, EngineOptions options)
{
    return make_fused_engine(MultiQuery::compile(query_texts), options);
}

}  // namespace descend::multi
