/**
 * @file
 * Product-automaton execution: the whole query set as ONE simulation.
 *
 * Where the lanes backend advances N depth stacks per structural event,
 * this engine advances a single product-state id over the set-compiled
 * automaton of product_query.h: one shared-alphabet label resolution, one
 * exception-list transition, one flags load — O(distinct automaton
 * states) of precomputation, O(1) work per event regardless of N.
 *
 * Skip decisions that lanes take by unanimous consensus are precomputed
 * here as per-state properties of the union automaton: `rejecting` IS
 * "nothing in the entire set can match below", so child skips need no
 * vote and can never be vetoed (fused_*_skip_suppressed does not exist in
 * this backend — a product state either certifies the skip for everyone
 * or takes the event). Matches fan out by iterating the target state's
 * subscriber bitset, then each distinct query's owner list — ascending,
 * so report order matches the lanes backend and N independent runs.
 * A trailing filter is a wildcard arc in the product; accept sets with a
 * filter-bearing subscriber are gated, and that subscriber's FilterGate
 * (built on its first candidate of the run) decides at report time —
 * the single report point DescendEngine and the lanes backend share.
 */
#pragma once

#include <string>

#include "descend/multi/fused.h"
#include "descend/multi/product_query.h"
#include "descend/simd/dispatch.h"

namespace descend::multi {

class ProductDescendEngine final : public FusedEngine {
public:
    /** Compiles the product automaton for @p queries. @throws LimitError
     *  when subset construction exceeds @p max_states (see
     *  QuerySetCompiler::compile). */
    explicit ProductDescendEngine(MultiQuery queries, EngineOptions options = {},
                                  int max_states = 1 << 15);

    using FusedEngine::run;

    std::string name() const override;

    EngineStatus run(PaddedView document, MultiSink& sink) const override;
    RunStats run_with_stats(PaddedView document, MultiSink& sink) const override;
    RunStats run_with_stats(PaddedView document, MultiSink& sink,
                            const RunBudget& budget) const override;

    const MultiQuery& query_set() const noexcept override { return queries_; }
    const EngineOptions& options() const noexcept override { return options_; }

    const ProductAutomaton& automaton() const noexcept { return product_; }

private:
    RunStats dispatch(PaddedView document, MultiSink& sink,
                      const RunBudget& budget) const;

    MultiQuery queries_;
    ProductAutomaton product_;
    EngineOptions options_;
    const simd::Kernels* kernels_;
};

}  // namespace descend::multi
