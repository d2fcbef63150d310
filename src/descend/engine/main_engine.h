/**
 * @file
 * The descend engine: the paper's main algorithm (Section 3.4) over one
 * compiled query. The depth-stack simulation and its four skips live in
 * engine/depth_stack.h, shared with the fused multi-query engine; this
 * engine supplies the single-query report path.
 */
#pragma once

#include "descend/automaton/compiled.h"
#include "descend/engine/api.h"
#include "descend/engine/structural_iterator.h"

namespace descend {

/**
 * All run entry points are const and touch no mutable engine state: one
 * engine instance (and the compiled automaton it owns) can safely serve
 * concurrent runs from many threads, which is how the record-stream shard
 * scheduler (src/descend/stream) shares a single compiled query.
 */
class DescendEngine final : public JsonPathEngine {
public:
    DescendEngine(automaton::CompiledQuery query, EngineOptions options = {});

    /** Convenience: parse, compile and wrap a query. */
    static DescendEngine for_query(std::string_view query_text,
                                   EngineOptions options = {})
    {
        return DescendEngine(automaton::CompiledQuery::compile(query_text), options);
    }

    std::string name() const override;

    EngineStatus run(const PaddedString& document, MatchSink& sink) const override
    {
        return run(PaddedView(document), sink);
    }

    /**
     * Zero-copy slice run: @p document may be a window of a larger padded
     * buffer (a record of an NDJSON stream). Its size() is a hard end
     * bound — the classifiers mask the final partial block, so the bytes
     * beyond (the following records) are never interpreted. Reported
     * offsets and status offsets are relative to the slice start.
     */
    EngineStatus run(PaddedView document, MatchSink& sink) const;

    /** Devirtualized counting path (the sink is monomorphized away). */
    CountResult count_checked(const PaddedString& document) const override
    {
        return count_checked(PaddedView(document));
    }

    CountResult count_checked(PaddedView document) const;

    /** Like run(), additionally reporting what the engine did. */
    RunStats run_with_stats(PaddedView document, MatchSink& sink) const;

    /**
     * Budget-override run: governs this one run by @p budget instead of
     * options().budget — how the stream executor gives each record its
     * own slice of a stream-level budget without rebuilding engines.
     */
    RunStats run_with_stats(PaddedView document, MatchSink& sink,
                            const RunBudget& budget) const;

    const automaton::CompiledQuery& compiled_query() const noexcept { return query_; }
    const EngineOptions& options() const noexcept { return options_; }

private:
    /** A template over the sink, so the counting path runs without a
     *  virtual call. @p budget governs the run (options().budget, or the
     *  stream executor's per-record budget). */
    template <typename Sink>
    RunStats dispatch(PaddedView document, Sink& sink,
                      const RunBudget& budget) const;

    automaton::CompiledQuery query_;
    EngineOptions options_;
    const simd::Kernels* kernels_;
};

}  // namespace descend
