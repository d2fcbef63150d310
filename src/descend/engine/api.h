/**
 * @file
 * The engine-facing public API: match sinks, engine options, and the
 * common interface implemented by the main engine and all three baselines,
 * so that tests and benchmarks are engine-generic. Run statistics
 * (RunStats) live in obs/run_stats.h with the rest of the observability
 * layer and are re-exported here.
 *
 * A match is reported as the byte offset of the first character of the
 * matched value (the opening brace/bracket for containers, the first
 * non-whitespace character for atoms). All engines in this repository
 * agree on this convention, which is how the differential tests compare
 * full result sets — not just counts.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "descend/engine/padded_string.h"
#include "descend/obs/run_stats.h"
#include "descend/simd/dispatch.h"
#include "descend/util/budget.h"
#include "descend/util/status.h"

namespace descend {

/** Receiver of query matches, invoked in document order. */
class MatchSink {
public:
    virtual ~MatchSink() = default;
    /** @param offset byte offset of the matched value's first character. */
    virtual void on_match(std::size_t offset) = 0;
};

/** Counts matches — the benchmark sink (as in the paper's JSONSki tweak). */
class CountSink final : public MatchSink {
public:
    void on_match(std::size_t) override { ++count_; }
    std::size_t count() const noexcept { return count_; }

private:
    std::size_t count_ = 0;
};

/** Collects match offsets for verification and extraction. */
class OffsetSink final : public MatchSink {
public:
    void on_match(std::size_t offset) override { offsets_.push_back(offset); }
    const std::vector<std::size_t>& offsets() const noexcept { return offsets_; }

    /** Moves the collected offsets out (for the checked convenience API). */
    std::vector<std::size_t> take_offsets() noexcept { return std::move(offsets_); }

private:
    std::vector<std::size_t> offsets_;
};

/** Adapts a callable to a sink. */
class CallbackSink final : public MatchSink {
public:
    explicit CallbackSink(std::function<void(std::size_t)> callback)
        : callback_(std::move(callback))
    {
    }
    void on_match(std::size_t offset) override { callback_(offset); }

private:
    std::function<void(std::size_t)> callback_;
};

/**
 * Main-engine knobs. Defaults are the paper's engine plus the Section 4.5
 * within-element label skip; the individual switches exist for the
 * ablation benchmarks and for differential testing (every combination
 * must produce identical matches).
 */
struct EngineOptions {
    /** SIMD level for the classifier pipeline (best available, capped by
     *  the DESCEND_SIMD_LEVEL env var). */
    simd::Level simd = simd::default_level();
    /** Toggle commas/colons off in internal states (skipping leaves). */
    bool leaf_skipping = true;
    /** Depth-classifier fast-forward over rejected subtrees (children). */
    bool child_skipping = true;
    /** Fast-forward after a unitary state's unique label matched (siblings). */
    bool sibling_skipping = true;
    /** memmem-based skipping to the label for `$..label`-style queries. */
    bool head_skipping = true;
    /**
     * The Section 4.5 "more refined classifier" extension, which the paper
     * leaves as future work: in waiting, non-accepting states,
     * fast-forward to the next occurrence of the awaited label within the
     * current element instead of stepping through every subtree. On by
     * default: it never changes a match set (the fuzzers cross it with
     * every other skip), it cuts the structural events of nested
     * descendant queries such as A2 by more than 3x, and the engine tests
     * each state's flags inline before calling it, so queries whose
     * states never wait run exactly as with it off. Switch it off for the
     * paper's engine (bench_ablation's `full` column). Off also for
     * queries with index selectors, which count array entries.
     */
    bool label_within_skipping = true;
    /**
     * Whole-document structural validation (per-kind bracket balances and
     * end-of-input string state, accounted during block classification —
     * see engine/validation.h). On by default: garbage-in must produce a
     * diagnosable EngineStatus, never a silently truncated match set. The
     * ablation benchmarks may switch it off to measure the paper's
     * original trust-the-input pipeline.
     */
    bool validate_structure = true;
    /** Resource limits enforced during the run (see util/status.h). */
    EngineLimits limits;
    /**
     * Run governance (see util/budget.h): a steady-clock deadline plus an
     * optional CancelToken, polled at batch-refill granularity (once per
     * simd::kBatchSize bytes) in the batched engines and at an equivalent
     * stride in the scalar baselines. The default is inactive — no clock
     * reads, no overhead beyond one null test per refill. A violation
     * surfaces as kDeadlineExceeded/kCancelled with the offset of the
     * first unprocessed block. The referenced CancelToken (if any) must
     * outlive every run using these options.
     */
    RunBudget budget;
};

// RunStats lives in obs/run_stats.h: it backs the engine's status paths in
// every build and carries the full observability registry when DESCEND_OBS
// is on.

/** Status-carrying outcome of a counting convenience run. */
struct CountResult {
    EngineStatus status;
    /** Matches counted before the run completed or failed; meaningful as a
     *  complete answer only when status.ok(). */
    std::size_t count = 0;

    bool ok() const noexcept { return status.ok(); }
};

/** Status-carrying outcome of an offset-collecting convenience run. */
struct OffsetsResult {
    EngineStatus status;
    /** Offsets reported before the run completed or failed; a complete
     *  match set only when status.ok(). */
    std::vector<std::size_t> offsets;

    bool ok() const noexcept { return status.ok(); }
};

/** Common interface of the main engine and the baseline engines. */
class JsonPathEngine {
public:
    virtual ~JsonPathEngine() = default;

    /** Engine name for benchmark tables (e.g. "descend", "jsonski"). */
    virtual std::string name() const = 0;

    /**
     * Runs the compiled query over the document, reporting all matches.
     *
     * Result-style API: the returned EngineStatus is ok() for a complete
     * run over well-formed input, and otherwise carries the malformed-
     * input or resource-limit classification plus the byte offset where
     * the problem was detected. Matches reported before the problem was
     * discovered remain in the sink; a non-ok status means the match set
     * must be treated as incomplete. Never throws on document content;
     * use raise_status() (util/errors.h) to convert to exceptions.
     */
    virtual EngineStatus run(const PaddedString& document, MatchSink& sink) const = 0;

    /**
     * Runs with a counting sink and reports the status alongside the
     * count, so a truncated run cannot be mistaken for a small or empty
     * match set. Virtual so engines can provide a devirtualized counting
     * path (rsonpath monomorphizes its recorder the same way via Rust
     * generics).
     */
    virtual CountResult count_checked(const PaddedString& document) const
    {
        CountSink sink;
        CountResult result;
        result.status = run(document, sink);
        result.count = sink.count();
        return result;
    }

    /** Runs, collecting match offsets together with the run's status. */
    OffsetsResult offsets_checked(const PaddedString& document) const
    {
        OffsetSink sink;
        OffsetsResult result;
        result.status = run(document, sink);
        result.offsets = sink.take_offsets();
        return result;
    }

    /**
     * Convenience counting run that DISCARDS the EngineStatus: a failed
     * run is indistinguishable from a genuinely small match set. Only for
     * inputs already known to be well-formed (e.g. generated workloads);
     * prefer count_checked() everywhere else.
     */
    std::size_t count(const PaddedString& document) const
    {
        return count_checked(document).count;
    }

    /**
     * Convenience offset collection that DISCARDS the EngineStatus; same
     * caveat as count() — prefer offsets_checked().
     */
    std::vector<std::size_t> offsets(const PaddedString& document) const
    {
        return offsets_checked(document).offsets;
    }
};

}  // namespace descend
