/**
 * @file
 * Request dispatch: the one path every decoded frame takes to an engine,
 * shared by the daemon's worker pool, the bench smoke checks, the serve
 * test suite, and the frame fuzzer (which all call handle() in-process,
 * no sockets involved).
 *
 * A RequestMode routes to the matching execution substrate:
 *
 *   kSingle → the cached DescendEngine's run_with_stats
 *   kMulti  → the cached FusedEngine (fused single pass)
 *   kNdjson → a per-request StreamExecutor built from the cached
 *             CompiledQuery (a table copy, not a recompilation), run
 *             inline with one worker — the daemon's parallelism is
 *             across requests, so nesting a second thread pool inside a
 *             request worker would only oversubscribe the host
 *
 * Tenant governance: request-supplied limits may only *tighten* the
 * server defaults (effective = request == 0 ? default : min(request,
 * default)), so no tenant can exceed the operator's EngineLimits.
 * Deadlines clamp the same way against max_deadline_ms and are measured
 * from handle() entry (service time); the server's drain CancelToken
 * rides every request budget, which is how SIGTERM cuts in-flight runs
 * short.
 *
 * Match offsets in responses are absolute body positions in every mode
 * (the NDJSON path adds each record's span begin); kMulti responses
 * interleave (query_index, offset) pairs in the offsets array — see
 * protocol.h.
 */
#pragma once

#include <string>

#include "descend/engine/scratch.h"
#include "descend/serve/protocol.h"
#include "descend/serve/query_cache.h"
#include "descend/util/budget.h"

namespace descend::serve {

/** Server-side execution policy applied to every request. */
struct ServePolicy {
    /**
     * Engine configuration template: SIMD tier, skipping toggles, and the
     * *default* EngineLimits (also the per-tenant ceiling — requests can
     * only tighten them). The budget member is ignored; governance comes
     * from the per-request deadline and the server's drain token.
     */
    EngineOptions engine;
    /** Deadline applied when a request specifies none; 0 = none. */
    std::uint32_t default_deadline_ms = 0;
    /** Ceiling on any request's deadline; 0 = uncapped. */
    std::uint32_t max_deadline_ms = 0;
    /**
     * Cap on the total projected payload of one kWantValues response.
     * Overlapping descendant matches can make the value set quadratic in
     * the document ($..a over deep nesting re-ships every enclosing
     * subtree), so an uncapped response would let a small request frame
     * command an arbitrarily large reply. At the cap the values body is
     * cut (document-order prefix) and kValuesTruncated is set;
     * match_count and offsets are unaffected. 0 = uncapped.
     */
    std::size_t max_projected_bytes = std::size_t{64} << 20;
};

/** Routes decoded requests to engines. Stateless apart from the shared
 *  cache reference: one dispatcher serves every worker thread. */
class Dispatcher {
public:
    Dispatcher(ServePolicy policy, QueryCache& cache)
        : policy_(policy), cache_(&cache)
    {
    }

    /**
     * Executes @p request and builds the response. Never throws on
     * request content: compile failures become kBadQuery, anything
     * unexpected kInternal. @p scratch is the calling worker's reusable
     * state; @p drain_cancel (optional) is the server's drain token,
     * threaded into the run budget.
     *
     * The in-process entry (tests, the frame fuzzer): the body is copied
     * into @p scratch's padded arena first.
     */
    Response handle(const Request& request, RunScratch& scratch,
                    const CancelToken* drain_cancel = nullptr) const;

    /** The server's entry: the same, run in place on the body a
     *  FrameReader received into its padded buffer. */
    Response handle(const ReceivedRequest& request, RunScratch& scratch,
                    const CancelToken* drain_cancel = nullptr) const;

    const ServePolicy& policy() const noexcept { return policy_; }

private:
    /** The one dispatch core: @p request's fields (its body string is
     *  not read) over the padded @p document. */
    Response dispatch(const Request& request, PaddedView document,
                      RunScratch& scratch,
                      const CancelToken* drain_cancel) const;

    /** The request's effective limits: defaults tightened by the frame. */
    EngineLimits effective_limits(const Request& request) const;

    /** The request's run budget (deadline from handle() entry + drain
     *  token); inactive when neither is configured. */
    RunBudget effective_budget(const Request& request,
                               const CancelToken* drain_cancel) const;

    ServePolicy policy_;
    QueryCache* cache_;
};

}  // namespace descend::serve
