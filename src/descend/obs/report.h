/**
 * @file
 * Stable JSON export of observability data.
 *
 * One schema serves descend-cli --stats, the bench harnesses' counter
 * context, and the fuzz harness's invariant checks. The export is a
 * single flat JSON object (hand-serialized — the DOM is read-only):
 *
 *   {
 *     "obs": true,                          // false when DESCEND_OBS=OFF
 *     "engine": "descend-avx2",
 *     "document": {"bytes": N, "blocks": N},
 *     "status": {"code": "ok", "offset": 0},
 *     "matches": N,
 *     "counters": { "<counter_name>": N, ... },   // registry, enum order
 *     "blocks": {                           // the accounting invariant:
 *       "accounted": N,                     //   accounted == total per
 *       "total": N                          //   pass (a fused set split
 *     },                                    //   into k parts makes k)
 *     "timings_ns": { "<phase_name>": N, ... }    // nonzero phases only
 *   }
 *
 * Stream (NDJSON) reports replace "status" with "records" /
 * "failed_records" and add "errors": {"<status_name>": N, ...} — the
 * per-record error tally keyed by status_name(). With the gate off the
 * counters/blocks/timings objects are emitted empty and "obs" is false,
 * so consumers can branch on one field instead of probing for keys.
 *
 * Counter and phase names are a stable schema: renaming one is a breaking
 * change to every BENCH_*.json consumer (see EXPERIMENTS.md).
 */
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "descend/obs/run_stats.h"
#include "descend/util/status.h"

namespace descend::obs {

/** One single-document engine run, ready for export. */
struct RunReport {
    std::string engine;             ///< JsonPathEngine::name()
    std::size_t document_bytes = 0;
    std::size_t matches = 0;
    RunStats stats;
};

/** One NDJSON stream run: shard registries merged, errors tallied. */
struct StreamReport {
    std::string engine;
    std::size_t document_bytes = 0;
    std::size_t records = 0;
    std::size_t matches = 0;
    std::size_t failed_records = 0;
    /** Sum of ceil(record_size / kBlockSize) over all records — the
     *  invariant's right-hand side for streams (record slices exclude the
     *  newline separators, so the whole-buffer block count would not add
     *  up). */
    std::size_t record_blocks = 0;
    Counters counters;
    Timings timings;
    /** Failed records per status code (indexed by StatusCode value). */
    std::array<std::uint64_t, kStatusCodeCount> error_tally{};
};

std::string to_json(const RunReport& report);
std::string to_json(const StreamReport& report);

/** Sum of the six per-block attribution counters — the left-hand side of
 *  the accounting invariant (== total blocks for every completed run). */
std::uint64_t accounted_blocks(const Counters& counters);

/** ceil(bytes / kBlockSize): the invariant's right-hand side. */
std::size_t total_blocks(std::size_t document_bytes);

}  // namespace descend::obs
