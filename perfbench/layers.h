/**
 * @file
 * Standalone layer probes for the traced run: each times one module's
 * public entry point in isolation, over the workload's own inputs, so an
 * engine run can be split into estimated layer costs.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "descend/engine/padded_string.h"
#include "descend/obs/counters.h"

namespace perfbench {

/** ns per 64-byte block of Kernels::classify_batch over @p inputs,
 *  repeated until at least @p min_seconds elapsed. */
double probe_classify_ns_per_block(const std::vector<descend::PaddedView>& inputs,
                                   double min_seconds);

/** ns per 64-byte block of a LabelSearch::next() sweep for @p label (its
 *  escaped comparison form) over @p input. */
double probe_label_search_ns_per_block(descend::PaddedView input,
                                       const std::string& label,
                                       double min_seconds);

/** Per-query medians of query::Query::parse and CompiledQuery::compile. */
struct CompileProbe {
    double parse_us = 0;    ///< mean over the queries of the median parse
    double compile_us = 0;  ///< mean over the queries of the median compile
    double dfa_states = 0;  ///< total minimal-DFA states over the queries
};
CompileProbe probe_compile(const std::vector<std::string>& queries, int repeats);

/** Per-block attribution of one census pass, as shares of its blocks. */
struct BlockShares {
    double total_blocks = 0;
    double structural = 0;
    double child = 0;
    double sibling = 0;
    double within = 0;
    double head = 0;
};
BlockShares block_shares(const descend::obs::Counters& counters);

}  // namespace perfbench
