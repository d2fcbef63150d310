/**
 * @file
 * The benchmark's inputs. Document content comes from the library's
 * deterministic generators (workloads::generate); the seed only picks the
 * order of documents, queries and records, the serve arrival schedule and
 * the unique query texts, so every seed measures the same work.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "../bench/catalog.h"

namespace perfbench {

/** Paper queries from the repository's catalog (bench/catalog.h).
 *  Descendant-free and dense queries: classify + automaton bound. */
const std::vector<descend::bench::QuerySpec>& scan_queries();

/** Descendant queries, rare labels to common ones: head-skip bound. */
const std::vector<descend::bench::QuerySpec>& seek_queries();

/**
 * Compact (single-line) records cut from a generated dataset: the
 * outermost containers whose source text is at most @p max_record bytes,
 * re-serialized compactly, in document order.
 */
std::vector<std::string> compact_records(const std::string& dataset,
                                         std::size_t target_bytes,
                                         std::size_t max_record);

/** All generator names, in the library's order. */
std::vector<std::string> all_datasets();

}  // namespace perfbench
