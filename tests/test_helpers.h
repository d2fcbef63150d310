/**
 * @file
 * Shared test helpers: run a query through every engine configuration and
 * demand byte-identical match sets.
 */
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "descend/baselines/dom_engine.h"
#include "descend/baselines/surfer_engine.h"
#include "descend/descend.h"
#include "descend/multi/fused.h"

namespace descend::testing {

/** Match offsets from the DOM oracle. */
inline std::vector<std::size_t> oracle_offsets(const std::string& query,
                                               const std::string& document)
{
    DomEngine oracle(query::Query::parse(query));
    PaddedString padded(document);
    return oracle.offsets(padded);
}

/** Match offsets from the main engine with the given options. */
inline std::vector<std::size_t> engine_offsets(const std::string& query,
                                               const std::string& document,
                                               EngineOptions options = {})
{
    DescendEngine engine(automaton::CompiledQuery::compile(query), options);
    PaddedString padded(document);
    return engine.offsets(padded);
}

/** Every interesting engine configuration to cross-check. */
inline std::vector<EngineOptions> engine_configurations()
{
    std::vector<EngineOptions> configurations;
    for (simd::Level level :
         {simd::Level::avx512, simd::Level::avx2, simd::Level::scalar}) {
        // Full paper configuration.
        EngineOptions all;
        all.simd = level;
        configurations.push_back(all);
        // Each skip disabled in isolation.
        for (int which = 0; which < 4; ++which) {
            EngineOptions opts;
            opts.simd = level;
            opts.leaf_skipping = which != 0;
            opts.child_skipping = which != 1;
            opts.sibling_skipping = which != 2;
            opts.head_skipping = which != 3;
            configurations.push_back(opts);
        }
        // Everything off: the plain depth-stack simulation.
        EngineOptions none;
        none.simd = level;
        none.leaf_skipping = false;
        none.child_skipping = false;
        none.sibling_skipping = false;
        none.head_skipping = false;
        none.label_within_skipping = false;
        configurations.push_back(none);
        // The defaults without the Section 4.5 within-element label skip,
        // alone and combined with head-skipping disabled (the skip's
        // heaviest use), so that the path without it stays covered.
        EngineOptions no_within;
        no_within.simd = level;
        no_within.label_within_skipping = false;
        configurations.push_back(no_within);
        EngineOptions no_within_no_head = no_within;
        no_within_no_head.head_skipping = false;
        configurations.push_back(no_within_no_head);
    }
    return configurations;
}

inline std::string describe(const EngineOptions& options)
{
    std::string description = simd::level_name(options.simd);
    description += options.leaf_skipping ? "+leaf" : "-leaf";
    description += options.child_skipping ? "+child" : "-child";
    description += options.sibling_skipping ? "+sibling" : "-sibling";
    description += options.head_skipping ? "+head" : "-head";
    description += options.label_within_skipping ? "+within" : "-within";
    return description;
}

/**
 * Asserts that the DOM oracle, the surfer baseline, and the main engine in
 * every configuration agree on the complete match set.
 */
inline void expect_all_engines_agree(const std::string& query,
                                     const std::string& document)
{
    SCOPED_TRACE("query: " + query);
    SCOPED_TRACE("document: " +
                 (document.size() <= 300 ? document
                                         : document.substr(0, 300) + "..."));
    std::vector<std::size_t> expected = oracle_offsets(query, document);

    PaddedString padded(document);
    SurferEngine surfer(automaton::CompiledQuery::compile(query));
    OffsetSink surfer_sink;
    EXPECT_EQ(surfer.run(padded, surfer_sink), EngineStatus{})
        << "engine: surfer reported a non-ok status on well-formed input";
    EXPECT_EQ(surfer_sink.offsets(), expected) << "engine: surfer";

    for (const EngineOptions& options : engine_configurations()) {
        DescendEngine engine(automaton::CompiledQuery::compile(query), options);
        OffsetSink sink;
        EXPECT_EQ(engine.run(padded, sink), EngineStatus{})
            << "engine: descend [" << describe(options)
            << "] reported a non-ok status on well-formed input";
        EXPECT_EQ(sink.offsets(), expected)
            << "engine: descend [" << describe(options) << "]";
    }
}

/** Shorthand: assert the match count from the oracle and all engines. */
inline void expect_count(const std::string& query, const std::string& document,
                         std::size_t expected_count)
{
    ASSERT_EQ(oracle_offsets(query, document).size(), expected_count)
        << "oracle disagrees with the test's expectation for " << query;
    expect_all_engines_agree(query, document);
}

/** The smallest product state cap that every single query of @p set
 *  compiles under: a fused engine built with it splits the set as far as
 *  bisection goes. */
inline int split_state_cap(const multi::MultiQuery& set)
{
    int cap = 1;
    for (std::size_t d = 0; d < set.num_distinct(); ++d) {
        cap = std::max(cap, multi::QuerySetCompiler::compile(set, 1 << 15, d, d + 1)
                                .subset_states());
    }
    return cap;
}

/** The two legs every fused parity check runs: the default state cap (one
 *  product automaton unless the set exceeds it) and split_state_cap. */
inline std::vector<std::unique_ptr<multi::FusedEngine>> fused_legs(
    const std::vector<std::string>& queries, const EngineOptions& options = {})
{
    multi::MultiQuery set = multi::MultiQuery::compile(queries);
    const int cap = split_state_cap(set);
    std::vector<std::unique_ptr<multi::FusedEngine>> legs;
    legs.push_back(std::make_unique<multi::FusedEngine>(set, options));
    legs.push_back(std::make_unique<multi::FusedEngine>(set, options, cap));
    // The cap splits the set unless the whole set needs no more subset
    // states than its largest query (e.g. filters sharing one trie node).
    const multi::FusedEngine& whole = *legs.front();
    const bool splits = whole.parts().size() > 1 ||
                        whole.parts().front().subset_states() > cap;
    EXPECT_EQ(legs.back()->parts().size() > 1, splits) << "state cap " << cap;
    return legs;
}

/** Trace label of a fused leg. */
inline std::string leg_label(const multi::FusedEngine& engine)
{
    return "fused leg: " + std::to_string(engine.parts().size()) + " part(s)";
}

}  // namespace descend::testing
