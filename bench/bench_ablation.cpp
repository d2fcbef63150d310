/**
 * @file
 * Ablation study of the design choices DESIGN.md calls out (not a paper
 * table; quantifies each mechanism's contribution):
 *
 *  - full:        all four skips, AVX2 pipeline (the paper configuration:
 *                 the engine defaults without the within-element skip);
 *  - no-leaf:     commas/colons always classified (Section 3.3 skipping
 *                 leaves disabled);
 *  - no-child:    rejected subtrees walked instead of fast-forwarded;
 *  - no-sibling:  no fast-forward after unitary matches;
 *  - no-head:     `$..label` queries run the main loop from byte 0
 *                 instead of memmem skipping to the label;
 *  - no-skips:    the plain depth-stack simulation of Section 3.2;
 *  - scalar:      all skips on, but the SWAR kernels instead of AVX2 —
 *                 isolating the value of SIMD classification itself;
 *  - within:      full plus the Section 4.5 within-element label skip
 *                 (the engine defaults).
 *
 * Representative queries: one per regime (child-heavy, rare-descendant,
 * low-selectivity descendant, nested-ambiguous).
 */
#include "bench/harness.h"

namespace {

using namespace descend;

struct Variant {
    const char* name;
    EngineOptions options;
};

std::vector<Variant> variants()
{
    std::vector<Variant> result;
    // The paper's engine: the within-element skip is an extension, on by
    // default, so every variant but `within` runs without it.
    EngineOptions full;
    full.label_within_skipping = false;
    result.push_back({"full", full});

    EngineOptions no_leaf = full;
    no_leaf.leaf_skipping = false;
    result.push_back({"no-leaf", no_leaf});

    EngineOptions no_child = full;
    no_child.child_skipping = false;
    result.push_back({"no-child", no_child});

    EngineOptions no_sibling = full;
    no_sibling.sibling_skipping = false;
    result.push_back({"no-sibling", no_sibling});

    EngineOptions no_head = full;
    no_head.head_skipping = false;
    result.push_back({"no-head", no_head});

    EngineOptions no_skips = full;
    no_skips.leaf_skipping = false;
    no_skips.child_skipping = false;
    no_skips.sibling_skipping = false;
    no_skips.head_skipping = false;
    result.push_back({"no-skips", no_skips});

    EngineOptions scalar = full;
    scalar.simd = simd::Level::scalar;
    result.push_back({"scalar", scalar});

    // The Section 4.5 future-work classifier, implemented here as an
    // extension: within-element label fast-forwarding (on by default).
    EngineOptions within = full;
    within.label_within_skipping = true;
    result.push_back({"within", within});
    return result;
}

void register_ablations(const char* id)
{
    auto specs = bench::catalog_subset({id});
    if (specs.empty()) {
        return;
    }
    bench::QuerySpec spec = specs.front();
    for (const Variant& variant : variants()) {
        benchmark::RegisterBenchmark(
            (spec.id + "/" + variant.name).c_str(),
            [spec, variant](benchmark::State& state) {
                const PaddedString& doc = bench::dataset(spec.dataset);
                std::size_t expected =
                    bench::verified_count(spec.dataset, spec.query);
                DescendEngine engine(automaton::CompiledQuery::compile(spec.query),
                                     variant.options);
                bench::run_engine_benchmark(state, engine, doc, expected);
            });
    }
}

}  // namespace

int main(int argc, char** argv)
{
    register_ablations("B1");   // child+wildcard chains, many matches
    register_ablations("B2");   // rare branch: child skipping dominates
    register_ablations("B3r");  // rare label: head-skipping dominates
    register_ablations("C1");   // low-selectivity descendant
    register_ablations("C2r");  // nested authors: the within-skip target
    register_ablations("A2");   // nested ambiguous labels, deep stack
    register_ablations("Ts");   // unitary chain: sibling skipping
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
