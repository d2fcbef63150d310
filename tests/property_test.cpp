/**
 * @file
 * Differential property tests: random documents crossed with random
 * queries; the DOM oracle, the surfer baseline, and the main engine in
 * every configuration must produce identical match sets.
 *
 * Parameterized over (shape profile x seed block); each instance runs many
 * (document, query) pairs, so the suite covers thousands of cases. For
 * open-ended runs of the same invariant (every skip-flag combination,
 * extended selectors, the fused engine), use `fuzz_engine --selectors N`.
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "descend/workloads/builder.h"
#include "descend/workloads/random_json.h"
#include "test_helpers.h"

namespace descend {
namespace {

struct ShapeProfile {
    const char* name;
    workloads::RandomJsonOptions options;
};

ShapeProfile shape(const char* name, int max_depth, int max_width,
                   unsigned container_chance, unsigned whitespace_chance,
                   unsigned nasty_string_chance)
{
    ShapeProfile profile;
    profile.name = name;
    profile.options.max_depth = max_depth;
    profile.options.max_width = max_width;
    profile.options.container_chance = container_chance;
    profile.options.whitespace_chance = whitespace_chance;
    profile.options.nasty_string_chance = nasty_string_chance;
    return profile;
}

const ShapeProfile kShapes[] = {
    shape("balanced", 8, 6, 70, 20, 25),
    shape("deep", 20, 3, 95, 5, 10),
    shape("wide", 4, 14, 60, 10, 10),
    shape("escape_heavy", 6, 5, 60, 15, 80),
    shape("whitespace_heavy", 6, 5, 65, 70, 20),
    shape("atoms", 3, 10, 40, 20, 30),
};

class PropertyTest
    : public ::testing::TestWithParam<std::tuple<int /*shape*/, int /*seed block*/>> {
};

TEST_P(PropertyTest, AllEnginesAgreeOnRandomInputs)
{
    const auto [shape_index, seed_block] = GetParam();
    ShapeProfile profile = kShapes[shape_index];
    for (int i = 0; i < 12; ++i) {
        workloads::RandomJsonOptions options = profile.options;
        options.seed = static_cast<std::uint64_t>(seed_block) * 1000 +
                       static_cast<std::uint64_t>(i) * 37 + 1;
        std::string document = workloads::random_json(options);
        for (int q = 0; q < 6; ++q) {
            std::string query = workloads::random_query(
                options.seed * 131 + static_cast<std::uint64_t>(q),
                options.label_pool, 5, /*allow_indices=*/true,
                /*extended_selectors=*/q % 2 == 1);
            testing::expect_all_engines_agree(query, document);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PropertyTest,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<PropertyTest::ParamType>& info) {
        return std::string(kShapes[std::get<0>(info.param)].name) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

/** Larger single documents: stress block-crossing and deep stacks. */
TEST(PropertyLarge, BigDocumentsAgree)
{
    for (int seed = 1; seed <= 3; ++seed) {
        workloads::RandomJsonOptions options;
        options.seed = static_cast<std::uint64_t>(seed) * 7919;
        options.max_depth = 14;
        options.max_width = 9;
        options.container_chance = 85;
        std::string document = workloads::random_json(options);
        for (const char* query :
             {"$..a", "$..a..b", "$.a.*..c", "$..*.b", "$[0]..a[1]"}) {
            testing::expect_all_engines_agree(query, document);
        }
    }
}

/**
 * Robustness: the engine promises only *safe* behaviour on malformed
 * input (no crash, no hang, no out-of-bounds) — randomly mutated and
 * truncated documents must run to completion in every configuration.
 */
TEST(PropertyRobustness, MutatedDocumentsDoNotCrash)
{
    workloads::Rng rng(0xfeedface);
    static const char kNoise[] = "{}[]:,\"\\x0 ";
    for (int seed = 1; seed <= 40; ++seed) {
        workloads::RandomJsonOptions options;
        options.seed = static_cast<std::uint64_t>(seed);
        options.max_depth = 6;
        std::string document = workloads::random_json(options);
        // Mutate a few random bytes, or truncate.
        std::string mutated = document;
        if (!mutated.empty() && rng.chance(30)) {
            mutated.resize(rng.below(mutated.size()) + 1);
        }
        for (int m = 0; m < 4 && !mutated.empty(); ++m) {
            mutated[rng.below(mutated.size())] =
                kNoise[rng.below(sizeof(kNoise) - 1)];
        }
        PaddedString padded(mutated);
        for (const char* query : {"$.a", "$..a", "$..a.b", "$.*.*", "$[1]..b"}) {
            for (const EngineOptions& config : testing::engine_configurations()) {
                DescendEngine engine(automaton::CompiledQuery::compile(query),
                                     config);
                CountSink sink;
                engine.run(padded, sink);  // must terminate without crashing
            }
        }
    }
}

/** Regression corpus: every discrepancy ever found lands here. */
TEST(PropertyRegressions, KnownTrickyCases)
{
    testing::expect_all_engines_agree("$..a.b", R"({"a": {"a": {"b": 1}}})");
    testing::expect_all_engines_agree("$..a[0]", R"({"a": [[1], 2]})");
    testing::expect_all_engines_agree("$.*[1]", R"([[1, 2], {"x": [3, 4]}])");
    testing::expect_all_engines_agree("$..b", R"({"b": {"b": {"b": 1}}})");
    testing::expect_all_engines_agree(
        "$..a.*", R"({"a": [1, {"a": [2]}], "x": {"a": {"y": 3}}})");
}

}  // namespace
}  // namespace descend
