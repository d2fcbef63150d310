/**
 * @file
 * Extended-selector throughput: array indices, slices, name unions and
 * filter predicates (DESIGN.md §4.12) over the walmart items dump — the
 * flattest dataset, so per-entry counter work is the dominant cost and
 * not hidden behind deep skipping.
 *
 *   bench_selectors [--mb N] [--repeat N] [--simd=LEVEL]
 *   bench_selectors --smoke [--simd=LEVEL]
 *
 * A hand-rolled harness (not google-benchmark): one best-of-R timed pass
 * per query, every timed query first verified offset-for-offset against
 * the DOM oracle (and the surfer baseline's count). Rows go to
 * BENCH_selectors.json (DESCEND_BENCH_JSON overrides), section
 * "selectors": gbps, matches, and a `counting` flag marking rows whose
 * automaton tracks array-entry counters. The "wildcard-reference" row is
 * the counter-free yardstick: comparing `$.items[0:].salePrice` against
 * `$.items.*.salePrice` isolates the per-comma counter overhead.
 *
 * --smoke: a small document, no timing, every query checked against the
 * DOM oracle under the default engine options AND with every skip
 * disabled; non-zero exit on any mismatch. Wired into CI on the scalar
 * tier and under ASan.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "descend/baselines/dom_engine.h"
#include "descend/baselines/surfer_engine.h"
#include "descend/descend.h"
#include "descend/json/dom.h"
#include "descend/workloads/datasets.h"

namespace {

using namespace descend;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SelectorSpec {
    const char* name;
    const char* query;
};

/**
 * One spec per selector family, plus the counter-free wildcard yardstick.
 * Bounds are sized for the 8 MB default document (~2500 items): the
 * slices select a real fraction of the array, the filters have selective
 * (~6% existence, price threshold) and unselective variants.
 */
std::vector<SelectorSpec> specs()
{
    return {
        {"wildcard-reference", "$.items.*.salePrice"},
        {"index", "$.items[100].name"},
        {"slice-closed", "$.items[0:1000].salePrice"},
        {"slice-open", "$.items[1000:].itemId"},
        {"slice-full", "$.items[0:].salePrice"},
        {"union-2", "$.items.*['name','salePrice']"},
        {"filter-exists", "$.items[?(@.bestMarketplacePrice)]"},
        {"filter-number", "$.items[?(@.salePrice<100)]"},
        {"filter-string", "$.items[?(@.stock=='Limited')]"},
        {"filter-chain", "$.items[?(@.bestMarketplacePrice.price>=500)]"},
    };
}

/** DOM-oracle offsets; the ground truth every engine run is held to. */
std::vector<std::size_t> oracle_offsets(const std::string& query,
                                        const PaddedString& document)
{
    DomEngine oracle(query::Query::parse(query));
    return oracle.offsets(document);
}

/** Engine offsets under @p options; exits loudly on an engine error. */
bool engine_matches_oracle(const std::string& query,
                           const PaddedString& document,
                           const EngineOptions& options,
                           const std::vector<std::size_t>& expected,
                           const char* what)
{
    DescendEngine engine(automaton::CompiledQuery::compile(query), options);
    OffsetSink sink;
    EngineStatus status = engine.run(document, sink);
    if (!status.ok()) {
        std::fprintf(stderr, "FAIL: %s: %s: %s\n", what, query.c_str(),
                     to_string(status).c_str());
        return false;
    }
    if (sink.offsets() != expected) {
        std::fprintf(stderr,
                     "FAIL: %s: %s: engine %zu offsets != oracle %zu\n", what,
                     query.c_str(), sink.offsets().size(), expected.size());
        return false;
    }
    return true;
}

int verify_all(const PaddedString& document, bool verbose)
{
    int failures = 0;
    EngineOptions no_skips;
    no_skips.leaf_skipping = false;
    no_skips.child_skipping = false;
    no_skips.sibling_skipping = false;
    no_skips.head_skipping = false;
    no_skips.label_within_skipping = false;
    for (const SelectorSpec& spec : specs()) {
        std::vector<std::size_t> expected =
            oracle_offsets(spec.query, document);
        bool ok =
            engine_matches_oracle(spec.query, document, {}, expected,
                                  "default options") &&
            engine_matches_oracle(spec.query, document, no_skips, expected,
                                  "skips disabled");
        // The surfer baseline evaluates the same grammar a third way.
        std::size_t surfer =
            SurferEngine::for_query(spec.query).count(document);
        if (surfer != expected.size()) {
            std::fprintf(stderr, "FAIL: surfer: %s: %zu != oracle %zu\n",
                         spec.query, surfer, expected.size());
            ok = false;
        }
        if (verbose) {
            std::printf("smoke: %-20s %7zu matches ... %s\n", spec.name,
                        expected.size(), ok ? "ok" : "MISMATCH");
        }
        if (!ok) {
            ++failures;
        }
    }
    if (verbose && failures == 0) {
        std::printf("smoke: every selector family agrees with the DOM "
                    "oracle on %s tier\n",
                    simd::level_name(simd::default_level()));
    }
    return failures;
}

int run_throughput(std::size_t target_bytes, std::size_t repeats)
{
    PaddedString document(workloads::generate("walmart", target_bytes));
    if (verify_all(document, /*verbose=*/false) != 0) {
        return 1;
    }

    std::vector<bench::BenchRow> rows;
    const char* tier = simd::level_name(simd::default_level());
    double gib =
        static_cast<double>(document.size()) / (1024.0 * 1024.0 * 1024.0);
    for (const SelectorSpec& spec : specs()) {
        auto cq = automaton::CompiledQuery::compile(spec.query);
        bool counting = cq.has_indices();
        bool filtered = cq.filter() != nullptr;
        DescendEngine engine = DescendEngine::for_query(spec.query);
        std::size_t matches = 0;
        double best = 0;
        for (std::size_t r = 0; r < repeats; ++r) {
            CountSink sink;
            Clock::time_point start = Clock::now();
            engine.run(document, sink);
            double seconds = seconds_since(start);
            matches = sink.count();
            if (r == 0 || seconds < best) {
                best = seconds;
            }
        }
        std::printf("%-20s %-45s %7zu matches  %8.2f MB/s\n", spec.name,
                    spec.query, matches, gib * 1024.0 / best);
        bench::BenchRow row;
        row.section = "selectors";
        row.name = spec.name;
        row.tier = tier;
        row.gbps = gib / best;
        row.extra.emplace_back("matches", static_cast<double>(matches));
        row.extra.emplace_back("counting", counting ? 1.0 : 0.0);
        row.extra.emplace_back("filtered", filtered ? 1.0 : 0.0);
        rows.push_back(std::move(row));
    }

    const char* env = std::getenv("DESCEND_BENCH_JSON");
    std::string path =
        env != nullptr && *env != '\0' ? env : "BENCH_selectors.json";
    bench::merge_bench_json("selectors", rows, path);
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    descend::bench::apply_simd_flag(argc, argv);
    std::size_t target_mb = 8;
    std::size_t repeats = 5;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--mb" && i + 1 < argc) {
            target_mb = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeats = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else {
            std::fprintf(stderr,
                         "usage: bench_selectors [--mb N] [--repeat N] "
                         "[--simd=LEVEL] | --smoke\n");
            return 2;
        }
    }
    if (smoke) {
        PaddedString document(
            descend::workloads::generate("walmart", std::size_t{512} << 10));
        return verify_all(document, /*verbose=*/true) == 0 ? 0 : 1;
    }
    const char* env_mb = std::getenv("DESCEND_BENCH_MB");
    if (env_mb != nullptr && *env_mb != '\0') {
        target_mb =
            static_cast<std::size_t>(std::strtoull(env_mb, nullptr, 10));
    }
    return run_throughput(target_mb << 20, repeats == 0 ? 1 : repeats);
}
