/**
 * @file
 * Fused multi-query throughput: one classification pass serving N queries
 * (src/descend/multi) against the sequential baseline of N independent
 * DescendEngine runs over the same document.
 *
 *   bench_multiquery [--mb N] [--repeat N] [--simd=LEVEL]
 *   bench_multiquery --scale [--mb N] [--repeat N] [--simd=LEVEL]
 *   bench_multiquery --smoke
 *
 * A hand-rolled harness (not google-benchmark): the quantity of interest
 * is the wall time to answer a whole query SET, best-of-R over a
 * multi-megabyte document, with every timed engine verified to produce
 * identical per-query match sets before anything is trusted.
 *
 * Default mode compares sequential runs with the fused engine on the
 * paper's dataset scenarios (4-6 queries each) and on two sets past the
 * product state cap, which the engine splits into parts; results go to
 * BENCH_multiquery.json (DESCEND_BENCH_JSON overrides) via the shared
 * section-merging writer, the fused rows carrying speedup = sequential
 * seconds / fused seconds, the part count and the compile time.
 *
 * --scale: the subscription-count sweep behind the product automaton —
 * N in {4, 64, 256, 1024} queries, one shared-prefix-heavy mix (every
 * query descends the same object spine, so the product trie collapses
 * the common prefix to one state path) and one disjoint mix (unrelated
 * descendant labels), over an NDJSON firehose. Rows go to
 * BENCH_multiquery_scale.json: per (mix, N) one "product" and one
 * "sequential" row, gbps = stream bytes / wall seconds for the whole set,
 * the product rows carrying product_states and speedup_vs_sequential.
 *
 * --smoke: small documents, full verification — single-document match
 * sets AND the NDJSON multi-stream executor at several thread counts
 * compared element-wise against N independent runs, for every scenario,
 * the split ones included. Exits non-zero on any mismatch; wired into CI
 * under asan and on the scalar tier.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "descend/descend.h"
#include "descend/multi/fused.h"
#include "descend/multi/multi_stream.h"
#include "descend/workloads/datasets.h"

namespace {

using namespace descend;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One benchmark scenario: a query set over one dataset. */
struct SetSpec {
    const char* name;
    const char* dataset;
    std::vector<std::string> queries;
};

/**
 * Sets chosen so that the sequential baseline cannot hide behind the
 * memmem head-skip (child-first queries classify every block, so N runs
 * pay N classification passes — exactly the redundancy fusion removes).
 * The mixed set adds descendant queries whose skips disagree with the
 * child queries' while the set as a whole still amortizes
 * classification. The two cap sets put wildcards after descendants
 * (Section 3.1's blowup) until the product exceeds its state cap, so the
 * engine runs them as parts.
 */
std::vector<SetSpec> scenarios()
{
    return {
        // Catalog C2, C3, C4, C5 (Experiment C child forms).
        {"crossref-child",
         "crossref",
         {"$.items.*.author.*.affiliation.*.name",
          "$.items.*.editor.*.affiliation.*.name", "$.items.*.title",
          "$.items.*.author.*.ORCID"}},
        // Catalog B1, B2, B3 plus a fourth selective member.
        {"bestbuy-child",
         "bestbuy",
         {"$.products.*.categoryPath.*.id",
          "$.products.*.videoChapters.*.chapter", "$.products.*.videoChapters",
          "$.products.*.sku"}},
        // Catalog W1, W2 plus two selective members.
        {"walmart-child",
         "walmart",
         {"$.items.*.bestMarketplacePrice.price", "$.items.*.name",
          "$.items.*.salePrice", "$.items.*.categoryPath"}},
        // Descendant (C1, C2r, C4r, C5r) + child (C4, C5) mix: the
        // skippability-disagreeing case — child queries allow subtree
        // skips the descendant queries cannot.
        {"crossref-mixed",
         "crossref",
         {"$..DOI", "$..author..affiliation..name", "$..title",
          "$..author..ORCID", "$.items.*.title",
          "$.items.*.author.*.ORCID"}},
        {"crossref-cap4",
         "crossref",
         {"$..author.*.*.*.*.*.*.*.*", "$..editor.*.*.*.*.*.*.*.*",
          "$..affiliation.*.*.*.*.*.*.*.*", "$..title.*.*.*.*.*.*.*.*"}},
        {"crossref-cap2",
         "crossref",
         {"$..a.*.*.*.*.*.*.*.*.*.*", "$..b.*.*.*.*.*.*.*.*.*.*"}},
    };
}

/** Per-query offsets from N independent engine runs (the baseline). */
std::vector<std::vector<std::size_t>> sequential_offsets(
    const std::vector<DescendEngine>& engines, const PaddedString& document)
{
    std::vector<std::vector<std::size_t>> all;
    for (const DescendEngine& engine : engines) {
        OffsetSink sink;
        EngineStatus status = engine.run(document, sink);
        if (!status.ok()) {
            std::fprintf(stderr, "FAIL: sequential run: %s\n",
                         to_string(status).c_str());
            std::exit(1);
        }
        all.push_back(sink.offsets());
    }
    return all;
}

/** Best-of-R wall seconds for one fused engine over one document. */
double time_fused(const multi::FusedEngine& engine,
                  const PaddedString& document, std::size_t repeats)
{
    double best = 0;
    for (std::size_t r = 0; r < repeats; ++r) {
        multi::CountingMultiSink counting(engine.query_set().size());
        Clock::time_point start = Clock::now();
        engine.run(document, counting);
        double seconds = seconds_since(start);
        if (r == 0 || seconds < best) {
            best = seconds;
        }
    }
    return best;
}

int run_throughput(std::size_t target_bytes, std::size_t repeats)
{
    std::vector<bench::BenchRow> rows;
    const char* tier = simd::level_name(simd::default_level());
    int failures = 0;
    for (const SetSpec& spec : scenarios()) {
        PaddedString document(workloads::generate(spec.dataset, target_bytes));
        const std::vector<std::string>& texts = spec.queries;
        const std::size_t n = texts.size();

        std::vector<DescendEngine> engines;
        for (const std::string& text : texts) {
            engines.push_back(DescendEngine::for_query(text));
        }
        Clock::time_point compile_start = Clock::now();
        std::unique_ptr<multi::FusedEngine> fused =
            multi::make_fused_engine(texts);
        const double compile_s = seconds_since(compile_start);

        // Correctness first: the fused match sets must be bit-identical
        // to the N independent runs before a single timing is trusted.
        std::vector<std::vector<std::size_t>> expected =
            sequential_offsets(engines, document);
        multi::CollectingMultiSink collected(n);
        EngineStatus status = fused->run(document, collected);
        if (!status.ok() || collected.all() != expected) {
            std::fprintf(stderr, "FAIL: %s: %s offsets != sequential\n",
                         spec.name, fused->name().c_str());
            ++failures;
            continue;
        }

        double seq_best = 0;
        std::size_t matches = 0;
        for (std::size_t r = 0; r < repeats; ++r) {
            Clock::time_point start = Clock::now();
            std::size_t seq_matches = 0;
            for (const DescendEngine& engine : engines) {
                CountSink sink;
                engine.run(document, sink);
                seq_matches += sink.count();
            }
            double seq_seconds = seconds_since(start);
            matches = seq_matches;
            if (r == 0 || seq_seconds < seq_best) {
                seq_best = seq_seconds;
            }
        }
        double fused_best = time_fused(*fused, document, repeats);
        const std::size_t parts = fused->parts().size();

        double gib = static_cast<double>(document.size()) /
                     (1024.0 * 1024.0 * 1024.0);
        std::printf("%-20s %zu queries  %7zu matches  seq %8.2f MB/s  "
                    "product %8.2f MB/s (%zu part(s), compile %.1f ms)\n",
                    spec.name, n, matches, gib * 1024.0 / seq_best,
                    gib * 1024.0 / fused_best, parts, compile_s * 1e3);

        bench::BenchRow seq_row;
        seq_row.section = "multiquery";
        seq_row.name = std::string(spec.name) + "-sequential";
        seq_row.tier = tier;
        seq_row.gbps = gib / seq_best;
        seq_row.extra.emplace_back("queries", static_cast<double>(n));
        seq_row.extra.emplace_back("matches", static_cast<double>(matches));
        rows.push_back(std::move(seq_row));

        multi::CountingMultiSink counting(n);
        RunStats stats = fused->run_with_stats(document, counting);
        bench::BenchRow row;
        row.section = "multiquery";
        row.name = std::string(spec.name) + "-product";
        row.tier = tier;
        row.gbps = gib / fused_best;
        row.extra.emplace_back("queries", static_cast<double>(n));
        row.extra.emplace_back("speedup", seq_best / fused_best);
        row.extra.emplace_back("matches", static_cast<double>(matches));
        row.extra.emplace_back("parts", static_cast<double>(parts));
        row.extra.emplace_back("compile_ms", compile_s * 1e3);
        if constexpr (obs::kEnabled) {
            row.extra.emplace_back(
                "product_states",
                static_cast<double>(
                    stats.counters.get(obs::Counter::kProductStates)));
        }
        rows.push_back(std::move(row));
    }

    const char* env = std::getenv("DESCEND_BENCH_JSON");
    std::string path =
        env != nullptr && *env != '\0' ? env : "BENCH_multiquery.json";
    bench::merge_bench_json("multiquery", rows, path);
    return failures == 0 ? 0 : 1;
}

/** Builds a small NDJSON stream out of compact dataset records. */
PaddedString build_stream(const char* dataset, std::size_t records,
                          std::size_t record_bytes)
{
    std::string stream;
    for (std::size_t i = 0; i < 3; ++i) {
        // A handful of generator variants cycled; generation dominates.
        std::string doc =
            workloads::generate(dataset, record_bytes / 2 * (i + 2));
        for (std::size_t r = 0; r * 3 < records; ++r) {
            stream += doc;
            stream += '\n';
        }
    }
    return PaddedString(std::move(stream));
}

/** One subscription mix of the --scale sweep. */
struct ScaleMix {
    const char* name;
    const char* dataset;
    /** Produces the i-th of N subscriptions. */
    std::string (*query)(std::size_t i);
};

/**
 * The two ends of the sharing spectrum. Shared-prefix: every
 * subscription walks the same `$.products.*` spine to a distinct leaf
 * field (a handful of real catalog fields cycled, the rest synthetic
 * tenant fields) — the product trie collapses the spine to one state
 * path, where N independent runs step N automata through every event.
 * Disjoint: unrelated `$..fieldN` descendant labels with no sharing at
 * all — the stress case for subset construction, still one transition
 * per event at run time.
 */
std::vector<ScaleMix> scale_mixes()
{
    return {
        {"shared-prefix", "bestbuy",
         [](std::size_t i) {
             static const char* kReal[] = {"sku", "name", "salePrice",
                                           "categoryPath"};
             if (i < 4) {
                 return std::string("$.products.*.") + kReal[i];
             }
             return "$.products.*.tenantField" + std::to_string(i);
         }},
        {"disjoint", "bestbuy",
         [](std::size_t i) {
             static const char* kReal[] = {"sku", "id", "chapter", "price"};
             if (i < 4) {
                 return std::string("$..") + kReal[i];
             }
             return "$..tenantField" + std::to_string(i);
         }},
    };
}

int run_scale(std::size_t target_bytes, std::size_t repeats)
{
    std::vector<bench::BenchRow> rows;
    const char* tier = simd::level_name(simd::default_level());
    int failures = 0;

    for (const ScaleMix& mix : scale_mixes()) {
        PaddedString stream_input =
            build_stream(mix.dataset, 64, target_bytes / 64);
        const simd::Kernels& kernels = simd::best_kernels();
        std::vector<stream::RecordSpan> records =
            stream::split_records(stream_input, kernels);
        double gib = static_cast<double>(stream_input.size()) /
                     (1024.0 * 1024.0 * 1024.0);

        for (std::size_t n : {std::size_t{4}, std::size_t{64},
                              std::size_t{256}, std::size_t{1024}}) {
            std::vector<std::string> texts;
            texts.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                texts.push_back(mix.query(i));
            }

            // One worker everywhere: the sweep compares per-event engine
            // work, not thread scaling.
            stream::StreamOptions stream_options;
            stream_options.threads = 1;

            multi::MultiStreamExecutor product_exec(
                multi::MultiQuery::compile(texts), stream_options);

            // Sequential baseline: N single-query stream passes (N
            // classification passes — the redundancy any fusion removes).
            // It is also the oracle: the product must agree with it on the
            // full per-query count vector before timings are trusted.
            std::vector<stream::StreamExecutor> sequential;
            sequential.reserve(n);
            for (const std::string& text : texts) {
                sequential.emplace_back(
                    automaton::CompiledQuery::compile(text), stream_options);
            }
            multi::CountingMultiStreamSink product_counts(n);
            product_exec.run_records(stream_input, records, product_counts);
            std::size_t matches = 0;
            bool ok = true;
            for (std::size_t q = 0; q < n; ++q) {
                stream::CountingStreamSink sink;
                sequential[q].run_records(stream_input, records, sink);
                matches += sink.matches();
                if (sink.matches() != product_counts.count(q)) {
                    ok = false;
                }
            }
            if (!ok) {
                std::fprintf(stderr,
                             "FAIL: %s N=%zu: product counts != sequential\n",
                             mix.name, n);
                ++failures;
                continue;
            }

            double product_best = 0;
            for (std::size_t r = 0; r < repeats; ++r) {
                multi::CountingMultiStreamSink sink(n);
                Clock::time_point start = Clock::now();
                product_exec.run_records(stream_input, records, sink);
                double seconds = seconds_since(start);
                if (r == 0 || seconds < product_best) {
                    product_best = seconds;
                }
            }
            double seq_best = 0;
            for (std::size_t r = 0; r < repeats; ++r) {
                Clock::time_point start = Clock::now();
                for (const stream::StreamExecutor& executor : sequential) {
                    stream::CountingStreamSink sink;
                    executor.run_records(stream_input, records, sink);
                }
                double seconds = seconds_since(start);
                if (r == 0 || seconds < seq_best) {
                    seq_best = seconds;
                }
            }

            std::size_t product_states = 0;
            for (const multi::ProductAutomaton& part :
                 product_exec.engine().parts()) {
                product_states += static_cast<std::size_t>(part.num_states());
            }
            std::printf(
                "%-14s N=%-5zu %7zu matches  seq %8.2f MB/s  product %8.2f "
                "MB/s (%zu states, %.2fx vs sequential)\n",
                mix.name, n, matches, gib * 1024.0 / seq_best,
                gib * 1024.0 / product_best, product_states,
                seq_best / product_best);

            struct Row {
                const char* backend;
                double best;
            };
            for (const Row& r : {Row{"sequential", seq_best},
                                 Row{"product", product_best}}) {
                bench::BenchRow row;
                row.section = "multiquery_scale";
                row.name = std::string(mix.name) + "-N" + std::to_string(n) +
                           "-" + r.backend;
                row.tier = tier;
                row.gbps = gib / r.best;
                row.extra.emplace_back("queries", static_cast<double>(n));
                row.extra.emplace_back("matches",
                                       static_cast<double>(matches));
                if (std::strcmp(r.backend, "product") == 0) {
                    row.extra.emplace_back(
                        "product_states",
                        static_cast<double>(product_states));
                    row.extra.emplace_back("speedup_vs_sequential",
                                           seq_best / r.best);
                }
                rows.push_back(std::move(row));
            }
        }
    }

    const char* env = std::getenv("DESCEND_BENCH_JSON");
    std::string path =
        env != nullptr && *env != '\0' ? env : "BENCH_multiquery_scale.json";
    bench::merge_bench_json("multiquery_scale", rows, path);
    return failures == 0 ? 0 : 1;
}

int run_smoke()
{
    int failures = 0;
    for (const SetSpec& spec : scenarios()) {
        const std::vector<std::string>& texts = spec.queries;
        const std::size_t n = texts.size();
        std::vector<DescendEngine> engines;
        for (const std::string& text : texts) {
            engines.push_back(DescendEngine::for_query(text));
        }

        // Single document: fused == N independent runs, element-wise.
        PaddedString document(
            workloads::generate(spec.dataset, std::size_t{256} << 10));
        std::vector<std::vector<std::size_t>> expected =
            sequential_offsets(engines, document);
        std::unique_ptr<multi::FusedEngine> fused =
            multi::make_fused_engine(texts);
        multi::CollectingMultiSink collected(n);
        EngineStatus status = fused->run(document, collected);
        bool ok = status.ok() && collected.all() == expected;
        std::printf("smoke: %-20s single-doc %zu part(s) ... %s\n", spec.name,
                    fused->parts().size(), ok ? "ok" : "MISMATCH");
        if (!ok) {
            ++failures;
        }

        // NDJSON: the multi-stream executor against a per-record oracle of
        // independent runs over copied records, at several thread counts.
        PaddedString stream_input =
            build_stream(spec.dataset, 48, std::size_t{32} << 10);
        const simd::Kernels& kernels = simd::best_kernels();
        std::vector<stream::RecordSpan> records =
            stream::split_records(stream_input, kernels);
        std::vector<multi::CollectingMultiStreamSink::Match> oracle;
        for (std::size_t r = 0; r < records.size(); ++r) {
            const stream::RecordSpan& span = records[r];
            PaddedString copy(std::string_view(
                reinterpret_cast<const char*>(stream_input.data()) + span.begin,
                span.size()));
            for (std::size_t q = 0; q < n; ++q) {
                OffsetSink sink;
                if (!engines[q].run(copy, sink).ok()) {
                    continue;
                }
                for (std::size_t offset : sink.offsets()) {
                    oracle.push_back({q, r, offset});
                }
            }
        }
        // The oracle iterates queries-within-record but emits per (r, q);
        // the executor replays records ascending, queries ascending — the
        // same order, so element-wise comparison is exact.
        for (std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            stream::StreamOptions options;
            options.threads = threads;
            multi::MultiStreamExecutor executor(
                multi::MultiQuery::compile(texts), options);
            multi::CollectingMultiStreamSink sink;
            stream::StreamResult result =
                executor.run_records(stream_input, records, sink);
            bool stream_ok = result.ok() && sink.matches() == oracle;
            std::printf(
                "smoke: %-20s ndjson threads=%zu: %zu records, %zu matches "
                "... %s\n",
                spec.name, threads, result.records, result.matches,
                stream_ok ? "ok" : "MISMATCH");
            if (!stream_ok) {
                ++failures;
            }
        }
    }
    if (failures == 0) {
        std::printf("smoke: fused execution matches independent runs for "
                    "every scenario\n");
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv)
{
    descend::bench::apply_simd_flag(argc, argv);
    std::size_t target_mb = 8;
    std::size_t repeats = 5;
    bool smoke = false;
    bool scale = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--scale") {
            scale = true;
        } else if (arg == "--mb" && i + 1 < argc) {
            target_mb = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeats = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else {
            std::fprintf(stderr,
                         "usage: bench_multiquery [--mb N] [--repeat N] "
                         "[--simd=LEVEL] [--scale] | --smoke\n");
            return 2;
        }
    }
    if (smoke) {
        return run_smoke();
    }
    const char* env_mb = std::getenv("DESCEND_BENCH_MB");
    if (env_mb != nullptr && *env_mb != '\0') {
        target_mb = static_cast<std::size_t>(
            std::strtoull(env_mb, nullptr, 10));
    }
    if (scale) {
        return run_scale(target_mb << 20, repeats == 0 ? 1 : repeats);
    }
    return run_throughput(target_mb << 20, repeats == 0 ? 1 : repeats);
}
