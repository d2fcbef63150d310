/**
 * @file
 * Table 2 reproduction (paper Section 4.1): the cost of naive
 * classification (one cmpeq per accepted value, ORed) as the number of
 * accepted values grows, against the shuffle-based lookup methods whose
 * cost is flat.
 *
 * The paper derives cycle counts from Intel's instruction tables; here the
 * same crossover is measured empirically as bytes/second over a 1 MiB
 * buffer. Expected shape: naive throughput decays roughly linearly with
 * the value count; eq (non-overlapping) and or8 stay flat and overtake
 * naive at ~4-5 values; the general (two-table) method costs slightly more
 * than or8 but is still flat.
 *
 * On top of the Table 2 google-benchmarks, this binary measures the
 * batched single-load pipeline against the per-block (seed) formulation:
 * the same eight masks per 64-byte block (unescaped quotes, in-string,
 * the four bracket masks, commas, colons), computed either via separate
 * eq_mask/prefix_xor calls that each reload the block, or via one
 * classify_batch call over 8 consecutive blocks. Results are printed per
 * tier and recorded in BENCH_pipeline.json (section "pipeline").
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "descend/classify/raw_tables.h"
#include "descend/util/bits.h"
#include "descend/workloads/builder.h"

namespace {

using namespace descend;

constexpr std::size_t kBufferBytes = 1 << 20;

const std::vector<std::uint8_t>& buffer()
{
    static const std::vector<std::uint8_t> data = [] {
        workloads::Rng rng(0x7ab1e2);
        std::vector<std::uint8_t> bytes(kBufferBytes + simd::kBatchSize);
        for (auto& byte : bytes) {
            byte = static_cast<std::uint8_t>(rng.next() & 0x7f);
        }
        return bytes;
    }();
    return data;
}

/** A predicate accepting `values` distinct ASCII bytes. */
classify::ByteSet predicate(int values)
{
    classify::ByteSet accept{};
    // Spread over distinct nibble rows to exercise realistic groups.
    for (int i = 0; i < values; ++i) {
        accept[(0x20 + 0x10 * (i % 6)) + (i / 6)] = true;
    }
    return accept;
}

void run_classifier(benchmark::State& state, const classify::RawClassifier& classifier,
                    simd::Level level)
{
    const simd::Kernels& kernels = simd::kernels_for(level);
    const auto& data = buffer();
    for (auto _ : state) {
        std::uint64_t checksum = 0;
        for (std::size_t offset = 0; offset < kBufferBytes;
             offset += simd::kBlockSize) {
            checksum ^= classifier.run(kernels, data.data() + offset);
        }
        benchmark::DoNotOptimize(checksum);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kBufferBytes));
}

void register_benchmarks()
{
    for (int values : {1, 2, 3, 4, 5, 6, 7, 8, 12, 16}) {
        classify::ByteSet accept = predicate(values);
        auto naive =
            classify::RawClassifier::build_with_method(accept, classify::Method::kNaive);
        benchmark::RegisterBenchmark(
            ("naive/values:" + std::to_string(values)).c_str(),
            [naive](benchmark::State& state) {
                run_classifier(state, *naive, simd::Level::avx2);
            });
        for (classify::Method method :
             {classify::Method::kEq, classify::Method::kOr8,
              classify::Method::kGeneral}) {
            auto classifier = classify::RawClassifier::build_with_method(accept, method);
            if (!classifier.has_value()) {
                continue;
            }
            benchmark::RegisterBenchmark(
                (std::string(classify::method_name(method)) +
                 "/values:" + std::to_string(values))
                    .c_str(),
                [classifier](benchmark::State& state) {
                    run_classifier(state, *classifier, simd::Level::avx2);
                });
        }
    }
    // The scalar pipeline's naive classifier, for reference.
    classify::ByteSet accept = predicate(6);
    auto naive =
        classify::RawClassifier::build_with_method(accept, classify::Method::kNaive);
    benchmark::RegisterBenchmark("naive-scalar/values:6",
                                 [naive](benchmark::State& state) {
                                     run_classifier(state, *naive,
                                                    simd::Level::scalar);
                                 });
}

// ---------------------------------------------------------------------------
// Batched single-load pipeline vs the per-block formulation.
// ---------------------------------------------------------------------------

/**
 * The seed pipeline: every mask from a separate kernel call, each call
 * reloading the 64-byte block — two eq_masks + escape analysis + carry-less
 * multiply for the quote stage, then six more eq_masks for brackets,
 * commas and colons. This is exactly the per-block work the iterator's
 * classifiers used to do (QuoteClassifier + StructuralIterator masks).
 */
std::uint64_t run_perblock(const simd::Kernels& kernels,
                           const std::uint8_t* data, std::size_t bytes)
{
    std::uint64_t checksum = 0;
    bool escape_carry = false;
    std::uint64_t in_string_carry = 0;
    for (std::size_t offset = 0; offset < bytes; offset += simd::kBlockSize) {
        const std::uint8_t* block = data + offset;
        std::uint64_t backslashes = kernels.eq_mask(block, '\\');
        std::uint64_t quotes = kernels.eq_mask(block, '"');
        bool escape_out = false;
        std::uint64_t escaped =
            bits::find_escaped(backslashes, escape_carry, escape_out);
        escape_carry = escape_out;
        std::uint64_t unescaped = quotes & ~escaped;
        std::uint64_t in_string = kernels.prefix_xor(unescaped) ^ in_string_carry;
        in_string_carry = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(in_string) >> 63);
        checksum ^= unescaped ^ in_string;
        checksum ^= kernels.eq_mask(block, '{') ^ kernels.eq_mask(block, '}');
        checksum ^= kernels.eq_mask(block, '[') ^ kernels.eq_mask(block, ']');
        checksum ^= kernels.eq_mask(block, ',') ^ kernels.eq_mask(block, ':');
    }
    return checksum;
}

/** The batched pipeline: one classify_batch call per 8 blocks. */
std::uint64_t run_batched(const simd::Kernels& kernels,
                          const std::uint8_t* data, std::size_t bytes)
{
    std::uint64_t checksum = 0;
    simd::BatchCarry carry;
    simd::BlockMasks masks[simd::kBatchBlocks];
    for (std::size_t offset = 0; offset < bytes; offset += simd::kBatchSize) {
        kernels.classify_batch(data + offset, carry, masks);
        for (const simd::BlockMasks& block : masks) {
            checksum ^= block.unescaped_quotes ^ block.in_string;
            checksum ^= block.open_braces ^ block.close_braces;
            checksum ^= block.open_brackets ^ block.close_brackets;
            checksum ^= block.commas ^ block.colons;
        }
    }
    return checksum;
}

/** Best-of-N GB/s for one formulation on one tier. */
template <typename Fn>
double measure_gbps(Fn&& fn)
{
    const auto& data = buffer();
    std::uint64_t sink = fn(data.data(), kBufferBytes);  // warm-up
    double best_seconds = 1e100;
    for (int run = 0; run < 7; ++run) {
        auto start = std::chrono::steady_clock::now();
        sink ^= fn(data.data(), kBufferBytes);
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        best_seconds = std::min(best_seconds, seconds);
    }
    benchmark::DoNotOptimize(sink);
    return static_cast<double>(kBufferBytes) / best_seconds / 1e9;
}

/** Measures both formulations on every available tier; returns the rows. */
std::vector<bench::BenchRow> run_pipeline_comparison()
{
    std::vector<bench::BenchRow> rows;
    std::printf("\n==== batched single-load pipeline vs per-block ====\n\n");
    std::printf("%-8s %14s %14s %9s\n", "tier", "perblock GB/s", "batched GB/s",
                "speedup");
    std::vector<simd::Level> levels = {simd::Level::scalar};
    if (simd::avx2_available()) {
        levels.push_back(simd::Level::avx2);
    }
    if (simd::avx512_available()) {
        levels.push_back(simd::Level::avx512);
    }
    for (simd::Level level : levels) {
        const simd::Kernels& kernels = simd::kernels_for(level);
        if (kernels.level != level) {
            continue;  // capped by DESCEND_SIMD_LEVEL: skip, don't mislabel
        }
        double perblock = measure_gbps([&](const std::uint8_t* d, std::size_t n) {
            return run_perblock(kernels, d, n);
        });
        double batched = measure_gbps([&](const std::uint8_t* d, std::size_t n) {
            return run_batched(kernels, d, n);
        });
        std::printf("%-8s %14.2f %14.2f %8.2fx\n", kernels.name, perblock,
                    batched, batched / perblock);
        rows.push_back({"pipeline", "perblock", kernels.name, perblock, {}});
        rows.push_back({"pipeline", "batched", kernels.name, batched, {}});
    }
    std::printf("\n");
    return rows;
}

}  // namespace

int main(int argc, char** argv)
{
    descend::bench::apply_simd_flag(argc, argv);
    register_benchmarks();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    std::vector<descend::bench::BenchRow> rows = run_pipeline_comparison();
    descend::bench::merge_bench_json("pipeline", rows);
    benchmark::Shutdown();
    return 0;
}
