/**
 * @file
 * Differential tests for the batched single-load classification kernels.
 *
 * Three layers of pinning:
 *  - the scalar classify_batch is checked against an independent per-byte
 *    state machine (naive string/escape tracking) on random and adversarial
 *    batches;
 *  - every compiled SIMD tier (AVX2, AVX-512 — via the hardware-gated raw
 *    accessors, which ignore the DESCEND_SIMD_LEVEL cap) is pinned
 *    bit-for-bit against the scalar reference, including carry threading
 *    across batch boundaries;
 *  - a per-tier engine sweep cross-checks match sets against the DOM
 *    oracle, so a kernel bug that survives the mask tests still surfaces.
 *
 * Adversarial inputs cover the cases the carry logic can get wrong: escape
 * runs crossing 64-byte block AND 512-byte batch boundaries, quotes at
 * positions 0/63 of a block, and bytes >= 0x80 (shuffle MSB rule). The
 * per-block bracket counts (outside strings) and the probe mask are pinned
 * the same way, with brackets inside strings and probe bytes of '"', '{'
 * and 0xbb, including probe hits at bit 63.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "descend/simd/dispatch.h"
#include "descend/workloads/builder.h"
#include "test_helpers.h"

namespace descend::simd {
namespace {

/** Hardware-supported SIMD tiers, excluding scalar. */
std::vector<const Kernels*> compiled_tiers()
{
    std::vector<const Kernels*> tiers;
    if (avx2_available()) {
        tiers.push_back(&avx2_kernels());
    }
    if (avx512_available()) {
        tiers.push_back(&avx512_kernels());
    }
    return tiers;
}

/** Every hardware-supported tier, scalar first. */
std::vector<const Kernels*> compiled_tiers_and_scalar()
{
    std::vector<const Kernels*> tiers = compiled_tiers();
    tiers.insert(tiers.begin(), &scalar_kernels());
    return tiers;
}

/** Per-byte reference for the quote pipeline, independent of util/bits.h. */
struct NaiveState {
    bool escaped = false;    // next byte is escaped
    bool in_string = false;  // current position is inside a string
};

/** Probe bytes every batch comparison runs with: a quote, a bracket and a
 *  byte >= 0x80 (present in the adversarial streams). */
constexpr std::uint8_t kProbes[] = {'"', '{', 0xbb};

/** Classifies @p bytes per byte into BlockMasks, threading @p state. */
std::vector<BlockMasks> naive_batch(const std::uint8_t* bytes, std::size_t blocks,
                                    NaiveState& state, std::uint8_t probe)
{
    std::vector<BlockMasks> out(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
        BlockMasks& masks = out[b];
        std::memset(&masks, 0, sizeof(masks));
        masks.entry_escaped = state.escaped;
        masks.entry_in_string = state.in_string ? ~std::uint64_t{0} : 0;
        for (std::size_t i = 0; i < kBlockSize; ++i) {
            std::uint8_t byte = bytes[b * kBlockSize + i];
            std::uint64_t bit = 1ULL << i;
            bool is_escaped = state.escaped;
            state.escaped = !is_escaped && byte == '\\';
            if (byte == '"' && !is_escaped) {
                masks.unescaped_quotes |= bit;
                state.in_string = !state.in_string;
            }
            if (state.in_string) {
                masks.in_string |= bit;
            }
            if (byte == probe) {
                masks.probe |= bit;
            }
            // Brackets are never quotes, so "outside a string" is just the
            // in-string state at this byte.
            const bool counted = !state.in_string;
            switch (byte) {
                case '{':
                    masks.open_braces |= bit;
                    masks.counts.open_braces += counted;
                    break;
                case '}':
                    masks.close_braces |= bit;
                    masks.counts.close_braces += counted;
                    break;
                case '[':
                    masks.open_brackets |= bit;
                    masks.counts.open_brackets += counted;
                    break;
                case ']':
                    masks.close_brackets |= bit;
                    masks.counts.close_brackets += counted;
                    break;
                case ',': masks.commas |= bit; break;
                case ':': masks.colons |= bit; break;
                default: break;
            }
        }
    }
    return out;
}

void expect_masks_equal(const BlockMasks& expected, const BlockMasks& actual,
                        const std::string& context)
{
    EXPECT_EQ(expected.unescaped_quotes, actual.unescaped_quotes) << context;
    EXPECT_EQ(expected.in_string, actual.in_string) << context;
    EXPECT_EQ(expected.open_braces, actual.open_braces) << context;
    EXPECT_EQ(expected.close_braces, actual.close_braces) << context;
    EXPECT_EQ(expected.open_brackets, actual.open_brackets) << context;
    EXPECT_EQ(expected.close_brackets, actual.close_brackets) << context;
    EXPECT_EQ(expected.commas, actual.commas) << context;
    EXPECT_EQ(expected.colons, actual.colons) << context;
    EXPECT_EQ(expected.probe, actual.probe) << context;
    EXPECT_EQ(expected.counts.open_braces, actual.counts.open_braces) << context;
    EXPECT_EQ(expected.counts.close_braces, actual.counts.close_braces) << context;
    EXPECT_EQ(expected.counts.open_brackets, actual.counts.open_brackets) << context;
    EXPECT_EQ(expected.counts.close_brackets, actual.counts.close_brackets) << context;
    EXPECT_EQ(expected.entry_in_string, actual.entry_in_string) << context;
    EXPECT_EQ(expected.entry_escaped, actual.entry_escaped) << context;
}

/** The adversarial byte streams, each a whole number of batches long. */
std::vector<std::vector<std::uint8_t>> adversarial_streams()
{
    std::vector<std::vector<std::uint8_t>> streams;

    // Escape runs of every length 1..130 ending exactly at block and batch
    // boundaries, each followed by a quote (escaped iff the run is odd).
    for (std::size_t boundary : {kBlockSize, kBatchSize}) {
        for (std::size_t run = 1; run <= 130; ++run) {
            std::vector<std::uint8_t> bytes(2 * kBatchSize, 'x');
            // Place the run so it ends at the boundary; the quote lands on
            // the first byte of the next block/batch.
            if (run <= boundary) {
                std::memset(bytes.data() + boundary - run, '\\', run);
                bytes[boundary] = '"';
                bytes[boundary + 1] = '"';
                streams.push_back(std::move(bytes));
            }
        }
    }

    // Solid backslashes across both batches (odd total forces a live carry
    // through every boundary).
    streams.emplace_back(2 * kBatchSize, '\\');

    // Quotes at positions 0 and 63 of every block.
    {
        std::vector<std::uint8_t> bytes(2 * kBatchSize, ' ');
        for (std::size_t b = 0; b < bytes.size() / kBlockSize; ++b) {
            bytes[b * kBlockSize] = '"';
            bytes[b * kBlockSize + 63] = '"';
        }
        streams.push_back(std::move(bytes));
    }

    // Bytes >= 0x80 interleaved with structurals and quotes.
    {
        std::vector<std::uint8_t> bytes(2 * kBatchSize);
        static const std::uint8_t kCycle[] = {0x80, '{', 0xff, '"', 0xbb, '}',
                                              '\\', 0x5b, 0xdd, ']', ',', ':'};
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            bytes[i] = kCycle[i % sizeof(kCycle)];
        }
        streams.push_back(std::move(bytes));
    }

    // Probe bytes at bit 63 of every block ('"', '{' and 0xbb in turn) and
    // a string per block whose brackets straddle the block boundary as the
    // quote at bit 63 flips the carried state.
    {
        std::vector<std::uint8_t> bytes(2 * kBatchSize, 'a');
        for (std::size_t b = 0; b < bytes.size() / kBlockSize; ++b) {
            std::uint8_t* block = bytes.data() + b * kBlockSize;
            std::memcpy(block, "[}", 2);
            block[20] = '"';
            std::memcpy(block + 30, "{]", 2);
            block[63] = kProbes[b % std::size(kProbes)];
        }
        streams.push_back(std::move(bytes));
    }

    // A string opened in batch 0 and closed deep in batch 1 (in-string
    // carry across the batch boundary), with bracket noise inside.
    {
        std::vector<std::uint8_t> bytes(2 * kBatchSize, 'a');
        bytes[10] = '"';
        for (std::size_t i = 11; i < kBatchSize + 200; i += 7) {
            bytes[i] = "{}[]:,"[i % 6];
        }
        bytes[kBatchSize + 300] = '"';
        streams.push_back(std::move(bytes));
    }

    return streams;
}

std::vector<std::uint8_t> random_stream(workloads::Rng& rng, std::size_t batches,
                                        bool json_biased)
{
    std::vector<std::uint8_t> bytes(batches * kBatchSize);
    static const char kJsonChars[] = "{}[]:,\"\\ \tabc123";
    for (auto& byte : bytes) {
        byte = json_biased ? static_cast<std::uint8_t>(
                                 kJsonChars[rng.below(sizeof(kJsonChars) - 1)])
                           : static_cast<std::uint8_t>(rng.next() & 0xff);
    }
    return bytes;
}

/** Runs @p kernels over the whole stream, threading one carry. */
std::vector<BlockMasks> batch_all(const Kernels& kernels,
                                  const std::vector<std::uint8_t>& bytes,
                                  std::uint8_t probe = 0)
{
    std::vector<BlockMasks> out(bytes.size() / kBlockSize);
    BatchCarry carry;
    carry.probe = probe;
    for (std::size_t batch = 0; batch * kBatchSize < bytes.size(); ++batch) {
        kernels.classify_batch(bytes.data() + batch * kBatchSize, carry,
                               out.data() + batch * kBatchBlocks);
    }
    return out;
}

TEST(BatchKernels, ScalarMatchesNaiveOnAdversarialStreams)
{
    for (const auto& bytes : adversarial_streams()) {
        for (std::uint8_t probe : kProbes) {
            NaiveState naive_state;
            std::vector<BlockMasks> expected = naive_batch(
                bytes.data(), bytes.size() / kBlockSize, naive_state, probe);
            std::vector<BlockMasks> actual = batch_all(scalar_kernels(), bytes, probe);
            ASSERT_EQ(expected.size(), actual.size());
            for (std::size_t b = 0; b < expected.size(); ++b) {
                expect_masks_equal(expected[b], actual[b],
                                   "scalar vs naive, probe " + std::to_string(probe) +
                                       " block " + std::to_string(b));
            }
        }
    }
}

TEST(BatchKernels, ScalarMatchesNaiveOnRandomStreams)
{
    workloads::Rng rng(101);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> bytes = random_stream(rng, 3, trial % 2 == 0);
        const std::uint8_t probe = kProbes[trial % std::size(kProbes)];
        NaiveState naive_state;
        std::vector<BlockMasks> expected =
            naive_batch(bytes.data(), bytes.size() / kBlockSize, naive_state, probe);
        std::vector<BlockMasks> actual = batch_all(scalar_kernels(), bytes, probe);
        for (std::size_t b = 0; b < expected.size(); ++b) {
            expect_masks_equal(expected[b], actual[b],
                               "scalar vs naive, trial " + std::to_string(trial) +
                                   " block " + std::to_string(b));
        }
    }
}

TEST(BatchKernels, CompiledTiersMatchScalarOnAdversarialStreams)
{
    for (const Kernels* tier : compiled_tiers()) {
        for (const auto& bytes : adversarial_streams()) {
            for (std::uint8_t probe : kProbes) {
                std::vector<BlockMasks> expected =
                    batch_all(scalar_kernels(), bytes, probe);
                std::vector<BlockMasks> actual = batch_all(*tier, bytes, probe);
                for (std::size_t b = 0; b < expected.size(); ++b) {
                    expect_masks_equal(expected[b], actual[b],
                                       std::string(tier->name) + " vs scalar, probe " +
                                           std::to_string(probe) + " block " +
                                           std::to_string(b));
                }
            }
        }
    }
}

TEST(BatchKernels, CompiledTiersMatchScalarOnRandomStreams)
{
    workloads::Rng rng(103);
    for (const Kernels* tier : compiled_tiers()) {
        for (int trial = 0; trial < 300; ++trial) {
            std::vector<std::uint8_t> bytes = random_stream(rng, 2, trial % 2 == 0);
            const std::uint8_t probe = kProbes[trial % std::size(kProbes)];
            std::vector<BlockMasks> expected = batch_all(scalar_kernels(), bytes, probe);
            std::vector<BlockMasks> actual = batch_all(*tier, bytes, probe);
            for (std::size_t b = 0; b < expected.size(); ++b) {
                expect_masks_equal(expected[b], actual[b],
                                   std::string(tier->name) + " vs scalar, trial " +
                                       std::to_string(trial) + " block " +
                                       std::to_string(b));
            }
        }
    }
}

TEST(BatchKernels, ProbeHitsAtBit63AndCountsSkipStrings)
{
    // Every block ends in a probe byte and holds one bracket of each kind
    // outside strings and one of each inside a string whose first quote
    // candidate is escaped (five backslashes), so only the second closes it.
    std::vector<std::uint8_t> bytes(2 * kBatchSize, ' ');
    for (std::size_t b = 0; b < bytes.size() / kBlockSize; ++b) {
        std::uint8_t* block = bytes.data() + b * kBlockSize;
        std::memcpy(block, "{[]}", 4);
        block[10] = '"';
        std::memcpy(block + 11, "{[]}", 4);
        std::memcpy(block + 20, "\\\\\\\\\\\"", 6);
        std::memcpy(block + 26, "]}", 2);
        block[30] = '"';
        block[63] = 0xbb;
    }
    for (const Kernels* tier : compiled_tiers_and_scalar()) {
        std::vector<BlockMasks> masks = batch_all(*tier, bytes, 0xbb);
        for (std::size_t b = 0; b < masks.size(); ++b) {
            const std::string context =
                std::string(tier->name) + " block " + std::to_string(b);
            EXPECT_EQ(masks[b].probe, 1ULL << 63) << context;
            EXPECT_EQ(masks[b].counts.open_braces, 1) << context;
            EXPECT_EQ(masks[b].counts.close_braces, 1) << context;
            EXPECT_EQ(masks[b].counts.open_brackets, 1) << context;
            EXPECT_EQ(masks[b].counts.close_brackets, 1) << context;
            EXPECT_EQ(std::popcount(masks[b].open_braces), 2) << context;
        }
    }
}

TEST(BatchKernels, CarryThreadsAcrossBatchCalls)
{
    // Classifying one contiguous stream in separate calls must agree with
    // classifying it with per-call fresh output rings: the only state
    // between calls is BatchCarry, exercised here with a string and an
    // escape run both spanning the call boundary.
    std::vector<std::uint8_t> bytes(2 * kBatchSize, 'x');
    bytes[100] = '"';                 // string opens in call 1...
    bytes[kBatchSize - 1] = '\\';     // ...and an escape run crosses the seam
    bytes[kBatchSize] = '"';          // escaped quote: does NOT close
    bytes[kBatchSize + 77] = '"';     // closes here
    for (const Kernels* tier : compiled_tiers()) {
        std::vector<BlockMasks> split = batch_all(*tier, bytes, '"');
        // Whole stream via scalar in one conceptual pass (the reference).
        std::vector<BlockMasks> reference = batch_all(scalar_kernels(), bytes, '"');
        for (std::size_t b = 0; b < reference.size(); ++b) {
            expect_masks_equal(reference[b], split[b],
                               std::string(tier->name) + " split-call block " +
                                   std::to_string(b));
        }
        // The escaped quote must not appear; the closing one must.
        EXPECT_EQ(split[kBatchBlocks].unescaped_quotes & 1ULL, 0u) << tier->name;
        EXPECT_NE(split[kBatchBlocks + 1].unescaped_quotes & (1ULL << 13), 0u)
            << tier->name;
    }
}

TEST(BatchKernels, PerBlockKernelsMatchScalarOnAllTiers)
{
    // The per-block kernels (eq/classify/prefix_xor) of every compiled tier
    // against scalar — same spirit as simd_test's AVX2 pinning, generalized
    // over the tier list so AVX-512 gets identical coverage.
    workloads::Rng rng(107);
    const Kernels& scalar = scalar_kernels();
    for (const Kernels* tier : compiled_tiers()) {
        for (int trial = 0; trial < 500; ++trial) {
            std::vector<std::uint8_t> bytes = random_stream(rng, 1, trial % 2 == 0);
            const std::uint8_t* block = bytes.data();
            for (std::uint8_t value : std::initializer_list<std::uint8_t>{
                     '"', '\\', '{', '}', '[', ']', ':', ',', 0x00, 0xff, 0x80}) {
                ASSERT_EQ(scalar.eq_mask(block, value), tier->eq_mask(block, value))
                    << tier->name << " value " << int(value);
            }
            std::uint8_t ltab[16];
            std::uint8_t utab[16];
            for (auto& entry : ltab) {
                entry = static_cast<std::uint8_t>(rng.next() & 0xff);
            }
            for (auto& entry : utab) {
                entry = static_cast<std::uint8_t>(rng.next() & 0xff);
            }
            ASSERT_EQ(scalar.classify_eq(block, ltab, utab),
                      tier->classify_eq(block, ltab, utab))
                << tier->name;
            ASSERT_EQ(scalar.classify_or(block, ltab, utab),
                      tier->classify_or(block, ltab, utab))
                << tier->name;
            ASSERT_EQ(scalar.classify_eq_masked(block, ltab, utab),
                      tier->classify_eq_masked(block, ltab, utab))
                << tier->name;
            ASSERT_EQ(scalar.classify_or_masked(block, ltab, utab),
                      tier->classify_or_masked(block, ltab, utab))
                << tier->name;
            std::uint64_t mask = rng.next();
            ASSERT_EQ(scalar.prefix_xor(mask), tier->prefix_xor(mask)) << tier->name;
        }
    }
}

TEST(BatchKernels, EngineSweepAgreesWithOracleAtEveryTier)
{
    // A compact engine sweep per tier: documents exercising strings with
    // escapes near block boundaries, toggled commas/colons, skips and
    // head-skipping; the per-tier ctest entries (DESCEND_SIMD_LEVEL=...)
    // run the full suites on top of this.
    const std::pair<const char*, const char*> cases[] = {
        {"$..x", R"({"a": {"x": 1, "b": [{"x": 2}, 3]}, "x": [4]})"},
        {"$.a[*].b", R"({"a": [{"b": 1}, {"c": 2}, {"b": [3]}]})"},
        {"$..person.name",
         R"({"person": {"name": "a\\\"b", "other": "\\"}, "p": {"person": {"name": 7}}})"},
        {"$..values[2]", R"({"values": [0, 1, {"values": [0, 1, 2, 3]}, 3]})"},
    };
    std::string long_doc = R"({"pad": ")" + std::string(300, '\\') + "\\\"" +
                           std::string(120, 'y') + R"(", "x": 42})";
    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
        EngineOptions options;
        options.simd = level;
        for (const auto& [query, document] : cases) {
            EXPECT_EQ(testing::engine_offsets(query, document, options),
                      testing::oracle_offsets(query, document))
                << level_name(level) << " on " << query;
        }
        EXPECT_EQ(testing::engine_offsets("$..x", long_doc, options),
                  testing::oracle_offsets("$..x", long_doc))
            << level_name(level) << " on escape-heavy document";
    }
}

}  // namespace
}  // namespace descend::simd
