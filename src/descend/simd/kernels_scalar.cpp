/**
 * @file
 * Portable reference implementations of the block kernels.
 *
 * These are written as straightforward per-byte loops so that they are
 * obviously equivalent to the definitions in Section 4.1 of the paper; the
 * differential tests pin the AVX2 kernels against them. GCC auto-vectorizes
 * the loops with baseline SSE2, so even the "scalar" pipeline is usable.
 *
 * The lookup classifications deliberately emulate the x86 shuffle rule that
 * an index byte with its most significant bit set yields 0, so that scalar
 * and AVX2 classification are bit-identical on arbitrary (non-ASCII) input.
 */
#include <cstdint>

#include "descend/simd/dispatch.h"
#include "descend/util/bits.h"

namespace descend::simd {
namespace {

std::uint64_t eq_mask_scalar(const std::uint8_t* block, std::uint8_t value)
{
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        mask |= static_cast<std::uint64_t>(block[i] == value) << i;
    }
    return mask;
}

std::uint64_t classify_eq_scalar(const std::uint8_t* block, const std::uint8_t* ltab,
                                 const std::uint8_t* utab)
{
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        std::uint8_t byte = block[i];
        std::uint8_t lower = (byte & 0x80) ? 0 : ltab[byte & 0x0f];
        std::uint8_t upper = utab[byte >> 4];
        mask |= static_cast<std::uint64_t>(lower == upper) << i;
    }
    return mask;
}

std::uint64_t classify_or_scalar(const std::uint8_t* block, const std::uint8_t* ltab,
                                 const std::uint8_t* utab)
{
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        std::uint8_t byte = block[i];
        std::uint8_t lower = (byte & 0x80) ? 0 : ltab[byte & 0x0f];
        std::uint8_t upper = utab[byte >> 4];
        mask |= static_cast<std::uint64_t>((lower | upper) == 0xff) << i;
    }
    return mask;
}

std::uint64_t classify_eq_masked_scalar(const std::uint8_t* block,
                                        const std::uint8_t* ltab,
                                        const std::uint8_t* utab)
{
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        std::uint8_t byte = block[i];
        mask |= static_cast<std::uint64_t>(ltab[byte & 0x0f] == utab[byte >> 4]) << i;
    }
    return mask;
}

std::uint64_t classify_or_masked_scalar(const std::uint8_t* block,
                                        const std::uint8_t* ltab,
                                        const std::uint8_t* utab)
{
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        std::uint8_t byte = block[i];
        mask |= static_cast<std::uint64_t>((ltab[byte & 0x0f] | utab[byte >> 4]) ==
                                           0xff)
                << i;
    }
    return mask;
}

std::uint64_t prefix_xor_scalar(std::uint64_t mask)
{
    return bits::prefix_xor(mask);
}

/**
 * Reference batched classifier: one pass over each byte computing every raw
 * character mask, then the serial quote/escape carry threading and the
 * bracket counts outside strings (SWAR popcounts: this tier runs on any
 * x86-64). All SIMD tiers are pinned bit-for-bit against this
 * implementation.
 */
void classify_batch_scalar(const std::uint8_t* blocks, BatchCarry& carry,
                           BlockMasks* out)
{
    for (std::size_t b = 0; b < kBatchBlocks; ++b) {
        const std::uint8_t* block = blocks + b * kBlockSize;
        std::uint64_t backslashes = 0;
        std::uint64_t quotes = 0;
        std::uint64_t open_braces = 0;
        std::uint64_t close_braces = 0;
        std::uint64_t open_brackets = 0;
        std::uint64_t close_brackets = 0;
        std::uint64_t commas = 0;
        std::uint64_t colons = 0;
        std::uint64_t probe = 0;
        for (std::size_t i = 0; i < kBlockSize; ++i) {
            std::uint8_t byte = block[i];
            std::uint64_t bit = 1ULL << i;
            backslashes |= byte == '\\' ? bit : 0;
            quotes |= byte == '"' ? bit : 0;
            open_braces |= byte == '{' ? bit : 0;
            close_braces |= byte == '}' ? bit : 0;
            open_brackets |= byte == '[' ? bit : 0;
            close_brackets |= byte == ']' ? bit : 0;
            commas |= byte == ',' ? bit : 0;
            colons |= byte == ':' ? bit : 0;
            probe |= byte == carry.probe ? bit : 0;
        }

        BlockMasks& masks = out[b];
        masks.entry_escaped = carry.escape;
        masks.entry_in_string = carry.in_string;

        bool carry_out = false;
        std::uint64_t escaped = bits::find_escaped(backslashes, carry.escape, carry_out);
        carry.escape = carry_out;

        masks.unescaped_quotes = quotes & ~escaped;
        masks.in_string = bits::prefix_xor(masks.unescaped_quotes) ^ carry.in_string;
        // Sign-extend the top bit: all-ones iff this block ends inside a string.
        carry.in_string = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(masks.in_string) >> 63);

        masks.open_braces = open_braces;
        masks.close_braces = close_braces;
        masks.open_brackets = open_brackets;
        masks.close_brackets = close_brackets;
        masks.commas = commas;
        masks.colons = colons;
        masks.probe = probe;

        std::uint64_t not_string = ~masks.in_string;
        masks.counts = {
            static_cast<std::uint8_t>(bits::popcount(open_braces & not_string)),
            static_cast<std::uint8_t>(bits::popcount(close_braces & not_string)),
            static_cast<std::uint8_t>(bits::popcount(open_brackets & not_string)),
            static_cast<std::uint8_t>(bits::popcount(close_brackets & not_string)),
        };
    }
}

}  // namespace

const Kernels& scalar_kernels() noexcept
{
    static const Kernels kernels = {
        Level::scalar,
        "scalar",
        eq_mask_scalar,
        classify_eq_scalar,
        classify_or_scalar,
        classify_eq_masked_scalar,
        classify_or_masked_scalar,
        prefix_xor_scalar,
        classify_batch_scalar,
    };
    return kernels;
}

}  // namespace descend::simd
