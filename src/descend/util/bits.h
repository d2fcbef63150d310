/**
 * @file
 * Word-level bit manipulation primitives shared by the SIMD kernels and the
 * classifiers: trailing/leading zero counts, popcount, prefix-XOR, and the
 * add-carry propagation used to find characters escaped by backslash runs
 * (Langdale & Lemire's technique, paper Section 4.2).
 *
 * Everything here is branch-free, constexpr-friendly and portable; the SIMD
 * layer provides accelerated equivalents where the hardware offers them.
 */
#pragma once

#include <bit>
#include <cstdint>

namespace descend::bits {

/** All bits at even positions (0, 2, 4, ...) set. */
inline constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;
/** All bits at odd positions (1, 3, 5, ...) set. */
inline constexpr std::uint64_t kOddBits = 0xAAAAAAAAAAAAAAAAULL;

/** Index of the lowest set bit; 64 when no bit is set. */
inline int trailing_zeros(std::uint64_t mask) noexcept
{
    return std::countr_zero(mask);
}

/**
 * Number of set bits, as a SWAR reduction (pairs, nibbles, bytes, then one
 * multiply sums the eight byte counts into the top byte).
 *
 * The library targets baseline x86-64, where std::popcount compiles to a
 * call into libgcc's software __popcountdi2; this inline ladder is a
 * dozen ALU ops with no call. It deliberately has one definition for
 * every translation unit, POPCNT-flagged or not: two definitions of one
 * inline function would break the one-definition rule. The ISA-flagged
 * kernels use _mm_popcnt_u64 directly instead.
 */
inline constexpr int popcount(std::uint64_t mask) noexcept
{
    mask -= (mask >> 1) & kEvenBits;
    mask = (mask & 0x3333333333333333ULL) + ((mask >> 2) & 0x3333333333333333ULL);
    mask = (mask + (mask >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<int>((mask * 0x0101010101010101ULL) >> 56);
}

/** Clears the lowest set bit. Mask must be non-zero for a meaningful call. */
inline std::uint64_t clear_lowest_bit(std::uint64_t mask) noexcept
{
    return mask & (mask - 1);
}

/** Mask with all bits strictly below @p index set. @p index may be 64. */
inline std::uint64_t mask_below(int index) noexcept
{
    // (1 << 64) is undefined; split the shift to keep index == 64 legal.
    return index >= 64 ? ~0ULL : (1ULL << index) - 1;
}

/** Mask with all bits at or above @p index set. @p index may be 64. */
inline std::uint64_t mask_from(int index) noexcept
{
    return ~mask_below(index);
}

/**
 * Prefix XOR: bit i of the result is the XOR of bits [0, i] of the input.
 *
 * This turns a mask of unescaped quote characters into an "inside string"
 * mask: bits between an opening quote (inclusive) and its closing quote
 * (exclusive) are set. The SIMD layer implements the same function with a
 * single carry-less multiplication (CLMUL) by an all-ones vector; this SWAR
 * ladder is the portable fallback and the differential-test reference.
 */
inline constexpr std::uint64_t prefix_xor(std::uint64_t mask) noexcept
{
    mask ^= mask << 1;
    mask ^= mask << 2;
    mask ^= mask << 4;
    mask ^= mask << 8;
    mask ^= mask << 16;
    mask ^= mask << 32;
    return mask;
}

/** Result of add_overflow: the wrapped sum plus the carry-out flag. */
struct SumWithCarry {
    std::uint64_t sum;
    bool carry;
};

/** 64-bit addition with carry-out, used by the escape analysis. */
[[gnu::always_inline]] inline constexpr SumWithCarry add_overflow(std::uint64_t a,
                                                                  std::uint64_t b) noexcept
{
    std::uint64_t sum = a + b;
    return {sum, sum < a};
}

/**
 * Positions of characters escaped by a backslash sequence of odd length.
 *
 * Given the mask of backslash characters in a 64-byte block and the
 * carried-in flag saying whether the previous block ended with an active
 * (odd-run) backslash, computes the mask of character positions that are
 * escaped (i.e. preceded by an odd-length run of backslashes). The escaped
 * position can be one past the block, which is returned through
 * @p carry_out so the next block's analysis can consume it.
 *
 * This is the add-carry propagation of paper Section 4.2 (after simdjson).
 *
 * Always inlined, even at -O0: the ISA-flagged kernel translation units
 * call it, and an out-of-line copy emitted there would be an AVX-built
 * COMDAT body the linker could pick for every caller (see
 * tools/isa_leak_check.sh).
 */
[[gnu::always_inline]] inline constexpr std::uint64_t find_escaped(
    std::uint64_t backslashes, bool carry_in, bool& carry_out) noexcept
{
    if (backslashes == 0) {
        carry_out = false;
        return carry_in ? 1ULL : 0ULL;
    }
    // A backslash whose position is escaped by the carried-in run is not the
    // start of a new escape itself.
    backslashes &= ~(carry_in ? 1ULL : 0ULL);
    std::uint64_t follows_escape = (backslashes << 1) | (carry_in ? 1ULL : 0ULL);
    std::uint64_t odd_sequence_starts = backslashes & kOddBits & ~follows_escape;
    auto [sequences_starting_on_even_bits, carry] =
        add_overflow(odd_sequence_starts, backslashes);
    carry_out = carry;
    std::uint64_t invert_mask = sequences_starting_on_even_bits << 1;
    return (kEvenBits ^ invert_mask) & follows_escape;
}

/**
 * Iterates over set bits of a mask in ascending position order.
 *
 * Usage: for (BitIter it(mask); !it.done(); it.advance()) use(it.index());
 */
class BitIter {
public:
    explicit BitIter(std::uint64_t mask) noexcept : mask_(mask) {}

    bool done() const noexcept { return mask_ == 0; }
    int index() const noexcept { return trailing_zeros(mask_); }
    void advance() noexcept { mask_ = clear_lowest_bit(mask_); }

private:
    std::uint64_t mask_;
};

}  // namespace descend::bits
