/**
 * @file
 * AVX-512 implementations of the block kernels.
 *
 * This translation unit is compiled with -mavx512f -mavx512bw -mavx512vl
 * -mavx512dq -mvpclmulqdq -mpopcnt and must only be entered after
 * simd::avx512_available() confirmed hardware support; the dispatcher
 * guarantees that. Each 64-byte block is exactly one ZMM register, so byte
 * comparisons produce the 64-bit position mask directly (no movemask step),
 * and bit tests come for free via vptestmb.
 *
 * classify_batch additionally uses VPCLMULQDQ to run four prefix-XORs at
 * once: the per-block unescaped-quote words are packed into the low quadword
 * of each 128-bit lane and carry-less-multiplied by all-ones in a single
 * instruction per half-batch (Section 4.2's CLMUL trick, widened).
 */
#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "descend/simd/dispatch.h"
#include "descend/util/bits.h"

// GCC's unmasked AVX-512 intrinsics expand through _mm512_undefined_epi32
// (an explicit don't-care operand for the masked builtin underneath), which
// -Wuninitialized flags inside the system header once inlining kicks in.
#pragma GCC diagnostic ignored "-Wuninitialized"

namespace descend::simd {
namespace {

inline __m512i load_block(const std::uint8_t* ptr)
{
    return _mm512_loadu_si512(reinterpret_cast<const void*>(ptr));
}

std::uint64_t eq_mask_avx512(const std::uint8_t* block, std::uint8_t value)
{
    __m512i needle = _mm512_set1_epi8(static_cast<char>(value));
    return _mm512_cmpeq_epi8_mask(load_block(block), needle);
}

inline __m512i broadcast_table(const std::uint8_t* table)
{
    __m128i t = _mm_loadu_si128(reinterpret_cast<const __m128i*>(table));
    return _mm512_broadcast_i32x4(t);
}

/** shiftright_epi8 simulated by a 16-bit shift plus nibble mask (Sec. 4.1). */
inline __m512i upper_nibbles(__m512i src)
{
    return _mm512_and_si512(_mm512_srli_epi16(src, 4), _mm512_set1_epi8(0x0f));
}

inline __m512i lower_nibbles(__m512i src)
{
    return _mm512_and_si512(src, _mm512_set1_epi8(0x0f));
}

std::uint64_t classify_eq_avx512(const std::uint8_t* block, const std::uint8_t* ltab,
                                 const std::uint8_t* utab)
{
    __m512i lt = broadcast_table(ltab);
    __m512i ut = broadcast_table(utab);
    __m512i src = load_block(block);
    return _mm512_cmpeq_epi8_mask(_mm512_shuffle_epi8(lt, src),
                                  _mm512_shuffle_epi8(ut, upper_nibbles(src)));
}

std::uint64_t classify_or_avx512(const std::uint8_t* block, const std::uint8_t* ltab,
                                 const std::uint8_t* utab)
{
    __m512i lt = broadcast_table(ltab);
    __m512i ut = broadcast_table(utab);
    __m512i ones = _mm512_set1_epi8(static_cast<char>(0xff));
    __m512i src = load_block(block);
    __m512i combined = _mm512_or_si512(_mm512_shuffle_epi8(lt, src),
                                       _mm512_shuffle_epi8(ut, upper_nibbles(src)));
    return _mm512_cmpeq_epi8_mask(combined, ones);
}

std::uint64_t classify_eq_masked_avx512(const std::uint8_t* block,
                                        const std::uint8_t* ltab,
                                        const std::uint8_t* utab)
{
    __m512i lt = broadcast_table(ltab);
    __m512i ut = broadcast_table(utab);
    __m512i src = load_block(block);
    return _mm512_cmpeq_epi8_mask(_mm512_shuffle_epi8(lt, lower_nibbles(src)),
                                  _mm512_shuffle_epi8(ut, upper_nibbles(src)));
}

std::uint64_t classify_or_masked_avx512(const std::uint8_t* block,
                                        const std::uint8_t* ltab,
                                        const std::uint8_t* utab)
{
    __m512i lt = broadcast_table(ltab);
    __m512i ut = broadcast_table(utab);
    __m512i ones = _mm512_set1_epi8(static_cast<char>(0xff));
    __m512i src = load_block(block);
    __m512i combined =
        _mm512_or_si512(_mm512_shuffle_epi8(lt, lower_nibbles(src)),
                        _mm512_shuffle_epi8(ut, upper_nibbles(src)));
    return _mm512_cmpeq_epi8_mask(combined, ones);
}

std::uint64_t prefix_xor_clmul(std::uint64_t mask)
{
    __m128i value = _mm_set_epi64x(0, static_cast<long long>(mask));
    __m128i all_ones = _mm_set1_epi8(static_cast<char>(0xff));
    __m128i product = _mm_clmulepi64_si128(value, all_ones, 0);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(product));
}

/**
 * Prefix-XOR of four mask words in one VPCLMULQDQ: each 128-bit lane of the
 * source holds one word in its low quadword; multiplying by lane-wise
 * all-ones leaves prefix_xor(word) in the low quadword of each lane.
 */
inline void prefix_xor_x4(const std::uint64_t in[4], std::uint64_t out[4])
{
    __m512i packed = _mm512_set_epi64(0, static_cast<long long>(in[3]),  //
                                      0, static_cast<long long>(in[2]),  //
                                      0, static_cast<long long>(in[1]),  //
                                      0, static_cast<long long>(in[0]));
    __m512i product =
        _mm512_clmulepi64_epi128(packed, _mm512_set1_epi64(-1LL), 0x00);
    alignas(64) std::uint64_t lanes[8];
    _mm512_store_si512(reinterpret_cast<void*>(lanes), product);
    out[0] = lanes[0];
    out[1] = lanes[2];
    out[2] = lanes[4];
    out[3] = lanes[6];
}

/**
 * The four bracket counts outside strings, from the finished masks, packed
 * into one 32-bit store (little-endian: byte 0 is open_braces). Four
 * separate byte stores get SLP-vectorized into a lane-insert sequence
 * that costs more than the popcounts themselves.
 */
inline void store_bracket_counts(BlockMasks& masks)
{
    const std::uint64_t not_string = ~masks.in_string;
    const auto count = [not_string](std::uint64_t mask) {
        return static_cast<std::uint32_t>(_mm_popcnt_u64(mask & not_string));
    };
    const std::uint32_t packed = count(masks.open_braces) |
                                 count(masks.close_braces) << 8 |
                                 count(masks.open_brackets) << 16 |
                                 count(masks.close_brackets) << 24;
    // memcpy, not std::bit_cast: an unoptimized build would emit the
    // bit_cast instantiation as a weak symbol of this ISA-flagged object.
    std::memcpy(&masks.counts, &packed, sizeof packed);
}

/**
 * Batched single-load classifier: one ZMM load per block, all masks from
 * vpcmpeqb/vptestmb on the in-register bytes. The case-fold trick from the
 * AVX2 tier finds "any opener"/"any closer" (byte | 0x20 maps '{','[' to
 * '{' and '}',']' to '}'); vptestmb against 0x20 splits brace from bracket.
 * One more vpcmpeqb against the stream's probe byte gives the probe mask.
 * Escape carries are threaded serially (cheap word ops); the eight in-string
 * prefix-XORs run four-at-a-time through VPCLMULQDQ before their serial
 * carry composition, and the bracket counts outside strings are POPCNTs of
 * the finished masks.
 */
void classify_batch_avx512(const std::uint8_t* blocks, BatchCarry& carry,
                           BlockMasks* out)
{
    const __m512i quote = _mm512_set1_epi8('"');
    const __m512i backslash = _mm512_set1_epi8('\\');
    const __m512i comma = _mm512_set1_epi8(',');
    const __m512i colon = _mm512_set1_epi8(':');
    const __m512i fold_bit = _mm512_set1_epi8(0x20);
    const __m512i open_folded = _mm512_set1_epi8('{');
    const __m512i close_folded = _mm512_set1_epi8('}');
    const __m512i probe = _mm512_set1_epi8(static_cast<char>(carry.probe));

    std::uint64_t backslashes[kBatchBlocks];
    std::uint64_t quotes[kBatchBlocks];

    for (std::size_t b = 0; b < kBatchBlocks; ++b) {
        __m512i src = load_block(blocks + b * kBlockSize);
        quotes[b] = _mm512_cmpeq_epi8_mask(src, quote);
        backslashes[b] = _mm512_cmpeq_epi8_mask(src, backslash);

        __m512i folded = _mm512_or_si512(src, fold_bit);
        std::uint64_t open_any = _mm512_cmpeq_epi8_mask(folded, open_folded);
        std::uint64_t close_any = _mm512_cmpeq_epi8_mask(folded, close_folded);
        std::uint64_t bit5 = _mm512_test_epi8_mask(src, fold_bit);

        BlockMasks& masks = out[b];
        masks.open_braces = open_any & bit5;
        masks.open_brackets = open_any & ~bit5;
        masks.close_braces = close_any & bit5;
        masks.close_brackets = close_any & ~bit5;
        masks.commas = _mm512_cmpeq_epi8_mask(src, comma);
        masks.colons = _mm512_cmpeq_epi8_mask(src, colon);
        masks.probe = _mm512_cmpeq_epi8_mask(src, probe);
    }

    // Serial escape threading over the raw masks (word ops only). The
    // carries live in locals so stores into out[] never reload them.
    std::uint64_t unescaped[kBatchBlocks];
    bool escape = carry.escape;
    for (std::size_t b = 0; b < kBatchBlocks; ++b) {
        out[b].entry_escaped = escape;
        bool carry_out = false;
        std::uint64_t escaped = bits::find_escaped(backslashes[b], escape, carry_out);
        escape = carry_out;
        unescaped[b] = quotes[b] & ~escaped;
        out[b].unescaped_quotes = unescaped[b];
    }
    carry.escape = escape;

    // Four prefix-XORs per VPCLMULQDQ, then the serial in-string carry.
    std::uint64_t pxor[kBatchBlocks];
    prefix_xor_x4(unescaped, pxor);
    prefix_xor_x4(unescaped + 4, pxor + 4);
    std::uint64_t in_string_carry = carry.in_string;
    for (std::size_t b = 0; b < kBatchBlocks; ++b) {
        out[b].entry_in_string = in_string_carry;
        std::uint64_t in_string = pxor[b] ^ in_string_carry;
        out[b].in_string = in_string;
        in_string_carry =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(in_string) >> 63);
    }
    carry.in_string = in_string_carry;

    for (std::size_t b = 0; b < kBatchBlocks; ++b) {
        store_bracket_counts(out[b]);
    }
}

}  // namespace

/** Defined here (not in dispatch.cpp) so only this ISA-flagged TU names the
 *  intrinsics; dispatch.cpp picks the table up via this accessor. */
const Kernels& avx512_kernel_table() noexcept
{
    static const Kernels kernels = {
        Level::avx512,
        "avx512",
        eq_mask_avx512,
        classify_eq_avx512,
        classify_or_avx512,
        classify_eq_masked_avx512,
        classify_or_masked_avx512,
        prefix_xor_clmul,
        classify_batch_avx512,
    };
    return kernels;
}

}  // namespace descend::simd
