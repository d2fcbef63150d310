/**
 * @file
 * AVX2 + PCLMUL + POPCNT implementations of the block kernels.
 *
 * This translation unit is compiled with -mavx2 -mpclmul -mpopcnt (plus
 * BMI1/2) and must only be entered after simd::avx2_available() confirmed
 * hardware support; the dispatcher guarantees that. Each 64-byte block is
 * processed as two 32-byte lanes whose movemasks are concatenated into one
 * u64.
 *
 * classify_eq is the 5-instruction non-overlapping-groups classifier from
 * Section 4.1 of the paper (shift, two shuffles, cmpeq, movemask);
 * classify_or adds one OR for the few-groups case. prefix_xor is a single
 * carry-less multiplication by an all-ones vector (Section 4.2).
 */
#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "descend/simd/dispatch.h"
#include "descend/util/bits.h"

namespace descend::simd {
namespace {

inline __m256i load_half(const std::uint8_t* ptr)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ptr));
}

inline std::uint64_t movemask_pair(__m256i lo, __m256i hi)
{
    std::uint32_t low = static_cast<std::uint32_t>(_mm256_movemask_epi8(lo));
    std::uint32_t high = static_cast<std::uint32_t>(_mm256_movemask_epi8(hi));
    return static_cast<std::uint64_t>(high) << 32 | low;
}

std::uint64_t eq_mask_avx2(const std::uint8_t* block, std::uint8_t value)
{
    __m256i needle = _mm256_set1_epi8(static_cast<char>(value));
    __m256i lo = _mm256_cmpeq_epi8(load_half(block), needle);
    __m256i hi = _mm256_cmpeq_epi8(load_half(block + 32), needle);
    return movemask_pair(lo, hi);
}

inline __m256i broadcast_table(const std::uint8_t* table)
{
    __m128i t = _mm_loadu_si128(reinterpret_cast<const __m128i*>(table));
    return _mm256_broadcastsi128_si256(t);
}

/** shiftright_epi8 simulated by a 16-bit shift plus nibble mask (Sec. 4.1). */
inline __m256i upper_nibbles(__m256i src)
{
    return _mm256_and_si256(_mm256_srli_epi16(src, 4), _mm256_set1_epi8(0x0f));
}

std::uint64_t classify_eq_avx2(const std::uint8_t* block, const std::uint8_t* ltab,
                               const std::uint8_t* utab)
{
    __m256i lt = broadcast_table(ltab);
    __m256i ut = broadcast_table(utab);
    __m256i lo = load_half(block);
    __m256i hi = load_half(block + 32);
    __m256i lo_match = _mm256_cmpeq_epi8(_mm256_shuffle_epi8(lt, lo),
                                         _mm256_shuffle_epi8(ut, upper_nibbles(lo)));
    __m256i hi_match = _mm256_cmpeq_epi8(_mm256_shuffle_epi8(lt, hi),
                                         _mm256_shuffle_epi8(ut, upper_nibbles(hi)));
    return movemask_pair(lo_match, hi_match);
}

std::uint64_t classify_or_avx2(const std::uint8_t* block, const std::uint8_t* ltab,
                               const std::uint8_t* utab)
{
    __m256i lt = broadcast_table(ltab);
    __m256i ut = broadcast_table(utab);
    __m256i ones = _mm256_set1_epi8(static_cast<char>(0xff));
    __m256i lo = load_half(block);
    __m256i hi = load_half(block + 32);
    __m256i lo_or = _mm256_or_si256(_mm256_shuffle_epi8(lt, lo),
                                    _mm256_shuffle_epi8(ut, upper_nibbles(lo)));
    __m256i hi_or = _mm256_or_si256(_mm256_shuffle_epi8(lt, hi),
                                    _mm256_shuffle_epi8(ut, upper_nibbles(hi)));
    return movemask_pair(_mm256_cmpeq_epi8(lo_or, ones), _mm256_cmpeq_epi8(hi_or, ones));
}

inline __m256i lower_nibbles(__m256i src)
{
    return _mm256_and_si256(src, _mm256_set1_epi8(0x0f));
}

std::uint64_t classify_eq_masked_avx2(const std::uint8_t* block,
                                      const std::uint8_t* ltab,
                                      const std::uint8_t* utab)
{
    __m256i lt = broadcast_table(ltab);
    __m256i ut = broadcast_table(utab);
    __m256i lo = load_half(block);
    __m256i hi = load_half(block + 32);
    __m256i lo_match =
        _mm256_cmpeq_epi8(_mm256_shuffle_epi8(lt, lower_nibbles(lo)),
                          _mm256_shuffle_epi8(ut, upper_nibbles(lo)));
    __m256i hi_match =
        _mm256_cmpeq_epi8(_mm256_shuffle_epi8(lt, lower_nibbles(hi)),
                          _mm256_shuffle_epi8(ut, upper_nibbles(hi)));
    return movemask_pair(lo_match, hi_match);
}

std::uint64_t classify_or_masked_avx2(const std::uint8_t* block,
                                      const std::uint8_t* ltab,
                                      const std::uint8_t* utab)
{
    __m256i lt = broadcast_table(ltab);
    __m256i ut = broadcast_table(utab);
    __m256i ones = _mm256_set1_epi8(static_cast<char>(0xff));
    __m256i lo = load_half(block);
    __m256i hi = load_half(block + 32);
    __m256i lo_or = _mm256_or_si256(_mm256_shuffle_epi8(lt, lower_nibbles(lo)),
                                    _mm256_shuffle_epi8(ut, upper_nibbles(lo)));
    __m256i hi_or = _mm256_or_si256(_mm256_shuffle_epi8(lt, lower_nibbles(hi)),
                                    _mm256_shuffle_epi8(ut, upper_nibbles(hi)));
    return movemask_pair(_mm256_cmpeq_epi8(lo_or, ones), _mm256_cmpeq_epi8(hi_or, ones));
}

std::uint64_t prefix_xor_clmul(std::uint64_t mask)
{
    __m128i value = _mm_set_epi64x(0, static_cast<long long>(mask));
    __m128i all_ones = _mm_set1_epi8(static_cast<char>(0xff));
    __m128i product = _mm_clmulepi64_si128(value, all_ones, 0);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(product));
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
 * Batched single-load classifier. Each block's two 32-byte lanes are loaded
 * once and every character mask is derived while they sit in registers:
 * four cmpeqs for quote/backslash/comma/colon, then the case-fold trick for
 * the brackets — t = byte | 0x20 maps '{'/'[' to '{' and '}'/']' to '}',
 * so two more cmpeqs find "any opener"/"any closer", and bit 5 of the
 * original byte (moved to the movemask-visible bit 7 by a 16-bit left
 * shift of 2; the cross-byte shift-ins only reach bits 0-1) discriminates
 * brace from bracket. One more cmpeq pair against the stream's probe byte
 * gives the probe mask. Quote/escape carries are threaded serially, and
 * the bracket counts outside strings are POPCNTs of the finished masks.
 */
void classify_batch_avx2(const std::uint8_t* blocks, BatchCarry& carry,
                         BlockMasks* out)
{
    const __m256i quote = _mm256_set1_epi8('"');
    const __m256i backslash = _mm256_set1_epi8('\\');
    const __m256i comma = _mm256_set1_epi8(',');
    const __m256i colon = _mm256_set1_epi8(':');
    const __m256i fold_bit = _mm256_set1_epi8(0x20);
    const __m256i open_folded = _mm256_set1_epi8('{');
    const __m256i close_folded = _mm256_set1_epi8('}');
    const __m256i probe = _mm256_set1_epi8(static_cast<char>(carry.probe));
    // The carries live in locals: the stores into out[] (the count store
    // included) must not force a reload of them on the serial chain.
    bool escape = carry.escape;
    std::uint64_t in_string_carry = carry.in_string;

    for (std::size_t b = 0; b < kBatchBlocks; ++b) {
        const std::uint8_t* block = blocks + b * kBlockSize;
        __m256i lo = load_half(block);
        __m256i hi = load_half(block + 32);

        std::uint64_t quotes = movemask_pair(_mm256_cmpeq_epi8(lo, quote),
                                             _mm256_cmpeq_epi8(hi, quote));
        std::uint64_t backslashes = movemask_pair(_mm256_cmpeq_epi8(lo, backslash),
                                                  _mm256_cmpeq_epi8(hi, backslash));
        std::uint64_t commas = movemask_pair(_mm256_cmpeq_epi8(lo, comma),
                                             _mm256_cmpeq_epi8(hi, comma));
        std::uint64_t colons = movemask_pair(_mm256_cmpeq_epi8(lo, colon),
                                             _mm256_cmpeq_epi8(hi, colon));

        __m256i lo_folded = _mm256_or_si256(lo, fold_bit);
        __m256i hi_folded = _mm256_or_si256(hi, fold_bit);
        std::uint64_t open_any =
            movemask_pair(_mm256_cmpeq_epi8(lo_folded, open_folded),
                          _mm256_cmpeq_epi8(hi_folded, open_folded));
        std::uint64_t close_any =
            movemask_pair(_mm256_cmpeq_epi8(lo_folded, close_folded),
                          _mm256_cmpeq_epi8(hi_folded, close_folded));
        std::uint64_t bit5 = movemask_pair(_mm256_slli_epi16(lo, 2),
                                           _mm256_slli_epi16(hi, 2));
        std::uint64_t probes = movemask_pair(_mm256_cmpeq_epi8(lo, probe),
                                             _mm256_cmpeq_epi8(hi, probe));

        BlockMasks& masks = out[b];
        masks.entry_escaped = escape;
        masks.entry_in_string = in_string_carry;

        bool carry_out = false;
        std::uint64_t escaped = bits::find_escaped(backslashes, escape, carry_out);
        escape = carry_out;

        std::uint64_t unescaped = quotes & ~escaped;
        std::uint64_t in_string = prefix_xor_clmul(unescaped) ^ in_string_carry;
        in_string_carry =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(in_string) >> 63);
        masks.unescaped_quotes = unescaped;
        masks.in_string = in_string;

        masks.open_braces = open_any & bit5;
        masks.open_brackets = open_any & ~bit5;
        masks.close_braces = close_any & bit5;
        masks.close_brackets = close_any & ~bit5;
        masks.commas = commas;
        masks.colons = colons;
        masks.probe = probes;
        store_bracket_counts(masks);
    }
    carry.escape = escape;
    carry.in_string = in_string_carry;
}

}  // namespace

/** Defined here (not in dispatch.cpp) so only this ISA-flagged TU names the
 *  intrinsics; dispatch.cpp picks the table up via this accessor. */
const Kernels& avx2_kernel_table() noexcept
{
    static const Kernels kernels = {
        Level::avx2,
        "avx2",
        eq_mask_avx2,
        classify_eq_avx2,
        classify_or_avx2,
        classify_eq_masked_avx2,
        classify_or_masked_avx2,
        prefix_xor_clmul,
        classify_batch_avx2,
    };
    return kernels;
}

}  // namespace descend::simd
