/**
 * @file
 * Runtime-dispatched SIMD kernel table.
 *
 * Every classifier in the pipeline (Section 4 of the paper) is expressed in
 * terms of a handful of 64-byte-block kernels. Three implementations exist:
 *
 *  - scalar: portable per-byte/SWAR code, always compiled. It doubles as
 *    the differential-testing reference and as the ablation baseline for
 *    the "SIMD vs scalar pipeline" experiment.
 *  - avx2: AVX2 + PCLMUL + POPCNT intrinsics, compiled in a separate
 *    translation unit with the matching ISA flags and selected only after
 *    a CPUID check, mirroring rsonpath's target-feature gating.
 *  - avx512: AVX-512 (F/BW/VL/DQ) + VPCLMULQDQ + POPCNT intrinsics, one
 *    64-byte vector per block so comparisons produce bitmask words
 *    directly, again CPUID-gated in its own translation unit.
 *
 * The rest of the library is built for baseline x86-64, so only those two
 * translation units may use POPCNT (or any other extension); everything
 * else counts bits with the SWAR bits::popcount. tools/isa_leak_check.sh
 * guards the boundary: the ISA-flagged objects must define no weak or
 * COMDAT symbol, which would be an out-of-line copy of a shared inline
 * helper the linker could hand to scalar-tier callers.
 *
 * All block kernels operate on exactly 64 input bytes (one bitmask word).
 * The batched kernel operates on kBatchBlocks consecutive blocks at once.
 * Blocks need not be aligned; engine input buffers come from PaddedString,
 * which guarantees at least kBatchSize readable bytes past the logical end.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace descend::simd {

/** Size in bytes of the unit block all kernels operate on. */
inline constexpr std::size_t kBlockSize = 64;

/** Number of consecutive blocks one classify_batch call processes. */
inline constexpr std::size_t kBatchBlocks = 8;

/** Size in bytes of one classification batch (the single-load unit). */
inline constexpr std::size_t kBatchSize = kBatchBlocks * kBlockSize;

enum class Level {
    scalar,
    avx2,
    avx512,
};

/**
 * A block's bracket counts outside strings: popcount(mask & ~in_string)
 * for each of the four bracket masks. Four bytes, so the SIMD kernels
 * write all of them with one 32-bit store.
 */
struct BracketCounts {
    std::uint8_t open_braces;
    std::uint8_t close_braces;
    std::uint8_t open_brackets;
    std::uint8_t close_brackets;
};
static_assert(sizeof(BracketCounts) == 4);

/**
 * Every mask and count the pipeline needs for one 64-byte block, computed
 * from a single load of the block's bytes (Langdale & Lemire's design point: keep
 * the bytes in registers across all derived masks instead of re-loading
 * them per primitive).
 *
 * Commas and colons are emitted as separate masks rather than folded into
 * one "structural" word so that consumers can toggle them on and off (the
 * paper's depth-vs-structural pipeline switch) by recomposing masks —
 * without ever re-classifying the block.
 *
 * entry_escaped / entry_in_string record the quote-carry state *at the
 * start* of the block, which is exactly what the stop/resume protocol
 * needs to reconstruct a QuoteState on a block boundary.
 *
 * Two more things come off the same load. The four bracket counts are the
 * bracket masks' popcounts outside strings, so per-block bookkeeping (the
 * validator's balances, the depth skips' block-skip test) adds counts on
 * full blocks instead of popcounting masks; only a block clipped by a skip
 * floor or a slice end re-derives them from masks. The probe mask marks
 * the bytes equal to the stream's probe byte (BatchCarry::probe): label
 * search sets it to the label's first byte and gets its candidate
 * prefilter without a second pass over the block.
 */
struct BlockMasks {
    std::uint64_t unescaped_quotes;
    std::uint64_t in_string;
    std::uint64_t open_braces;
    std::uint64_t close_braces;
    std::uint64_t open_brackets;
    std::uint64_t close_brackets;
    std::uint64_t commas;
    std::uint64_t colons;
    /** Positions whose byte equals the stream's probe byte. */
    std::uint64_t probe;
    /** All-ones if the block *starts* inside a string, else zero. */
    std::uint64_t entry_in_string;
    /** The four bracket masks' popcounts outside strings. */
    BracketCounts counts;
    /** True if the previous block ended with an active (odd-run) backslash. */
    bool entry_escaped;
};

/**
 * Per-stream state of consecutive classify_batch calls: the quote/escape
 * carry, threaded from call to call, and the probe byte, which the kernel
 * only reads (BlockMasks::probe).
 */
struct BatchCarry {
    bool escape = false;
    std::uint64_t in_string = 0;  // all-ones or zero
    std::uint8_t probe = 0;
};

/**
 * The kernel function table.
 *
 * classify_eq implements the non-overlapping-groups method of Section 4.1:
 * a byte is accepted iff ltab[lower nibble] == utab[upper nibble], with the
 * x86 shuffle semantics that a set MSB forces the lower-nibble lookup to 0.
 *
 * classify_or implements the few-groups (<= 8) method: a byte is accepted
 * iff (ltab[lower] | utab[upper]) == 0xff, same MSB rule.
 */
struct Kernels {
    Level level;
    const char* name;

    /** Bitmask of positions where block[i] == value. */
    std::uint64_t (*eq_mask)(const std::uint8_t* block, std::uint8_t value);

    /** Non-overlapping-groups classification (Section 4.1, 5 SIMD ops). */
    std::uint64_t (*classify_eq)(const std::uint8_t* block, const std::uint8_t* ltab,
                                 const std::uint8_t* utab);

    /** Few-groups classification (Section 4.1, 6 SIMD ops). */
    std::uint64_t (*classify_or)(const std::uint8_t* block, const std::uint8_t* ltab,
                                 const std::uint8_t* utab);

    /**
     * Variants that zero the upper nibbles of the lower-lookup index (the
     * paper's footnote 2), one extra SIMD op each. Required whenever the
     * predicate involves bytes >= 0x80, where the unmasked shuffle would
     * force the lower lookup to zero.
     */
    std::uint64_t (*classify_eq_masked)(const std::uint8_t* block,
                                        const std::uint8_t* ltab,
                                        const std::uint8_t* utab);
    std::uint64_t (*classify_or_masked)(const std::uint8_t* block,
                                        const std::uint8_t* ltab,
                                        const std::uint8_t* utab);

    /** Prefix XOR over mask bits (CLMUL by all-ones on the SIMD paths). */
    std::uint64_t (*prefix_xor)(std::uint64_t mask);

    /**
     * Batched single-load classification: reads kBatchSize consecutive
     * bytes starting at @p blocks (each byte exactly once) and fills
     * @p out[0..kBatchBlocks) with every per-block mask and bracket count.
     * The quote and escape carries are threaded through the batch
     * internally; @p carry is consumed for block 0 and left holding the
     * state after the last block, so back-to-back calls classify a
     * contiguous stream. carry.probe selects BlockMasks::probe.
     */
    void (*classify_batch)(const std::uint8_t* blocks, BatchCarry& carry,
                           BlockMasks* out);
};

/** The portable reference kernels. */
const Kernels& scalar_kernels() noexcept;

/**
 * The AVX2 kernels if compiled in and supported by this CPU; otherwise the
 * scalar kernels. Purely hardware-gated (ignores the env override) so
 * differential tests always exercise the real tier.
 */
const Kernels& avx2_kernels() noexcept;

/** Same contract for the AVX-512 kernels (falls back to scalar). */
const Kernels& avx512_kernels() noexcept;

/** True when the AVX2 kernels are compiled in and the CPU supports AVX2,
 *  PCLMUL and POPCNT. */
bool avx2_available() noexcept;

/**
 * True when the AVX-512 kernels are compiled in and the CPU supports the
 * full required set: AVX-512 F/BW/VL/DQ plus VPCLMULQDQ (Ice Lake+) and
 * POPCNT.
 * Earlier AVX-512 hardware (Skylake-X) falls back to the AVX2 tier.
 */
bool avx512_available() noexcept;

/**
 * Kernels for the requested level. Falls back to the best available lower
 * tier if the hardware lacks the requested one, and additionally honours
 * the DESCEND_SIMD_LEVEL env var as a hard *cap* (e.g. =scalar forces the
 * scalar tier everywhere this accessor is used).
 */
const Kernels& kernels_for(Level level) noexcept;

/** The best kernels available on this machine (also capped by the env var). */
const Kernels& best_kernels() noexcept;

/** Stable lowercase name for a level ("scalar", "avx2", "avx512"). */
const char* level_name(Level level) noexcept;

/** Parses "scalar" / "avx2" / "avx512" into @p out. False on junk. */
bool parse_level(const char* text, Level& out) noexcept;

/**
 * The level engines should use by default: the best hardware-supported
 * tier, capped by DESCEND_SIMD_LEVEL when set (unparseable values are
 * ignored). This is what EngineOptions defaults to.
 */
Level default_level() noexcept;

}  // namespace descend::simd
