#include "descend/simd/dispatch.h"

#include <cstdlib>
#include <cstring>

namespace descend::simd {

#if DESCEND_HAVE_AVX2_KERNELS
// Implemented in kernels_avx2.cpp (compiled with -mavx2 -mpclmul -mpopcnt).
const Kernels& avx2_kernel_table() noexcept;
#endif
#if DESCEND_HAVE_AVX512_KERNELS
// Implemented in kernels_avx512.cpp (compiled with -mavx512* -mvpclmulqdq
// -mpopcnt).
const Kernels& avx512_kernel_table() noexcept;
#endif

bool avx2_available() noexcept
{
#if DESCEND_HAVE_AVX2_KERNELS
    static const bool available =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("popcnt");
    return available;
#else
    return false;
#endif
}

bool avx512_available() noexcept
{
#if DESCEND_HAVE_AVX512_KERNELS
    static const bool available =
        __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("vpclmulqdq") && __builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("popcnt");
    return available;
#else
    return false;
#endif
}

const Kernels& avx2_kernels() noexcept
{
#if DESCEND_HAVE_AVX2_KERNELS
    if (avx2_available()) {
        return avx2_kernel_table();
    }
#endif
    return scalar_kernels();
}

const Kernels& avx512_kernels() noexcept
{
#if DESCEND_HAVE_AVX512_KERNELS
    if (avx512_available()) {
        return avx512_kernel_table();
    }
#endif
    return scalar_kernels();
}

const char* level_name(Level level) noexcept
{
    switch (level) {
        case Level::scalar:
            return "scalar";
        case Level::avx2:
            return "avx2";
        case Level::avx512:
            return "avx512";
    }
    return "unknown";
}

bool parse_level(const char* text, Level& out) noexcept
{
    if (text == nullptr) {
        return false;
    }
    if (std::strcmp(text, "scalar") == 0) {
        out = Level::scalar;
        return true;
    }
    if (std::strcmp(text, "avx2") == 0) {
        out = Level::avx2;
        return true;
    }
    if (std::strcmp(text, "avx512") == 0) {
        out = Level::avx512;
        return true;
    }
    return false;
}

namespace {

/** Highest tier DESCEND_SIMD_LEVEL allows; avx512 (no cap) when unset. */
Level env_level_cap() noexcept
{
    static const Level cap = [] {
        Level parsed = Level::avx512;
        parse_level(std::getenv("DESCEND_SIMD_LEVEL"), parsed);
        return parsed;
    }();
    return cap;
}

/** Best hardware tier at or below @p level (ignores the env cap). */
const Kernels& hardware_kernels_for(Level level) noexcept
{
    if (level == Level::avx512 && avx512_available()) {
        return avx512_kernels();
    }
    if (level >= Level::avx2 && avx2_available()) {
        return avx2_kernels();
    }
    return scalar_kernels();
}

}  // namespace

const Kernels& kernels_for(Level level) noexcept
{
    Level capped = level < env_level_cap() ? level : env_level_cap();
    return hardware_kernels_for(capped);
}

const Kernels& best_kernels() noexcept
{
    return kernels_for(Level::avx512);
}

Level default_level() noexcept
{
    return best_kernels().level;
}

}  // namespace descend::simd
