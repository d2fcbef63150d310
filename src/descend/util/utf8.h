/**
 * @file
 * Scalar UTF-8 validation for object member labels.
 *
 * The engines compare labels in their raw (still escaped) form, which is
 * ASCII except for raw multi-byte sequences the document author embedded.
 * Validation rejects the classic pitfalls: continuation bytes out of
 * place, truncated sequences, overlong encodings, UTF-16 surrogates, and
 * code points above U+10FFFF. Every engine validates every label it
 * resolves, so the leading ASCII run (nearly all of a typical label) is
 * skipped 8 bytes per step; the byte loop takes over at the first word
 * holding a non-ASCII byte.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace descend::util {

inline bool is_valid_utf8(const std::uint8_t* data, std::size_t size) noexcept
{
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, data + i, 8);
        if ((word & 0x8080808080808080ULL) != 0) {
            break;
        }
    }
    while (i < size) {
        std::uint8_t byte = data[i];
        if (byte < 0x80) {
            ++i;
            continue;
        }
        std::size_t length;
        std::uint32_t code;
        if ((byte & 0xe0) == 0xc0) {
            length = 2;
            code = byte & 0x1f;
        } else if ((byte & 0xf0) == 0xe0) {
            length = 3;
            code = byte & 0x0f;
        } else if ((byte & 0xf8) == 0xf0) {
            length = 4;
            code = byte & 0x07;
        } else {
            return false;  // lone continuation byte or 0xFE/0xFF
        }
        if (i + length > size) {
            return false;  // truncated sequence
        }
        for (std::size_t k = 1; k < length; ++k) {
            std::uint8_t continuation = data[i + k];
            if ((continuation & 0xc0) != 0x80) {
                return false;
            }
            code = (code << 6) | (continuation & 0x3f);
        }
        if (length == 2 && code < 0x80) {
            return false;  // overlong
        }
        if (length == 3 && code < 0x800) {
            return false;  // overlong
        }
        if (length == 4 && code < 0x10000) {
            return false;  // overlong
        }
        if (code >= 0xd800 && code <= 0xdfff) {
            return false;  // UTF-16 surrogate
        }
        if (code > 0x10ffff) {
            return false;  // beyond Unicode
        }
        i += length;
    }
    return true;
}

inline bool is_valid_utf8(std::string_view text) noexcept
{
    return is_valid_utf8(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size());
}

}  // namespace descend::util
