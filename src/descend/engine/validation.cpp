#include "descend/engine/validation.h"

#include "descend/util/bits.h"
#include "descend/util/chars.h"

namespace descend {

using chars::is_ws_byte;

EngineStatus preflight_document(PaddedView document, const EngineLimits& limits)
{
    if (document.size() > limits.max_document_size) {
        return {StatusCode::kSizeLimit, limits.max_document_size};
    }
    const std::uint8_t* data = document.data();
    std::size_t size = document.size();
    if (size >= 3 && data[0] == 0xef && data[1] == 0xbb && data[2] == 0xbf) {
        // A UTF-8 byte-order mark is not valid JSON (RFC 8259 §8.1).
        return {StatusCode::kInvalidDocument, 0};
    }
    std::size_t first = 0;
    while (first < size && is_ws_byte(data[first])) {
        ++first;
    }
    if (first == size) {
        return {StatusCode::kEmptyDocument, size};
    }
    return {};
}

void StructuralValidator::account_partial(const simd::BlockMasks& masks,
                                          std::uint64_t valid) noexcept
{
    std::uint64_t in_string = masks.in_string & valid;
    std::uint64_t not_string = ~in_string & valid;
    obj_balance_ += bits::popcount(masks.open_braces & not_string) -
                    bits::popcount(masks.close_braces & not_string);
    arr_balance_ += bits::popcount(masks.open_brackets & not_string) -
                    bits::popcount(masks.close_brackets & not_string);
    // The string state at the end bound: the highest valid position's
    // in-string bit (valid is a contiguous low mask, so its popcount is
    // the index one past the top bit).
    int top = bits::popcount(valid) - 1;
    ends_in_string_ = top >= 0 && ((in_string >> top) & 1) != 0;
}

}  // namespace descend
