#include "descend/engine/validation.h"

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

}  // namespace descend
