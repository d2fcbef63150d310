#include "descend/serve/protocol.h"

#include <algorithm>
#include <cstring>

namespace descend::serve {
namespace {

// Little-endian field accessors. Byte-wise so the decoder is alignment-
// and endianness-agnostic (frames arrive at arbitrary buffer offsets).

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value)
{
    out.push_back(static_cast<std::uint8_t>(value));
    out.push_back(static_cast<std::uint8_t>(value >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
}

std::uint16_t get_u16(const std::uint8_t* data)
{
    return static_cast<std::uint16_t>(data[0] |
                                      (static_cast<std::uint16_t>(data[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* data)
{
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i) {
        value = (value << 8) | data[i];
    }
    return value;
}

std::uint64_t get_u64(const std::uint8_t* data)
{
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i) {
        value = (value << 8) | data[i];
    }
    return value;
}

}  // namespace

std::vector<std::uint8_t> encode_request(const Request& request)
{
    std::vector<std::uint8_t> out;
    out.reserve(kRequestHeaderSize + request.query.size() + request.body.size());
    put_u32(out, kRequestMagic);
    put_u16(out, kVersion);
    put_u16(out, static_cast<std::uint16_t>(request.mode));
    put_u32(out, request.flags);
    put_u32(out, request.deadline_ms);
    put_u32(out, request.max_depth);
    put_u64(out, request.max_matches);
    put_u32(out, static_cast<std::uint32_t>(request.query.size()));
    put_u32(out, 0);  // reserved
    put_u64(out, request.body.size());
    out.insert(out.end(), request.query.begin(), request.query.end());
    out.insert(out.end(), request.body.begin(), request.body.end());
    return out;
}

std::vector<std::uint8_t> encode_response(const Response& response)
{
    std::uint64_t values_len = 0;
    for (const std::string& value : response.values) {
        values_len += 4 + value.size();
    }
    std::vector<std::uint8_t> out;
    out.reserve(kResponseHeaderSize +
                (response.has_values() ? 8 + values_len : 0) +
                response.offsets.size() * 8 + response.stats_json.size());
    put_u32(out, kResponseMagic);
    put_u16(out, kVersion);
    put_u16(out, static_cast<std::uint16_t>(response.serve_status));
    put_u16(out, static_cast<std::uint16_t>(response.engine_status.code));
    put_u16(out, response.flags);
    put_u32(out, static_cast<std::uint32_t>(response.stats_json.size()));
    put_u64(out, response.engine_status.offset);
    put_u64(out, response.match_count);
    put_u64(out, response.offsets.size());
    if (response.has_values()) {
        put_u64(out, values_len);
        for (const std::string& value : response.values) {
            put_u32(out, static_cast<std::uint32_t>(value.size()));
            out.insert(out.end(), value.begin(), value.end());
        }
    }
    for (std::uint64_t offset : response.offsets) {
        put_u64(out, offset);
    }
    out.insert(out.end(), response.stats_json.begin(),
               response.stats_json.end());
    return out;
}

FrameReader::State FrameReader::feed(const std::uint8_t* data, std::size_t size)
{
    if (state_ == State::kError) {
        return state_;  // poisoned connection: discard everything further
    }
    if (state_ == State::kNeedMore && in_body_) {
        const std::size_t taken = fill_body(data, size);
        data += taken;
        size -= taken;
    }
    if (size != 0) {
        buffer_.insert(buffer_.end(), data, data + size);
    }
    if (state_ == State::kNeedMore && !in_body_) {
        parse();
    }
    return state_;
}

std::span<std::uint8_t> FrameReader::receive_target() noexcept
{
    if (state_ != State::kNeedMore || !in_body_) {
        return {};
    }
    return {pending_.body.writable_data() + body_filled_,
            pending_.body.size() - body_filled_};
}

std::size_t FrameReader::fill_body(const std::uint8_t* data,
                                   std::size_t size) noexcept
{
    const std::size_t taken =
        std::min(size, pending_.body.size() - body_filled_);
    if (taken != 0) {
        std::memcpy(pending_.body.writable_data() + body_filled_, data, taken);
    }
    commit(taken);
    return taken;
}

FrameReader::State FrameReader::finish()
{
    if (state_ == State::kNeedMore && (in_body_ || !buffer_.empty())) {
        return fail(ServeStatus::kTruncatedFrame);
    }
    return state_;
}

ReceivedRequest FrameReader::take_request()
{
    ReceivedRequest request = std::move(pending_);
    pending_ = ReceivedRequest{};
    in_body_ = false;
    body_filled_ = 0;
    state_ = State::kNeedMore;
    parse();  // leftover bytes may already hold the next frame
    return request;
}

void FrameReader::parse()
{
    if (buffer_.size() < kRequestHeaderSize) {
        // Reject garbage as early as its first bytes allow: a stream that
        // cannot be the start of a frame should not be buffered until a
        // header's worth of junk has accumulated.
        if (!buffer_.empty()) {
            std::size_t check = buffer_.size() < 4 ? buffer_.size() : 4;
            const std::uint8_t magic_bytes[4] = {
                static_cast<std::uint8_t>(kRequestMagic),
                static_cast<std::uint8_t>(kRequestMagic >> 8),
                static_cast<std::uint8_t>(kRequestMagic >> 16),
                static_cast<std::uint8_t>(kRequestMagic >> 24)};
            if (std::memcmp(buffer_.data(), magic_bytes, check) != 0) {
                fail(ServeStatus::kBadMagic);
            }
        }
        return;
    }
    const std::uint8_t* header = buffer_.data();
    if (get_u32(header) != kRequestMagic) {
        fail(ServeStatus::kBadMagic);
        return;
    }
    if (get_u16(header + 4) != kVersion) {
        fail(ServeStatus::kBadVersion);
        return;
    }
    const std::uint16_t mode = get_u16(header + 6);
    if (mode > static_cast<std::uint16_t>(RequestMode::kNdjson)) {
        fail(ServeStatus::kBadMode);
        return;
    }
    const std::uint32_t query_len = get_u32(header + 28);
    if (get_u32(header + 32) != 0) {
        fail(ServeStatus::kBadReserved);
        return;
    }
    const std::uint64_t body_len = get_u64(header + 36);
    // Admission control from the header alone: an over-limit request is
    // rejected before its payload is ever buffered.
    if (query_len > limits_.max_query_bytes) {
        fail(ServeStatus::kQueryTooLarge);
        return;
    }
    if (body_len > limits_.max_body_bytes) {
        fail(ServeStatus::kBodyTooLarge);
        return;
    }
    const std::size_t head = kRequestHeaderSize + query_len;
    if (buffer_.size() < head) {
        return;  // kNeedMore
    }
    Request& request = pending_.request;
    request.mode = static_cast<RequestMode>(mode);
    request.flags = get_u32(header + 8);
    request.deadline_ms = get_u32(header + 12);
    request.max_depth = get_u32(header + 16);
    request.max_matches = get_u64(header + 20);
    request.query.assign(
        reinterpret_cast<const char*>(header + kRequestHeaderSize), query_len);
    // The body gets its own padded buffer, and the part of it that came
    // with the query's read moves in; the rest may be received in place.
    pending_.body =
        PaddedString::uninitialized(static_cast<std::size_t>(body_len));
    in_body_ = true;
    const std::size_t taken =
        fill_body(buffer_.data() + head, buffer_.size() - head);
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head + taken));
}

bool decode_response(const std::uint8_t* data, std::size_t size,
                     Response& response, std::size_t& consumed,
                     const FrameLimits* limits)
{
    consumed = 0;
    if (size < kResponseHeaderSize) {
        return false;
    }
    if (get_u32(data) != kResponseMagic || get_u16(data + 4) != kVersion) {
        return false;
    }
    const std::uint16_t serve_status = get_u16(data + 6);
    if (serve_status >= kServeStatusCount) {
        return false;
    }
    const std::uint16_t engine_code = get_u16(data + 8);
    if (engine_code >= kStatusCodeCount) {
        return false;
    }
    const std::uint16_t flags = get_u16(data + 10);
    const std::uint32_t stats_len = get_u32(data + 12);
    const std::uint64_t offsets_count = get_u64(data + 32);

    // The values body sits between the header and the offsets; its length
    // prefix is admission-checked before a single value is buffered.
    std::size_t values_part = 0;
    std::uint64_t values_len = 0;
    if ((flags & kHasValues) != 0) {
        if (size - kResponseHeaderSize < 8) {
            return false;
        }
        values_len = get_u64(data + kResponseHeaderSize);
        if (limits != nullptr && values_len > limits->max_body_bytes) {
            return false;
        }
        if (values_len > size - kResponseHeaderSize - 8) {
            return false;
        }
        values_part = 8 + static_cast<std::size_t>(values_len);
    }
    // Overflow-safe total: the per-part bounds keep every product and sum
    // well under SIZE_MAX before they are combined.
    if (offsets_count > (size - kResponseHeaderSize - values_part) / 8) {
        return false;
    }
    const std::size_t total = kResponseHeaderSize + values_part +
                              static_cast<std::size_t>(offsets_count) * 8 +
                              stats_len;
    if (size < total) {
        return false;
    }
    response.serve_status = static_cast<ServeStatus>(serve_status);
    response.engine_status.code = static_cast<StatusCode>(engine_code);
    response.engine_status.offset = get_u64(data + 16);
    response.flags = flags;
    response.match_count = get_u64(data + 24);
    response.values.clear();
    const std::uint8_t* cursor = data + kResponseHeaderSize;
    if ((flags & kHasValues) != 0) {
        cursor += 8;
        const std::uint8_t* values_end =
            cursor + static_cast<std::size_t>(values_len);
        while (cursor < values_end) {
            if (values_end - cursor < 4) {
                return false;  // dangling length prefix
            }
            const std::uint32_t len = get_u32(cursor);
            cursor += 4;
            if (static_cast<std::size_t>(values_end - cursor) < len) {
                return false;  // value overruns the declared body
            }
            response.values.emplace_back(
                reinterpret_cast<const char*>(cursor), len);
            cursor += len;
        }
    }
    response.offsets.clear();
    response.offsets.reserve(static_cast<std::size_t>(offsets_count));
    for (std::uint64_t i = 0; i < offsets_count; ++i, cursor += 8) {
        response.offsets.push_back(get_u64(cursor));
    }
    response.stats_json.assign(reinterpret_cast<const char*>(cursor),
                               stats_len);
    consumed = total;
    return true;
}

}  // namespace descend::serve
