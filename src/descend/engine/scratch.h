/**
 * @file
 * Reusable per-worker run scratch for long-lived execution paths (the
 * serve daemon's request workers). The NDJSON stream scheduler needs none
 * of it: its workers append matches straight into per-batch buffers.
 *
 * A one-shot engine run allocates its working state fresh: an OffsetSink
 * grows a new offsets vector, and an input is copied into a new
 * PaddedString. Long-lived workers running millions of records/requests
 * pay that allocation churn on every single unit of work. RunScratch
 * hoists the state to the worker: buffers are cleared between runs but
 * keep their capacity, so the steady state allocates only when a run's
 * needs exceed every previous run's (and copies results out only for the
 * minority of runs that actually match).
 *
 * Nothing here is thread-safe — one RunScratch belongs to one worker
 * thread, mirroring the obs layer's one-registry-per-shard rule.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <vector>

#include "descend/engine/api.h"
#include "descend/engine/padded_string.h"

namespace descend {

/**
 * A MatchSink that retains its buffer capacity across runs: reset()
 * clears the collected offsets without releasing memory, so a worker
 * reuses one allocation for every record/request it ever serves.
 */
class ReusableOffsetSink final : public MatchSink {
public:
    void on_match(std::size_t offset) override { offsets_.push_back(offset); }

    /** Clears the collected offsets, keeping the capacity. */
    void reset() noexcept { offsets_.clear(); }

    const std::vector<std::size_t>& offsets() const noexcept { return offsets_; }
    bool empty() const noexcept { return offsets_.empty(); }
    std::size_t size() const noexcept { return offsets_.size(); }

private:
    std::vector<std::size_t> offsets_;
};

/**
 * A grow-only padded document buffer: assign() copies arbitrary bytes
 * (a request body, a record) into an owned 64-byte-aligned buffer with a
 * full PaddedString::kPadding of trailing spaces and returns a conforming
 * PaddedView of them. The buffer is reused across assigns — it only ever
 * grows, so a worker's steady state performs zero allocations.
 *
 * The returned view is invalidated by the next assign() (and by
 * destruction); callers hold it only for the duration of one run.
 */
class PaddedArena {
public:
    PaddedArena() = default;
    PaddedArena(const PaddedArena&) = delete;
    PaddedArena& operator=(const PaddedArena&) = delete;

    PaddedArena(PaddedArena&& other) noexcept
        : data_(other.data_), capacity_(other.capacity_)
    {
        other.data_ = nullptr;
        other.capacity_ = 0;
    }

    PaddedArena& operator=(PaddedArena&& other) noexcept
    {
        if (this != &other) {
            release();
            data_ = other.data_;
            capacity_ = other.capacity_;
            other.data_ = nullptr;
            other.capacity_ = 0;
        }
        return *this;
    }

    ~PaddedArena() { release(); }

    /** Copies @p contents into the arena (padding it) and views them. */
    PaddedView assign(std::string_view contents)
    {
        return assign(reinterpret_cast<const std::uint8_t*>(contents.data()),
                      contents.size());
    }

    PaddedView assign(const std::uint8_t* data, std::size_t size)
    {
        reserve(size);
        if (size != 0) {
            std::memcpy(data_, data, size);
        }
        // Space padding keeps every classifier inert past the logical end
        // (the same contract PaddedString guarantees).
        std::memset(data_ + size, ' ', PaddedString::kPadding);
        return {data_, size};
    }

    /** Bytes the arena can hold without reallocating. */
    std::size_t capacity() const noexcept { return capacity_; }

private:
    static constexpr std::size_t kAlignment = 64;

    void reserve(std::size_t size)
    {
        // data_ must be checked too: an empty assign on a fresh arena
        // still needs a buffer to hold the padding.
        if (size <= capacity_ && data_ != nullptr) {
            return;
        }
        // Geometric growth so a ramp of slowly growing bodies settles
        // after O(log n) reallocations.
        std::size_t grown = capacity_ + capacity_ / 2;
        std::size_t target = size > grown ? size : grown;
        release();
        data_ = static_cast<std::uint8_t*>(::operator new(
            target + PaddedString::kPadding, std::align_val_t(kAlignment)));
        capacity_ = target;
    }

    void release() noexcept
    {
        if (data_ != nullptr) {
            ::operator delete(data_, std::align_val_t(kAlignment));
            data_ = nullptr;
            capacity_ = 0;
        }
    }

    std::uint8_t* data_ = nullptr;
    std::size_t capacity_ = 0;
};

/**
 * Everything one worker reuses across the requests it serves: the match
 * collector and a padded body arena. Only bodies that arrive as plain
 * bytes (serve::Dispatcher's in-process entry) are copied through the
 * arena; the daemon's workers run on bodies received straight into their
 * own padded buffers and leave it unallocated.
 */
struct RunScratch {
    ReusableOffsetSink matches;
    PaddedArena document;
};

}  // namespace descend
