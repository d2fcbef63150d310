/**
 * @file
 * Input buffer for the streaming engines.
 *
 * The batched classifier reads whole 512-byte batches (simd::kBatchSize),
 * so engine input must be over-allocated: PaddedString owns a 64-byte-
 * aligned buffer whose logical contents are followed by at least one full
 * batch of spaces (whitespace is inert for every classifier). This mirrors
 * simdjson's padded_string, widened to the batch unit.
 *
 * PaddedView is the non-owning counterpart used for zero-copy record
 * streams: a window into a larger padded buffer. Its contract is weaker —
 * the kPadding bytes past the logical end must merely be *readable* (for a
 * mid-stream record they are the following records, not spaces), so every
 * classifier masks the final partial block to the logical end instead of
 * relying on inert padding. See DESIGN.md ("Record streams & parallel
 * sharding") for the slice-run contract.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace descend {

class PaddedString {
public:
    /**
     * Padding guaranteed past size(): one full classification batch.
     *
     * This is the worst case a batch refill can read: the last refill
     * starts at the final (possibly partial) block, whose start is at most
     * size() - 1, and reads kBatchSize bytes from there — so the read end
     * stays strictly below size() + kBatchSize.
     */
    static constexpr std::size_t kPadding = 512;

    PaddedString() = default;

    /** Copies the contents into a fresh padded buffer. */
    explicit PaddedString(std::string_view contents);

    /**
     * A padded buffer for @p size bytes that the caller fills in place
     * through writable_data() (a request body received straight from a
     * socket). Only the padding is written here, so the untouched pages of
     * a large buffer commit no memory until its contents arrive.
     */
    static PaddedString uninitialized(std::size_t size);

    /**
     * Reads a whole file into a padded buffer. Throws Error on failure.
     *
     * Large regular files take an mmap fast path on POSIX systems: the file
     * is mapped copy-on-write and only the final partial page is touched to
     * install the space padding, so multi-GB stream inputs do not double
     * resident memory. Small files, pipes, and non-POSIX builds use the
     * portable read-into-buffer fallback.
     */
    static PaddedString from_file(const std::string& path);

    /**
     * Files at or above this size are mmapped by from_file (POSIX only).
     * The DESCEND_MMAP_THRESHOLD env var overrides it — tests lower it to
     * exercise the mmap path with small fixture files. Zero-length files
     * always take the portable path: mmap of an empty region is an EINVAL,
     * not a buffer.
     */
    static constexpr std::size_t kMmapThreshold = std::size_t{1} << 22;

    /** The effective threshold: kMmapThreshold, or the
     *  DESCEND_MMAP_THRESHOLD env override (re-read per call). */
    static std::size_t mmap_threshold();

    PaddedString(PaddedString&& other) noexcept;
    PaddedString& operator=(PaddedString&& other) noexcept;
    PaddedString(const PaddedString&) = delete;
    PaddedString& operator=(const PaddedString&) = delete;
    ~PaddedString();

    const std::uint8_t* data() const noexcept { return data_; }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /** The contents, writable. A from_file() mapping is read-only, so only
     *  heap-owned buffers (uninitialized(), the string_view constructor)
     *  allow it. */
    std::uint8_t* writable_data() noexcept
    {
        assert(mapped_bytes_ == 0 && "a file mapping is read-only");
        return data_;
    }

    std::string_view view() const noexcept
    {
        return {reinterpret_cast<const char*>(data_), size_};
    }

private:
    void release() noexcept;

    std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
    /** Nonzero when data_ is an mmap region of this many bytes (munmap on
     *  release) rather than a heap allocation. */
    std::size_t mapped_bytes_ = 0;
};

/**
 * A non-owning read-only window into padded input.
 *
 * Contract: at least PaddedString::kPadding bytes past data() + size() are
 * readable. Unlike a PaddedString they need NOT be whitespace — a record
 * slice of a stream buffer is followed by the remaining records. The
 * classifier pipeline therefore treats size() as a hard end bound and
 * masks the final partial block; no event, quote, or validator accounting
 * ever leaks in from past-the-end bytes.
 *
 * Any in-bounds subview of a conforming view conforms as well: shrinking
 * the window only grows the readable tail.
 */
class PaddedView {
public:
    PaddedView() = default;

    PaddedView(const std::uint8_t* data, std::size_t size) noexcept
        : data_(data), size_(size)
    {
    }

    /** A PaddedString is trivially a conforming view of itself. */
    PaddedView(const PaddedString& owner) noexcept
        : data_(owner.data()), size_(owner.size())
    {
    }

    const std::uint8_t* data() const noexcept { return data_; }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    std::string_view view() const noexcept
    {
        return {reinterpret_cast<const char*>(data_), size_};
    }

    /** The in-bounds window [offset, offset + length); conforming. */
    PaddedView subview(std::size_t offset, std::size_t length) const noexcept
    {
        assert(offset <= size_ && length <= size_ - offset &&
               "subview must stay within the parent view");
        return {data_ + offset, length};
    }

private:
    const std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace descend
