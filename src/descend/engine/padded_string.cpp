#include "descend/engine/padded_string.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>

#include "descend/fault/failpoints.h"
#include "descend/simd/dispatch.h"
#include "descend/util/errors.h"

#if defined(__unix__) || defined(__APPLE__)
#define DESCEND_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace descend {
namespace {

constexpr std::size_t kAlignment = 64;

// The batched classifier reads whole kBatchSize batches: the last refill
// starts at the final (possibly partial) block, whose start offset is at
// most size() - 1, so the furthest read ends strictly below
// size() + kBatchSize. Demand a full batch of padding so no kernel read
// can ever leave the allocation.
static_assert(PaddedString::kPadding >= simd::kBatchSize,
              "padding must cover one classification batch past the contents");

/** Debug guard for the classifiers' core assumption: everything between
 *  size() and size() + kPadding is inert whitespace. */
void assert_padding(const std::uint8_t* data, std::size_t logical_size)
{
#ifndef NDEBUG
    for (std::size_t i = 0; i < PaddedString::kPadding; ++i) {
        assert(data[logical_size + i] == ' ' &&
               "padded buffer tail must be spaces");
    }
#else
    (void)data;
    (void)logical_size;
#endif
}

std::uint8_t* allocate_padded(std::size_t logical_size)
{
    std::size_t total = logical_size + PaddedString::kPadding;
    auto* buffer = static_cast<std::uint8_t*>(
        ::operator new(total, std::align_val_t(kAlignment)));
    // Space padding keeps every classifier inert past the logical end.
    std::memset(buffer + logical_size, ' ', PaddedString::kPadding);
    return buffer;
}

}  // namespace

std::size_t PaddedString::mmap_threshold()
{
    // Re-read per call (from_file is never hot): a test harness sets
    // DESCEND_MMAP_THRESHOLD to steer small fixtures onto the mmap path,
    // and per-call reads keep such tests order-independent.
    const char* override_text = std::getenv("DESCEND_MMAP_THRESHOLD");
    if (override_text == nullptr || *override_text == '\0') {
        return kMmapThreshold;
    }
    char* end = nullptr;
    unsigned long long value = std::strtoull(override_text, &end, 10);
    if (end == override_text || *end != '\0') {
        return kMmapThreshold;
    }
    return static_cast<std::size_t>(value);
}

PaddedString::PaddedString(std::string_view contents) : size_(contents.size())
{
    data_ = allocate_padded(size_);
    std::memcpy(data_, contents.data(), size_);
    assert_padding(data_, size_);
}

PaddedString PaddedString::uninitialized(std::size_t size)
{
    PaddedString result;
    result.size_ = size;
    result.data_ = allocate_padded(size);
    return result;
}

PaddedString PaddedString::from_file(const std::string& path)
{
    // Failpoints (no-ops unless built with DESCEND_FAULT=ON): force the
    // open failure and the mmap-degraded portable path deterministically.
    if constexpr (fault::kEnabled) {
        if (fault::should_fire(fault::Site::kFromFileOpen)) {
            throw Error("cannot open file: " + path);
        }
    }
#ifdef DESCEND_HAVE_MMAP
    // mmap fast path for large regular files: map the file copy-on-write
    // inside an anonymous reservation that supplies readable padding pages,
    // then write the space padding. The memset dirties only the file's
    // final partial page (copy-on-write) plus the first anonymous page, so
    // resident memory stays one file's worth instead of two.
    int fd = ::open(path.c_str(), O_RDONLY);
    if constexpr (fault::kEnabled) {
        // Simulated mmap failure: exercise the portable fall-through.
        if (fd >= 0 && fault::should_fire(fault::Site::kFromFileMmap)) {
            ::close(fd);
            fd = -1;
        }
    }
    if (fd >= 0) {
        struct stat st{};
        // st_size > 0: a zero-length file must take the portable path —
        // mmap with length 0 fails with EINVAL, and mapping the one
        // anonymous padding page for an empty document buys nothing.
        bool fits = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
                    st.st_size > 0 &&
                    static_cast<std::size_t>(st.st_size) >= mmap_threshold();
        if (fits) {
            auto size = static_cast<std::size_t>(st.st_size);
            auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
            std::size_t file_span = (size + page - 1) / page * page;
            // One extra page guarantees >= kPadding (one batch, 512 B; a
            // POSIX page is at least 4 KiB) readable bytes past the logical
            // end even when the file is page-aligned.
            std::size_t total = file_span + page;
            void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (base != MAP_FAILED) {
                void* mapped = ::mmap(base, file_span, PROT_READ | PROT_WRITE,
                                      MAP_PRIVATE | MAP_FIXED, fd, 0);
                if (mapped != MAP_FAILED) {
                    ::close(fd);
                    auto* bytes = static_cast<std::uint8_t*>(base);
                    std::memset(bytes + size, ' ', kPadding);
                    // Re-seal everything below the padding; the tail page(s)
                    // stay writable, which is harmless (they are private).
                    std::size_t sealed = size / page * page;
                    if (sealed > 0) {
                        ::mprotect(base, sealed, PROT_READ);
                    }
                    PaddedString result;
                    result.data_ = bytes;
                    result.size_ = size;
                    result.mapped_bytes_ = total;
                    assert_padding(result.data_, result.size_);
                    return result;
                }
                ::munmap(base, total);
            }
            // Fall through to the portable path on any mmap failure.
        }
        ::close(fd);
    }
#endif
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    if (!file) {
        throw Error("cannot open file: " + path);
    }
    std::streamsize size = file.tellg();
    file.seekg(0);
    PaddedString result;
    result.size_ = static_cast<std::size_t>(size);
    result.data_ = allocate_padded(result.size_);
    bool read_ok = static_cast<bool>(
        file.read(reinterpret_cast<char*>(result.data_), size));
    if constexpr (fault::kEnabled) {
        // Simulated short read: the stream succeeded but the failpoint
        // forces the error path a truncated device read would take.
        if (read_ok && fault::should_fire(fault::Site::kFromFileRead)) {
            read_ok = false;
        }
    }
    if (!read_ok) {
        throw Error("cannot read file: " + path);
    }
    assert_padding(result.data_, result.size_);
    return result;
}

PaddedString::PaddedString(PaddedString&& other) noexcept
    : data_(other.data_), size_(other.size_), mapped_bytes_(other.mapped_bytes_)
{
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_bytes_ = 0;
}

PaddedString& PaddedString::operator=(PaddedString&& other) noexcept
{
    if (this != &other) {
        release();
        data_ = other.data_;
        size_ = other.size_;
        mapped_bytes_ = other.mapped_bytes_;
        other.data_ = nullptr;
        other.size_ = 0;
        other.mapped_bytes_ = 0;
    }
    return *this;
}

PaddedString::~PaddedString()
{
    release();
}

void PaddedString::release() noexcept
{
    if (data_ == nullptr) {
        return;
    }
#ifdef DESCEND_HAVE_MMAP
    if (mapped_bytes_ != 0) {
        ::munmap(data_, mapped_bytes_);
        data_ = nullptr;
        mapped_bytes_ = 0;
        return;
    }
#endif
    ::operator delete(data_, std::align_val_t(kAlignment));
    data_ = nullptr;
}

}  // namespace descend
