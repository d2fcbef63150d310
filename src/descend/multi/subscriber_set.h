/**
 * @file
 * SubscriberSet: a dynamic bitset over query ids.
 *
 * Product-automaton states carry one of these per accept set: the distinct
 * queries that match when the state is entered. Sets are tiny relative to
 * the automaton (most states accept nothing, and accept sets repeat — the
 * compiler interns them into a table), so the representation optimizes for
 * fast ascending iteration at report time, not for mutation.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "descend/util/bits.h"

namespace descend::multi {

class SubscriberSet {
public:
    SubscriberSet() = default;

    /** An empty set over @p universe query ids. */
    explicit SubscriberSet(std::size_t universe)
        : words_((universe + 63) / 64, 0)
    {
    }

    void set(std::size_t id) { words_[id >> 6] |= std::uint64_t{1} << (id & 63); }

    bool test(std::size_t id) const noexcept
    {
        return (words_[id >> 6] >> (id & 63)) & 1;
    }

    bool any() const noexcept
    {
        for (std::uint64_t word : words_) {
            if (word != 0) {
                return true;
            }
        }
        return false;
    }

    std::size_t count() const noexcept
    {
        std::size_t total = 0;
        for (std::uint64_t word : words_) {
            total += static_cast<std::size_t>(bits::popcount(word));
        }
        return total;
    }

    /** Invokes @p fn with every member id, in ascending order. */
    template <typename Fn>
    void for_each(Fn&& fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t word = words_[w];
            while (word != 0) {
                std::size_t bit =
                    static_cast<std::size_t>(std::countr_zero(word));
                fn((w << 6) + bit);
                word &= word - 1;
            }
        }
    }

    friend bool operator==(const SubscriberSet& a,
                           const SubscriberSet& b) noexcept
    {
        return a.words_ == b.words_;
    }

    const std::vector<std::uint64_t>& words() const noexcept { return words_; }

private:
    std::vector<std::uint64_t> words_;
};

}  // namespace descend::multi
