#include "descend/workloads/random_json.h"
#include <vector>

#include <algorithm>

#include "descend/workloads/builder.h"

namespace descend::workloads {
namespace {

class Generator {
public:
    explicit Generator(const RandomJsonOptions& options)
        : options_(options), rng_(options.seed)
    {
        out_.reserve(4096);
    }

    std::string run()
    {
        ws();
        value(0);
        ws();
        return std::move(out_);
    }

private:
    void ws()
    {
        while (rng_.chance(options_.whitespace_chance)) {
            static const char kWs[] = {' ', '\n', '\t', ' ', ' '};
            out_.push_back(kWs[rng_.below(std::size(kWs))]);
        }
    }

    std::string label(int index) const
    {
        return std::string(1, static_cast<char>('a' + index));
    }

    void string_literal()
    {
        out_.push_back('"');
        if (rng_.chance(options_.nasty_string_chance)) {
            // Adversarial contents: structural characters, quotes and
            // backslash runs that the quote classifier must neutralize.
            static const char* const kNasty[] = {
                "{",      "}",        "[",    "]",     ",",       ":",
                "\\\"",   "\\\\",     "\\\\\\\"", "\\n",  "\\u0041", "a\\\"b",
                "{\\\"x\\\":1}", ",,,::{}[]", "\\\\\\\\", "end\\\\",
            };
            std::uint64_t pieces = rng_.between(1, 4);
            for (std::uint64_t i = 0; i < pieces; ++i) {
                out_.append(kNasty[rng_.below(std::size(kNasty))]);
            }
        } else {
            out_.append(random_word(rng_, rng_.between(0, 10)));
        }
        out_.push_back('"');
    }

    void atom()
    {
        switch (rng_.below(5)) {
            // Small integers are drawn often enough that filter equality
            // predicates over the 0..3 literal range actually fire.
            case 0:
                out_.append(std::to_string(
                    rng_.below(rng_.chance(40) ? 5 : 100000)));
                break;
            case 1: out_.append("-").append(std::to_string(rng_.below(1000)));
                    out_.append(".5"); break;
            case 2: out_.append(rng_.chance(50) ? "true" : "false"); break;
            case 3: out_.append("null"); break;
            default: string_literal(); break;
        }
    }

    void value(int depth)
    {
        unsigned chance = options_.container_chance >> std::min(depth, 6);
        if (depth < options_.max_depth && rng_.chance(chance)) {
            if (rng_.chance(50)) {
                object(depth);
            } else {
                array(depth);
            }
        } else {
            atom();
        }
    }

    void object(int depth)
    {
        out_.push_back('{');
        int width = static_cast<int>(rng_.below(options_.max_width + 1));
        // Unique keys per object: shuffle the label pool (plus a few keys
        // outside the query vocabulary).
        std::vector<int> keys;
        for (int i = 0; i < options_.label_pool + 3; ++i) {
            keys.push_back(i);
        }
        for (std::size_t i = keys.size(); i > 1; --i) {
            std::swap(keys[i - 1], keys[rng_.below(i)]);
        }
        width = std::min<int>(width, static_cast<int>(keys.size()));
        for (int m = 0; m < width; ++m) {
            if (m > 0) {
                out_.push_back(',');
            }
            ws();
            out_.push_back('"');
            out_.append(label(keys[static_cast<std::size_t>(m)]));
            out_.push_back('"');
            ws();
            out_.push_back(':');
            ws();
            value(depth + 1);
            ws();
        }
        out_.push_back('}');
    }

    void array(int depth)
    {
        out_.push_back('[');
        int width = static_cast<int>(rng_.below(options_.max_width + 1));
        for (int e = 0; e < width; ++e) {
            if (e > 0) {
                out_.push_back(',');
            }
            ws();
            value(depth + 1);
            ws();
        }
        out_.push_back(']');
    }

    RandomJsonOptions options_;
    Rng rng_;
    std::string out_;
};

/** Appends @p pieces in order (GCC 12 warns falsely, -Wrestrict, on an
 *  inlined `"literal" + string`). Each call below draws from the generator
 *  at most once: argument evaluation order cannot reorder the draws. */
template <typename... Pieces>
void append(std::string& out, const Pieces&... pieces)
{
    ((out += pieces), ...);
}

}  // namespace

std::string random_json(const RandomJsonOptions& options)
{
    return Generator(options).run();
}

std::string random_query(std::uint64_t seed, int label_pool, int max_selectors,
                         bool allow_indices, bool extended_selectors)
{
    Rng rng(seed);
    auto label = [&] {
        return std::string(1,
                           static_cast<char>('a' + rng.below(label_pool)));
    };
    std::string query = "$";
    std::uint64_t selectors = rng.between(1, static_cast<std::uint64_t>(max_selectors));
    for (std::uint64_t s = 0; s < selectors; ++s) {
        std::uint64_t arms = allow_indices ? (extended_selectors ? 9 : 6) : 5;
        switch (rng.below(arms)) {
            case 0:
            case 1: append(query, '.', label()); break;
            case 2: append(query, "..", label()); break;
            case 3: query += ".*"; break;
            case 4:
                if (rng.chance(35)) {
                    query += "..*";
                } else {
                    append(query, "..", label());
                }
                break;
            case 5: append(query, '[', std::to_string(rng.below(4)), ']'); break;
            case 6: {
                // Slice; sometimes open-ended, sometimes empty (hi <= lo).
                std::uint64_t lo = rng.below(4);
                append(query, '[', std::to_string(lo), ':');
                if (!rng.chance(30)) {
                    query += std::to_string(rng.below(6));
                }
                query += "]";
                break;
            }
            case 7: {
                // Union of 2..3 quoted labels; duplicates allowed (the
                // parser dedups, exercising canonicalization).
                append(query, "['", label(), '\'');
                std::uint64_t extra = rng.between(1, 2);
                for (std::uint64_t m = 0; m < extra; ++m) {
                    append(query, ",'", label(), '\'');
                }
                query += "]";
                break;
            }
            default:
                // Bracket-quoted spelling of a plain child: same
                // semantics as the dot form, distinct surface syntax.
                append(query, "['", label(), "']");
                break;
        }
    }
    if (extended_selectors && rng.chance(30)) {
        // Trailing filter (the grammar allows filters only in final
        // position): existence, numeric and string comparisons.
        append(query, "[?(@.", label());
        if (rng.chance(20)) {
            append(query, '.', label());
        }
        switch (rng.below(6)) {
            case 0: break;
            case 1: append(query, "==", std::to_string(rng.below(4))); break;
            case 2: append(query, "!='s", std::to_string(rng.below(3)), '\''); break;
            case 3: append(query, '<', std::to_string(rng.below(4)), ".5"); break;
            case 4: append(query, "<=", std::to_string(rng.below(4)), "e0"); break;
            default: append(query, ">=", std::to_string(rng.below(4))); break;
        }
        query += ")]";
    }
    return query;
}

}  // namespace descend::workloads
