#include "descend/query/query.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>

#include "descend/json/dom.h"

namespace descend::query {
namespace {

/** Bare member-name characters (kept in sync with the parser's grammar):
 *  labels made only of these render in dot form; everything else renders
 *  bracket-quoted so the canonical string re-parses to the same selector. */
bool is_bare_label(std::string_view label)
{
    if (label.empty()) {
        return false;
    }
    for (char c : label) {
        unsigned char byte = static_cast<unsigned char>(c);
        if (!(std::isalnum(byte) || c == '_' || c == '-' || c == '$' ||
              byte >= 0x80)) {
            return false;
        }
    }
    return true;
}

/** Renders a label as a single-quoted bracket string, escaping exactly
 *  what the parser's quoted-label grammar can read back. */
std::string quote_label(std::string_view label)
{
    static const char* hex = "0123456789abcdef";
    std::string out = "'";
    for (char c : label) {
        switch (c) {
            case '\'': out += "\\'"; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xF];
                    out += hex[c & 0xF];
                } else {
                    out += c;
                }
        }
    }
    out += "'";
    return out;
}

/** A label segment in canonical form: dot form when bare, brackets else. */
std::string render_label_segment(std::string_view label)
{
    std::string out;
    if (is_bare_label(label)) {
        out.reserve(1 + label.size());
        out.append(".").append(label);
        return out;
    }
    const std::string quoted = quote_label(label);
    out.reserve(quoted.size() + 2);
    out.append("[").append(quoted).append("]");
    return out;
}

/** Shortest round-trip rendering of a numeric literal: `1`, `1.0` and
 *  `1e0` all parsed to the same double, so they all render identically —
 *  the canonicalization half of the numeric-literal contract. */
std::string render_number(double value)
{
    char buffer[32];
    auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
    return std::string(buffer, end);
}

std::string_view op_text(FilterOp op)
{
    switch (op) {
        case FilterOp::kExists: return "";
        case FilterOp::kEq: return "==";
        case FilterOp::kNe: return "!=";
        case FilterOp::kLt: return "<";
        case FilterOp::kLe: return "<=";
        case FilterOp::kGt: return ">";
        case FilterOp::kGe: return ">=";
    }
    return "";
}

std::string render_filter(const FilterExpr& filter)
{
    std::string out = "[?(@";
    for (const LabelRef& step : filter.steps) {
        out += render_label_segment(step.text);
    }
    if (filter.op != FilterOp::kExists) {
        out += op_text(filter.op);
        switch (filter.literal.kind) {
            case FilterLiteral::Kind::kNumber:
                out += render_number(filter.literal.number);
                break;
            case FilterLiteral::Kind::kString:
                out += quote_label(filter.literal.string);
                break;
            case FilterLiteral::Kind::kBool:
                out += filter.literal.boolean ? "true" : "false";
                break;
            case FilterLiteral::Kind::kNull: out += "null"; break;
            case FilterLiteral::Kind::kNone: break;
        }
    }
    out += ")]";
    return out;
}

/** Same-type equality between a DOM node and a filter literal; any type
 *  mismatch is unequal (and != is the exact negation). */
bool literal_equals(const json::Value& node, const FilterLiteral& literal)
{
    switch (literal.kind) {
        case FilterLiteral::Kind::kNumber:
            return node.is_number() && node.as_number() == literal.number;
        case FilterLiteral::Kind::kString:
            return node.is_string() && node.as_string() == literal.string;
        case FilterLiteral::Kind::kBool:
            return node.is_bool() && node.as_bool() == literal.boolean;
        case FilterLiteral::Kind::kNull: return node.is_null();
        case FilterLiteral::Kind::kNone: return false;
    }
    return false;
}

/** Three-way ordering when defined: numeric for number/number, bytewise
 *  on unescaped contents for string/string. Nullopt for any other pair —
 *  the comparison is then false regardless of the operator. */
std::optional<int> literal_order(const json::Value& node,
                                 const FilterLiteral& literal)
{
    if (literal.kind == FilterLiteral::Kind::kNumber && node.is_number()) {
        double a = node.as_number();
        double b = literal.number;
        return a < b ? -1 : (a > b ? 1 : 0);
    }
    if (literal.kind == FilterLiteral::Kind::kString && node.is_string()) {
        int c = node.as_string().compare(literal.string);
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    return std::nullopt;
}

}  // namespace

bool FilterExpr::matches(const json::Value& candidate) const
{
    const json::Value* node = &candidate;
    for (const LabelRef& step : steps) {
        if (!node->is_object()) {
            return false;
        }
        node = node->find(step.escaped);
        if (node == nullptr) {
            return false;
        }
    }
    switch (op) {
        case FilterOp::kExists: return true;
        case FilterOp::kEq: return literal_equals(*node, literal);
        case FilterOp::kNe: return !literal_equals(*node, literal);
        case FilterOp::kLt: {
            auto order = literal_order(*node, literal);
            return order.has_value() && *order < 0;
        }
        case FilterOp::kLe: {
            auto order = literal_order(*node, literal);
            return order.has_value() && *order <= 0;
        }
        case FilterOp::kGt: {
            auto order = literal_order(*node, literal);
            return order.has_value() && *order > 0;
        }
        case FilterOp::kGe: {
            auto order = literal_order(*node, literal);
            return order.has_value() && *order >= 0;
        }
    }
    return false;
}

bool Query::has_descendants() const noexcept
{
    return std::any_of(selectors_.begin(), selectors_.end(),
                       [](const Selector& s) { return s.is_descendant(); });
}

bool Query::has_indices() const noexcept
{
    return std::any_of(selectors_.begin(), selectors_.end(), [](const Selector& s) {
        return s.needs_entry_counter();
    });
}

const FilterExpr* Query::filter() const noexcept
{
    const Selector& last = selectors_.back();
    return last.kind == SelectorKind::kChildFilter ? &last.filter : nullptr;
}

std::string Query::to_string() const
{
    std::string out;
    for (const Selector& selector : selectors_) {
        switch (selector.kind) {
            case SelectorKind::kRoot: out += "$"; break;
            case SelectorKind::kChild:
                out += render_label_segment(selector.label);
                break;
            case SelectorKind::kChildWildcard: out += ".*"; break;
            case SelectorKind::kChildIndex:
                out.append("[")
                    .append(std::to_string(selector.index))
                    .append("]");
                break;
            case SelectorKind::kChildSlice:
                out.append("[")
                    .append(std::to_string(selector.slice_lo))
                    .append(":");
                if (selector.slice_hi != kSliceUnbounded) {
                    out += std::to_string(selector.slice_hi);
                }
                out += "]";
                break;
            case SelectorKind::kChildUnion: {
                out += "[";
                for (std::size_t m = 0; m < selector.union_members.size(); ++m) {
                    if (m > 0) {
                        out += ",";
                    }
                    out += quote_label(selector.union_members[m].text);
                }
                out += "]";
                break;
            }
            case SelectorKind::kChildFilter:
                out += render_filter(selector.filter);
                break;
            case SelectorKind::kDescendant:
                if (is_bare_label(selector.label)) {
                    out += ".." + selector.label;
                } else {
                    out.append("..[")
                        .append(quote_label(selector.label))
                        .append("]");
                }
                break;
            case SelectorKind::kDescendantWildcard: out += "..*"; break;
        }
    }
    return out;
}

}  // namespace descend::query
