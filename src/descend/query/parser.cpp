/**
 * @file
 * Recursive-descent parser for the JSONPath fragment.
 *
 * Accepted syntax:
 *
 *   query        := '$' segment*
 *   segment      := '.' name | '.' '*' | '..' name | '..' '*'
 *                 | bracket | '..' bracket
 *   bracket      := '[' quoted (',' quoted)* ']' | '[' '*' ']'
 *                 | '[' digits ']' | '[' slice ']' | '[' filter ']'
 *   quoted       := "'" qlabel "'" | '"' qlabel '"'
 *   slice        := digits? ':' digits? (':' digits?)?     (step 1 only)
 *   filter       := '?' '(' '@' step* (op literal)? ')'
 *   step         := '.' name | '[' quoted ']'
 *   op           := '==' | '!=' | '<' | '<=' | '>' | '>='
 *   literal      := number | quoted | 'true' | 'false' | 'null'
 *   name         := bare member-name characters (alnum, '_', '-', '$',
 *                   and any non-ASCII byte)
 *
 * ASCII whitespace is permitted between bracket tokens. Multi-member
 * unions are child-only and collapse singletons to plain labels; filters
 * are child-only and admitted in final selector position only. Negative
 * indices, negative slice bounds, and slice steps other than 1 are
 * rejected with a QueryError (the CLI maps these to usage errors).
 *
 * Quoted labels support the escapes \' \" \\ \/ \b \f \n \r \t \uXXXX.
 * UTF-16 surrogate pairs in \u escapes combine into one code point (encoded
 * as UTF-8, matching the document's raw bytes); lone surrogates are errors.
 * Numeric filter literals are parsed once, here, through the strict JSON
 * number grammar — `1`, `1.0` and `1e0` compare identically at runtime.
 */
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>

#include "descend/json/dom.h"
#include "descend/query/query.h"
#include "descend/util/errors.h"

namespace descend::query {
namespace {

bool is_bare_label_char(char c)
{
    unsigned char byte = static_cast<unsigned char>(c);
    return std::isalnum(byte) || c == '_' || c == '-' || c == '$' || byte >= 0x80;
}

bool is_number_char(char c)
{
    return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
           c == 'e' || c == 'E';
}

}  // namespace

class QueryParser {
public:
    explicit QueryParser(std::string_view text) : text_(text) {}

    Query run()
    {
        Query result;
        result.text_ = std::string(text_);
        if (text_.empty() || text_[0] != '$') {
            fail("query must start with '$'");
        }
        ++pos_;
        Selector root;
        root.kind = SelectorKind::kRoot;
        result.selectors_.push_back(std::move(root));
        while (pos_ < text_.size()) {
            if (result.selectors_.back().kind == SelectorKind::kChildFilter) {
                fail("filter selectors are supported only in final position");
            }
            result.selectors_.push_back(parse_segment());
        }
        return result;
    }

private:
    [[noreturn]] void fail(const std::string& message) const
    {
        throw QueryError(message, pos_);
    }

    char peek() const
    {
        if (pos_ >= text_.size()) {
            throw QueryError("unexpected end of query", pos_);
        }
        return text_[pos_];
    }

    /** Skips ASCII whitespace (permitted between bracket tokens only). */
    void skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    Selector parse_segment()
    {
        if (peek() == '[') {
            return parse_bracket(/*descendant=*/false);
        }
        if (peek() != '.') {
            fail("expected '.' or '['");
        }
        ++pos_;
        bool descendant = false;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            descendant = true;
            ++pos_;
        }
        if (pos_ >= text_.size()) {
            fail("selector expected after dot");
        }
        if (text_[pos_] == '[') {
            if (!descendant) {
                fail("'.[' is not valid; use '[' directly or '..['");
            }
            return parse_bracket(/*descendant=*/true);
        }
        if (text_[pos_] == '*') {
            ++pos_;
            return make_wildcard(descendant);
        }
        std::string label = parse_bare_label();
        return make_label(descendant, std::move(label));
    }

    std::string parse_bare_label()
    {
        std::size_t start = pos_;
        while (pos_ < text_.size() && is_bare_label_char(text_[pos_])) {
            ++pos_;
        }
        if (pos_ == start) {
            fail("member name expected");
        }
        return std::string(text_.substr(start, pos_ - start));
    }

    Selector parse_bracket(bool descendant)
    {
        ++pos_;  // '['
        skip_ws();
        char c = peek();
        if (c == '*') {
            ++pos_;
            skip_ws();
            expect(']');
            return make_wildcard(descendant);
        }
        if (c == '\'' || c == '"') {
            return parse_labels(descendant);
        }
        if (c == '?') {
            if (descendant) {
                fail("descendant filter selectors are not supported");
            }
            return parse_filter();
        }
        if (c == '-') {
            fail("negative array indexes are not supported");
        }
        if (std::isdigit(static_cast<unsigned char>(c)) || c == ':') {
            return parse_index_or_slice(descendant);
        }
        fail("expected label, '*', index, slice or filter in brackets");
    }

    /** One quoted label, or a comma-separated union of them. */
    Selector parse_labels(bool descendant)
    {
        std::vector<LabelRef> members;
        members.push_back(parse_label_ref());
        skip_ws();
        while (peek() == ',') {
            ++pos_;
            skip_ws();
            char q = peek();
            if (q != '\'' && q != '"') {
                fail("expected quoted label in union");
            }
            members.push_back(parse_label_ref());
            skip_ws();
        }
        expect(']');
        // Union members are a set under node semantics: sorting and
        // deduplicating by comparison form makes ['a','b'] and ['b','a']
        // one canonical selector (and one automaton edge set).
        std::sort(members.begin(), members.end(),
                  [](const LabelRef& a, const LabelRef& b) {
                      return a.escaped < b.escaped;
                  });
        members.erase(std::unique(members.begin(), members.end(),
                                  [](const LabelRef& a, const LabelRef& b) {
                                      return a.escaped == b.escaped;
                                  }),
                      members.end());
        if (members.size() == 1) {
            // ['a'] is canonical sugar for .a — same selector, one spelling.
            return make_label(descendant, std::move(members.front().text));
        }
        if (descendant) {
            fail("descendant union selectors are not supported");
        }
        Selector selector;
        selector.kind = SelectorKind::kChildUnion;
        selector.union_members = std::move(members);
        return selector;
    }

    LabelRef parse_label_ref()
    {
        std::string label = parse_quoted_label(peek());
        std::string escaped = json::escape(label);
        return LabelRef{std::move(label), std::move(escaped)};
    }

    /** Unsigned decimal with the 18-digit cap (fits uint64 comfortably). */
    std::uint64_t parse_index()
    {
        std::uint64_t index = 0;
        std::size_t digits = 0;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            index = index * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
            ++pos_;
            if (++digits > 18) {
                fail("array index too large");
            }
        }
        return index;
    }

    Selector parse_index_or_slice(bool descendant)
    {
        std::uint64_t first = 0;
        bool have_first = std::isdigit(static_cast<unsigned char>(peek())) != 0;
        if (have_first) {
            first = parse_index();
            skip_ws();
        }
        if (peek() != ':') {
            if (descendant) {
                fail("descendant index selectors are not supported");
            }
            expect(']');
            Selector selector;
            selector.kind = SelectorKind::kChildIndex;
            selector.index = first;
            return selector;
        }
        ++pos_;  // ':'
        skip_ws();
        std::uint64_t hi = kSliceUnbounded;
        if (peek() == '-') {
            fail("negative slice bounds are not supported");
        }
        if (std::isdigit(static_cast<unsigned char>(peek()))) {
            hi = parse_index();
            skip_ws();
        }
        if (peek() == ':') {
            ++pos_;  // optional step
            skip_ws();
            if (peek() == '-') {
                fail("negative slice steps are not supported");
            }
            if (std::isdigit(static_cast<unsigned char>(peek()))) {
                if (parse_index() != 1) {
                    fail("slice steps other than 1 are not supported");
                }
                skip_ws();
            }
        }
        expect(']');
        if (descendant) {
            fail("descendant slice selectors are not supported");
        }
        Selector selector;
        selector.kind = SelectorKind::kChildSlice;
        selector.slice_lo = first;
        selector.slice_hi = hi;
        return selector;
    }

    Selector parse_filter()
    {
        ++pos_;  // '?'
        expect('(');
        skip_ws();
        expect('@');
        FilterExpr filter;
        while (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == '[')) {
            if (text_[pos_] == '.') {
                ++pos_;
                if (pos_ < text_.size() && text_[pos_] == '.') {
                    fail("descendant steps are not supported in filters");
                }
                std::string label = parse_bare_label();
                std::string escaped = json::escape(label);
                filter.steps.push_back({std::move(label), std::move(escaped)});
            } else {
                ++pos_;  // '['
                skip_ws();
                char q = peek();
                if (q != '\'' && q != '"') {
                    fail("expected quoted label in filter step");
                }
                filter.steps.push_back(parse_label_ref());
                skip_ws();
                expect(']');
            }
        }
        skip_ws();
        if (peek() != ')') {
            filter.op = parse_filter_op();
            skip_ws();
            filter.literal = parse_filter_literal();
            skip_ws();
        }
        expect(')');
        skip_ws();
        expect(']');
        Selector selector;
        selector.kind = SelectorKind::kChildFilter;
        selector.filter = std::move(filter);
        return selector;
    }

    FilterOp parse_filter_op()
    {
        char c = peek();
        ++pos_;
        switch (c) {
            case '=':
                expect('=');
                return FilterOp::kEq;
            case '!':
                expect('=');
                return FilterOp::kNe;
            case '<':
                if (pos_ < text_.size() && text_[pos_] == '=') {
                    ++pos_;
                    return FilterOp::kLe;
                }
                return FilterOp::kLt;
            case '>':
                if (pos_ < text_.size() && text_[pos_] == '=') {
                    ++pos_;
                    return FilterOp::kGe;
                }
                return FilterOp::kGt;
            default: --pos_; fail("expected comparison operator in filter");
        }
    }

    FilterLiteral parse_filter_literal()
    {
        FilterLiteral literal;
        char c = peek();
        if (c == '\'' || c == '"') {
            literal.kind = FilterLiteral::Kind::kString;
            literal.string = parse_quoted_label(c);
            return literal;
        }
        if (consume_keyword("true")) {
            literal.kind = FilterLiteral::Kind::kBool;
            literal.boolean = true;
            return literal;
        }
        if (consume_keyword("false")) {
            literal.kind = FilterLiteral::Kind::kBool;
            literal.boolean = false;
            return literal;
        }
        if (consume_keyword("null")) {
            literal.kind = FilterLiteral::Kind::kNull;
            return literal;
        }
        if (is_number_char(c)) {
            // One compile-time parse through the strict JSON number
            // grammar: runtime comparisons are numeric, never textual.
            std::size_t start = pos_;
            while (pos_ < text_.size() && is_number_char(text_[pos_])) {
                ++pos_;
            }
            std::string_view token = text_.substr(start, pos_ - start);
            try {
                json::Document number = json::parse(token);
                if (!number.root().is_number()) {
                    throw QueryError("invalid number literal in filter", start);
                }
                literal.kind = FilterLiteral::Kind::kNumber;
                literal.number = number.root().as_number();
            } catch (const ParseError&) {
                throw QueryError("invalid number literal in filter", start);
            }
            return literal;
        }
        fail("expected literal in filter comparison");
    }

    bool consume_keyword(std::string_view keyword)
    {
        if (text_.substr(pos_, keyword.size()) != keyword) {
            return false;
        }
        // The keyword must end the token: `trueX` is not `true`.
        std::size_t after = pos_ + keyword.size();
        if (after < text_.size() && is_bare_label_char(text_[after])) {
            return false;
        }
        pos_ = after;
        return true;
    }

    std::string parse_quoted_label(char quote)
    {
        ++pos_;  // opening quote
        std::string label;
        while (true) {
            char c = peek();
            ++pos_;
            if (c == quote) {
                return label;
            }
            if (c != '\\') {
                label.push_back(c);
                continue;
            }
            char escaped = peek();
            ++pos_;
            switch (escaped) {
                case '\'': label.push_back('\''); break;
                case '"': label.push_back('"'); break;
                case '\\': label.push_back('\\'); break;
                case '/': label.push_back('/'); break;
                case 'b': label.push_back('\b'); break;
                case 'f': label.push_back('\f'); break;
                case 'n': label.push_back('\n'); break;
                case 'r': label.push_back('\r'); break;
                case 't': label.push_back('\t'); break;
                case 'u': {
                    std::uint32_t code = parse_hex4();
                    if (code >= 0xDC00 && code <= 0xDFFF) {
                        fail("lone low surrogate in \\u escape");
                    }
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        // UTF-16 surrogate pair: the high half must be
                        // followed by \uXXXX with a low half; the pair
                        // names one non-BMP code point.
                        if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            fail("high surrogate not followed by \\u escape");
                        }
                        pos_ += 2;
                        std::uint32_t low = parse_hex4();
                        if (low < 0xDC00 || low > 0xDFFF) {
                            fail("high surrogate not paired with a low "
                                 "surrogate");
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    append_utf8(label, code);
                    break;
                }
                default: fail("invalid escape in label");
            }
        }
    }

    /** Consumes exactly four hex digits of a \uXXXX escape. */
    std::uint32_t parse_hex4()
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
        }
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_ + static_cast<std::size_t>(i)];
            std::uint32_t digit;
            if (c >= '0' && c <= '9') {
                digit = static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                digit = static_cast<std::uint32_t>(c - 'a') + 10;
            } else if (c >= 'A' && c <= 'F') {
                digit = static_cast<std::uint32_t>(c - 'A') + 10;
            } else {
                fail("invalid hex digit in \\u escape");
            }
            value = (value << 4) | digit;
        }
        pos_ += 4;
        return value;
    }

    /** Appends @p code as UTF-8; the label then matches the raw document
     *  bytes of the same key (json::escape passes bytes >= 0x20 through). */
    static void append_utf8(std::string& out, std::uint32_t code)
    {
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    void expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    static Selector make_wildcard(bool descendant)
    {
        Selector selector;
        selector.kind = descendant ? SelectorKind::kDescendantWildcard
                                   : SelectorKind::kChildWildcard;
        return selector;
    }

    static Selector make_label(bool descendant, std::string label)
    {
        Selector selector;
        selector.kind =
            descendant ? SelectorKind::kDescendant : SelectorKind::kChild;
        selector.label_escaped = json::escape(label);
        selector.label = std::move(label);
        return selector;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

Query Query::parse(std::string_view text)
{
    return QueryParser(text).run();
}

}  // namespace descend::query
