/**
 * @file
 * fuzz_engine: differential fuzzing of all four engines on well-formed,
 * malformed and adversarial inputs.
 *
 * --selectors fuzzes random *well-formed* documents under every skip-flag
 * combination; the default mode attacks the other half of the robustness
 * contract. It takes the deterministic workload
 * generators as seed documents, applies single-byte structural mutations
 * (delete/insert/flip brackets and quotes, escape damage, truncation at
 * every 64-byte block boundary), and checks every engine against an
 * independent scalar structural oracle:
 *
 *  - if the mutant is still structurally well-formed and the strict DOM
 *    parser accepts it, every engine must return an ok status and the
 *    exact DOM match set (no skip may be confused by near-miss damage);
 *  - if the oracle says the mutant is damaged, every engine must return a
 *    non-ok, non-limit EngineStatus — never a silently truncated match
 *    set, never a crash (run under the asan preset for full effect).
 *
 * Documented detection limitations are encoded here, in one place:
 * head-skip mode and the JSONSki baseline cannot flag trailing content
 * after an atomic root (see DESIGN.md, "Error handling & limits").
 *
 * On accepted documents the harness additionally tightens each
 * EngineLimits knob to just below the document's needs and demands the
 * identical {status code, byte offset} from every engine (see the
 * limit-status alignment section below).
 *
 *   fuzz_engine [--iterations N] [--seed S] [--verbose]
 *   fuzz_engine --ndjson N [--seed S]
 *   fuzz_engine --multi N [--seed S]
 *   fuzz_engine --selectors N [--seed S]
 *   fuzz_engine --faults N [--seed S]
 *   fuzz_engine --serve-frames N [--seed S]
 *   fuzz_engine --project N [--seed S]
 *
 * --project N: projection mutation mode (src/descend/project). On mutants
 * the DOM still accepts, SpanExtender must equal the scalar extraction
 * oracle at every kernel tier for every match, engine-driven SliceSink
 * output must be byte-identical to DOM extraction, and the NDJSON sink
 * must emit one line per value. On rejected mutants, span extension from
 * every plausible value-start byte must stay within the view (memory
 * safety under the asan preset).
 *
 * --serve-frames N: wire-protocol mode for the descend-serve daemon. Valid
 * request frames (random mode/flags/limits/query/document) are mutated —
 * byte flips, truncations, length-field corruption, frame splices, pure
 * garbage — and driven through the exact server-side path a connection
 * uses (FrameReader fed in random chunks, alternating at random with
 * direct writes into its receive_target() body tail, then the
 * Dispatcher's in-place entry on decoded requests): the server loop must
 * never crash (run under the asan preset), every outcome must be a valid
 * in-range ServeStatus, reader errors must be sticky, and every response
 * must survive an encode/decode round trip. An unmutated frame — alone or
 * followed by a second one — must decode to exactly its query and body
 * bytes, the body 64-byte aligned and followed by PaddedString::kPadding
 * spaces; one cut inside its body must end in kTruncatedFrame.
 *
 * --faults N: randomized failpoint injection (see src/descend/fault).
 * Requires a DESCEND_FAULT=ON build — exits 0 with a notice otherwise.
 * Arms the batch-refill one-shot at random refill indices with random
 * forced status codes against pristine documents and checks that a fired
 * failpoint surfaces as exactly the forced status (and an unfired one is
 * invisible) across the single-engine, fused-multi and sharded-stream
 * paths.
 *
 * --ndjson N: NDJSON mutation mode for the record-stream subsystem. Small
 * workload documents are concatenated into NDJSON streams (LF, CRLF and
 * bare-CR separators), the *whole stream* is mutated (including separator
 * insertion/deletion, so record boundaries themselves get attacked), and
 * both front ends of the sharded record scheduler — StreamExecutor and a
 * one-query MultiStreamExecutor, at several thread counts, under both
 * error policies — are checked against a scalar reference splitter plus
 * sequential per-record engine runs over isolated PaddedString copies.
 *
 * --selectors N: extended-selector differential mode. Random well-formed
 * documents (depth 4-17, width 3-11, varying whitespace and escape-heavy
 * strings) crossed with random queries drawn from the full supported
 * grammar — array indices, slices, quoted-label unions, bracket-quoted
 * children and trailing filter predicates. Four streaming configurations
 * at every kernel tier — defaults, no skips, defaults without the
 * within-element skip, and one of the 32 skip-flag combinations, taken
 * in turn so that any 32 consecutive iterations run them all — plus the
 * surfer baseline must reproduce the DOM oracle's match set exactly, and
 * the same query sets run through both fused legs (whole and split)
 * against independent per-query runs under the iteration's combination
 * (filter-carrying sets exercise the report-time filter gates; the summary
 * counts those legs).
 *
 * --multi N: fused multi-query mode. Random query sets of up to 64
 * subscriptions — corpus-derived bases extended with mutated shared
 * prefixes, verbatim duplicates included — run through the fused engine
 * (src/descend/multi) against N independent single-query runs on mutated
 * documents, at every kernel tier, in two legs: the whole set as one
 * product automaton, and the set split into parts by the smallest state
 * cap its queries compile under, both legs and the independent runs under
 * one skip-flag combination drawn per set. Identical per-query match sets when
 * every independent run passes, uniformly-rejecting statuses when all
 * fail alike. About one query in five is on the collision axis: a label
 * sharing a document label's length and first and last 8 bytes but not
 * its middle, or a document label cut or padded to 0, 7, 8, 9, 16 or 17
 * bytes — near misses the union alphabet's label table must resolve like
 * a linear scan. The summary counts split legs, near-miss labels and sets
 * refused because one query alone exceeds the state cap.
 *
 * Exits non-zero on the first disagreement, printing a self-contained
 * reproducer (seed dataset, mutation, document, statuses).
 */
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "descend/baselines/dom_engine.h"
#include "descend/baselines/ski_engine.h"
#include "descend/baselines/surfer_engine.h"
#include "descend/descend.h"
#include "descend/fault/failpoints.h"
#include "descend/engine/scratch.h"
#include "descend/json/dom.h"
#include "descend/multi/fused.h"
#include "descend/multi/multi_stream.h"
#include "descend/util/errors.h"
#include "descend/serve/dispatch.h"
#include "descend/serve/protocol.h"
#include "descend/serve/query_cache.h"
#include "descend/workloads/datasets.h"
#include "descend/workloads/random_json.h"

namespace {

using namespace descend;

// ---------------------------------------------------------------------------
// Independent structural oracle.
//
// A deliberately naive scalar scan sharing no code with the engines: string
// and escape tracking, a bracket stack with kinds, root/trailing tracking.
// It models exactly the *structural* layer the streaming engines promise to
// validate; token grammar (bad literals, missing commas) is out of scope —
// the strict DOM parser covers that side.
// ---------------------------------------------------------------------------

enum class OracleClass {
    kOk,        ///< structurally well-formed
    kEmpty,     ///< nothing but whitespace
    kMalformed, ///< unbalanced / mismatched / truncated string / BOM
    kTrailing,  ///< non-whitespace after the completed root value
    kDepth,     ///< nesting beyond EngineLimits::max_depth
};

const char* oracle_class_name(OracleClass cls)
{
    switch (cls) {
        case OracleClass::kOk: return "ok";
        case OracleClass::kEmpty: return "empty";
        case OracleClass::kMalformed: return "malformed";
        case OracleClass::kTrailing: return "trailing";
        case OracleClass::kDepth: return "depth";
    }
    return "?";
}

bool oracle_is_ws(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

OracleClass classify_structure(const std::string& doc, std::size_t max_depth)
{
    if (doc.size() >= 3 && std::memcmp(doc.data(), "\xEF\xBB\xBF", 3) == 0) {
        return OracleClass::kMalformed;
    }
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    bool root_done = false;
    bool in_root_atom = false;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        char c = doc[i];
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
                if (stack.empty() && !in_root_atom) {
                    root_done = true;
                }
            }
            continue;
        }
        bool structural = c == '{' || c == '}' || c == '[' || c == ']' ||
                          c == '"' || c == ',' || c == ':';
        if (in_root_atom && (oracle_is_ws(c) || structural)) {
            in_root_atom = false;
            root_done = true;
        }
        if (oracle_is_ws(c)) {
            continue;
        }
        if (stack.empty() && root_done && c != '}' && c != ']') {
            return OracleClass::kTrailing;
        }
        switch (c) {
            case '{':
            case '[':
                if (stack.size() >= max_depth) {
                    return OracleClass::kDepth;
                }
                stack.push_back(c);
                break;
            case '}':
            case ']':
                if (stack.empty()) {
                    return OracleClass::kMalformed;  // stray closer
                }
                if ((c == '}') != (stack.back() == '{')) {
                    return OracleClass::kMalformed;  // kind mismatch
                }
                stack.pop_back();
                if (stack.empty()) {
                    root_done = true;
                }
                break;
            case '"':
                in_string = true;
                break;
            case ',':
            case ':':
                break;  // grammar, not structure
            default:
                if (stack.empty()) {
                    in_root_atom = true;  // root atom byte
                }
                break;
        }
    }
    if (in_string) {
        return OracleClass::kMalformed;  // truncated string (incl. lone '\')
    }
    if (!stack.empty()) {
        return OracleClass::kMalformed;  // input ended inside containers
    }
    if (!root_done && !in_root_atom) {
        return OracleClass::kEmpty;
    }
    return OracleClass::kOk;
}

// ---------------------------------------------------------------------------
// Deterministic byte mutations.
// ---------------------------------------------------------------------------

struct Mutation {
    std::string description;
    std::string document;
};

std::vector<std::size_t> positions_of(const std::string& doc, const char* set)
{
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        if (std::strchr(set, doc[i]) != nullptr) {
            positions.push_back(i);
        }
    }
    return positions;
}

template <typename Rng>
std::size_t pick(Rng& rng, std::size_t bound)
{
    return static_cast<std::size_t>(rng() % bound);
}

/** Applies one structural mutation chosen by @p rng; nullopt if the chosen
 *  kind has no applicable site in this document. */
template <typename Rng>
std::optional<Mutation> mutate(const std::string& seed, Rng& rng)
{
    std::string doc = seed;
    switch (rng() % 8) {
        case 0: {  // delete a bracket
            std::vector<std::size_t> sites = positions_of(doc, "{}[]");
            if (sites.empty()) return std::nullopt;
            std::size_t at = sites[pick(rng, sites.size())];
            char victim = doc[at];
            doc.erase(at, 1);
            return Mutation{"delete '" + std::string(1, victim) + "' at " +
                                std::to_string(at),
                            doc};
        }
        case 1: {  // insert a bracket anywhere
            const char brackets[] = {'{', '}', '[', ']'};
            char inserted = brackets[pick(rng, 4)];
            std::size_t at = pick(rng, doc.size() + 1);
            doc.insert(at, 1, inserted);
            return Mutation{"insert '" + std::string(1, inserted) + "' at " +
                                std::to_string(at),
                            doc};
        }
        case 2: {  // flip a bracket's kind ({<->[ or }<->])
            std::vector<std::size_t> sites = positions_of(doc, "{}[]");
            if (sites.empty()) return std::nullopt;
            std::size_t at = sites[pick(rng, sites.size())];
            char from = doc[at];
            char to = from == '{' ? '[' : from == '[' ? '{' : from == '}' ? ']' : '}';
            doc[at] = to;
            return Mutation{std::string("flip '") + from + "' -> '" + to +
                                "' at " + std::to_string(at),
                            doc};
        }
        case 3: {  // flip a bracket's side ({<->} or [<->])
            std::vector<std::size_t> sites = positions_of(doc, "{}[]");
            if (sites.empty()) return std::nullopt;
            std::size_t at = sites[pick(rng, sites.size())];
            char from = doc[at];
            char to = from == '{' ? '}' : from == '}' ? '{' : from == '[' ? ']' : '[';
            doc[at] = to;
            return Mutation{std::string("flip '") + from + "' -> '" + to +
                                "' at " + std::to_string(at),
                            doc};
        }
        case 4: {  // delete a quote
            std::vector<std::size_t> sites = positions_of(doc, "\"");
            if (sites.empty()) return std::nullopt;
            std::size_t at = sites[pick(rng, sites.size())];
            doc.erase(at, 1);
            return Mutation{"delete '\"' at " + std::to_string(at), doc};
        }
        case 5: {  // insert a quote anywhere
            std::size_t at = pick(rng, doc.size() + 1);
            doc.insert(at, 1, '"');
            return Mutation{"insert '\"' at " + std::to_string(at), doc};
        }
        case 6: {  // escape damage: insert '\' before a quote, or delete one
            std::vector<std::size_t> slashes = positions_of(doc, "\\");
            if (!slashes.empty() && rng() % 2 == 0) {
                std::size_t at = slashes[pick(rng, slashes.size())];
                doc.erase(at, 1);
                return Mutation{"delete '\\' at " + std::to_string(at), doc};
            }
            std::vector<std::size_t> quotes = positions_of(doc, "\"");
            if (quotes.empty()) return std::nullopt;
            std::size_t at = quotes[pick(rng, quotes.size())];
            doc.insert(at, 1, '\\');
            return Mutation{"insert '\\' before quote at " + std::to_string(at),
                            doc};
        }
        case 7: {  // truncate at an arbitrary position
            if (doc.size() < 2) return std::nullopt;
            std::size_t at = 1 + pick(rng, doc.size() - 1);
            doc.resize(at);
            return Mutation{"truncate to " + std::to_string(at) + " bytes", doc};
        }
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// Engine harness.
// ---------------------------------------------------------------------------

/** Every kernel tier this host can run, best first (scalar is the oracle). */
std::vector<simd::Level> available_levels()
{
    std::vector<simd::Level> levels;
    if (simd::avx512_available()) {
        levels.push_back(simd::Level::avx512);
    }
    if (simd::avx2_available()) {
        levels.push_back(simd::Level::avx2);
    }
    levels.push_back(simd::Level::scalar);
    return levels;
}

/** The main-engine configurations with distinct detection paths. */
std::vector<EngineOptions> descend_configurations()
{
    std::vector<EngineOptions> configs;
    for (simd::Level level : available_levels()) {
        EngineOptions defaults;
        defaults.simd = level;
        configs.push_back(defaults);
        EngineOptions no_skips;
        no_skips.simd = level;
        no_skips.leaf_skipping = false;
        no_skips.child_skipping = false;
        no_skips.sibling_skipping = false;
        no_skips.head_skipping = false;
        no_skips.label_within_skipping = false;
        configs.push_back(no_skips);
        EngineOptions no_within;
        no_within.simd = level;
        no_within.label_within_skipping = false;
        configs.push_back(no_within);
    }
    return configs;
}

/** Skip-flag combination @p bits (0-31; bit 0 leaf, 1 child, 2 sibling,
 *  3 head, 4 within) on @p level. 31 is the default configuration. */
EngineOptions skip_combination(simd::Level level, unsigned bits)
{
    EngineOptions options;
    options.simd = level;
    options.leaf_skipping = (bits & 1U) != 0;
    options.child_skipping = (bits & 2U) != 0;
    options.sibling_skipping = (bits & 4U) != 0;
    options.head_skipping = (bits & 8U) != 0;
    options.label_within_skipping = (bits & 16U) != 0;
    return options;
}

std::string describe(const EngineOptions& o)
{
    std::string s = simd::level_name(o.simd);
    s += o.leaf_skipping ? "+leaf" : "-leaf";
    s += o.child_skipping ? "+child" : "-child";
    s += o.sibling_skipping ? "+sibling" : "-sibling";
    s += o.head_skipping ? "+head" : "-head";
    s += o.label_within_skipping ? "+within" : "-within";
    return s;
}

/** One seed document plus the queries derived from its label vocabulary. */
struct Corpus {
    std::string name;
    std::string document;
    std::vector<std::string> queries;    ///< for descend / surfer / dom
    std::string ski_query;               ///< child-only, for the jsonski baseline
    /** The document's labels that a single-quoted query can spell as they
     *  are (no quote, backslash or control byte): the --multi collision
     *  axis derives near-miss labels from them. */
    std::vector<std::string> labels;
};

void collect_labels(const json::Value& value, std::vector<std::string>& labels,
                    std::size_t limit)
{
    if (labels.size() >= limit) {
        return;
    }
    for (const json::Member& member : value.members()) {
        bool known = false;
        for (const std::string& existing : labels) {
            known = known || existing == member.key;
        }
        if (!known && !member.key.empty()) {
            labels.push_back(member.key);
        }
        collect_labels(*member.value, labels, limit);
    }
    for (const json::Value* element : value.elements()) {
        collect_labels(*element, labels, limit);
    }
}

Corpus build_corpus(const std::string& name, std::size_t target_bytes)
{
    Corpus corpus;
    corpus.name = name;
    corpus.document = workloads::generate(name, target_bytes);
    json::Document dom = json::parse(corpus.document);
    std::vector<std::string> labels;
    collect_labels(dom.root(), labels, 64);
    for (const std::string& label : labels) {
        if (std::none_of(label.begin(), label.end(), [](char c) {
                return c == '\'' || c == '\\' || c == '"' ||
                       static_cast<unsigned char>(c) < 0x20;
            })) {
            corpus.labels.push_back(label);
        }
    }

    corpus.queries.push_back("$.*");
    for (std::size_t i = 0; i < labels.size() && i < 2; ++i) {
        corpus.queries.push_back("$.." + labels[i]);
    }
    if (labels.size() >= 2) {
        corpus.queries.push_back("$.." + labels[0] + ".." + labels[1]);
    }
    if (dom.root().is_object() && !dom.root().members().empty()) {
        corpus.ski_query = "$." + dom.root().members().front().key;
    } else {
        corpus.ski_query = "$[0]";
    }
    return corpus;
}

struct Stats {
    long mutants = 0;
    long still_valid = 0;
    long rejected = 0;
    long per_class[5] = {0, 0, 0, 0, 0};
    /** check_multi sets refused because one query alone exceeds the
     *  product state cap (no split can help). */
    long singleton_refused = 0;
    /** check_multi legs compared with the set split into parts. */
    long split_legs = 0;
    /** check_multi legs compared on sets holding a filter. */
    long filter_product_legs = 0;
    /** Bit b set once check_multi has run a set under skip-flag
     *  combination b (see skip_combination). */
    std::uint32_t combinations = 0;
};


int report(const Corpus& corpus, const Mutation& mutation, OracleClass oracle,
           const std::string& engine, const std::string& query,
           const std::string& detail, const std::string& document)
{
    std::printf(
        "DISAGREEMENT\nseed: %s\nmutation: %s\noracle: %s\nengine: %s\n"
        "query: %s\nproblem: %s\ndocument (%zu bytes):\n%.*s\n",
        corpus.name.c_str(), mutation.description.c_str(),
        oracle_class_name(oracle), engine.c_str(), query.c_str(),
        detail.c_str(), document.size(),
        static_cast<int>(document.size() > 2000 ? 2000 : document.size()),
        document.c_str());
    return 1;
}

std::string offsets_text(const std::vector<std::size_t>& offsets)
{
    std::string text = "[";
    for (std::size_t i = 0; i < offsets.size() && i < 16; ++i) {
        if (i != 0) {
            text += ' ';
        }
        text += std::to_string(offsets[i]);
    }
    if (offsets.size() > 16) {
        text += " ...";
    }
    return text + "] (" + std::to_string(offsets.size()) + ")";
}

// ---------------------------------------------------------------------------
// Limit-status alignment.
//
// On a document every engine accepts, tightening ONE EngineLimits knob to
// just below what the document needs must produce the same EngineStatus —
// code AND byte offset — from every engine:
//
//   max_match_count = N-1   -> {kMatchLimit,  offset of the N-th match}
//   max_depth       = D-1   -> {kDepthLimit,  first opener reaching depth D}
//   max_document_size = S-1 -> {kSizeLimit,   S-1}
//
// One documented exemption: head-skip subruns track depth relative to the
// matched label's element, not the absolute document depth, so head-skip-
// active configurations skip the depth-limit comparison (DESIGN.md).
// ---------------------------------------------------------------------------

/** Scalar scan: deepest nesting and the first opener that reaches it. */
struct DepthProbe {
    std::size_t max_depth = 0;
    std::size_t opener = 0;  ///< offset of the first opener at max_depth
};

DepthProbe probe_depth(const std::string& doc)
{
    DepthProbe probe;
    bool in_string = false;
    bool escaped = false;
    std::size_t depth = 0;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        char c = doc[i];
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            if (++depth > probe.max_depth) {
                probe.max_depth = depth;
                probe.opener = i;
            }
        } else if ((c == '}' || c == ']') && depth > 0) {
            --depth;
        }
    }
    return probe;
}

struct LimitCase {
    const char* what;
    EngineLimits limits;
    EngineStatus expected;
    bool exempt_head_skip = false;
};

/** The tight-limit cases this document supports (see block comment). */
std::vector<LimitCase> limit_cases(const std::string& document,
                                   const std::vector<std::size_t>& offsets)
{
    std::vector<LimitCase> cases;
    if (!offsets.empty()) {
        LimitCase c;
        c.what = "match limit";
        c.limits.max_match_count = offsets.size() - 1;
        c.expected = {StatusCode::kMatchLimit, offsets.back()};
        cases.push_back(c);
    }
    DepthProbe probe = probe_depth(document);
    if (probe.max_depth >= 2) {
        LimitCase c;
        c.what = "depth limit";
        c.limits.max_depth = probe.max_depth - 1;
        c.expected = {StatusCode::kDepthLimit, probe.opener};
        c.exempt_head_skip = true;
        cases.push_back(c);
    }
    if (!document.empty()) {
        LimitCase c;
        c.what = "size limit";
        c.limits.max_document_size = document.size() - 1;
        c.expected = {StatusCode::kSizeLimit, document.size() - 1};
        cases.push_back(c);
    }
    return cases;
}

std::string limit_problem(const LimitCase& c, const EngineStatus& got)
{
    return std::string(c.what) + " status diverges: expected " +
           to_string(c.expected) + ", got " + to_string(got);
}

/**
 * Re-runs dom / surfer / every descend configuration with each tightened
 * limit and demands the exact expected status. Only called on documents
 * the full-limit run accepted with identical match sets everywhere.
 */
int check_limit_statuses(const Corpus& corpus, const Mutation& mutation,
                         const std::string& query_text,
                         const automaton::CompiledQuery& compiled,
                         const std::vector<std::size_t>& dom_offsets,
                         const PaddedString& padded)
{
    for (const LimitCase& c : limit_cases(mutation.document, dom_offsets)) {
        DomEngine dom(query::Query::parse(query_text), c.limits);
        CountSink dom_sink;
        EngineStatus dom_status = dom.run(padded, dom_sink);
        if (dom_status != c.expected) {
            return report(corpus, mutation, OracleClass::kOk, "dom", query_text,
                          limit_problem(c, dom_status), mutation.document);
        }

        SurferEngine surfer(compiled, c.limits);
        CountSink surfer_sink;
        EngineStatus surfer_status = surfer.run(padded, surfer_sink);
        if (surfer_status != c.expected) {
            return report(corpus, mutation, OracleClass::kOk, "surfer",
                          query_text, limit_problem(c, surfer_status),
                          mutation.document);
        }

        for (EngineOptions options : descend_configurations()) {
            bool head_skip_active = options.head_skipping &&
                                    compiled.head_skip_label().has_value();
            if (c.exempt_head_skip && head_skip_active) {
                continue;
            }
            options.limits = c.limits;
            DescendEngine engine(compiled, options);
            CountSink sink;
            EngineStatus status = engine.run(padded, sink);
            if (status != c.expected) {
                return report(corpus, mutation, OracleClass::kOk,
                              "descend[" + describe(options) + "]", query_text,
                              limit_problem(c, status), mutation.document);
            }
        }
    }
    return 0;
}

/**
 * Runs every engine over one (possibly mutated) document and checks the
 * cross-engine contract. Returns 0 when consistent.
 */
int check_document(const Corpus& corpus, const Mutation& mutation, Stats& stats)
{
    const std::string& document = mutation.document;
    EngineLimits limits;
    OracleClass oracle = classify_structure(document, limits.max_depth);
    stats.per_class[static_cast<int>(oracle)] += 1;
    PaddedString padded(document);

    for (const std::string& query_text : corpus.queries) {
        auto compiled = automaton::CompiledQuery::compile(query_text);
        DomEngine dom(query::Query::parse(query_text));
        OffsetSink dom_sink;
        EngineStatus dom_status = dom.run(padded, dom_sink);
        // The DOM parser is strictly more demanding than the structural
        // oracle: anything the oracle rejects, it must reject too.
        if (oracle != OracleClass::kOk && dom_status.ok()) {
            return report(corpus, mutation, oracle, "dom", query_text,
                          "accepted a structurally damaged document", document);
        }
        bool compare_matches = oracle == OracleClass::kOk && dom_status.ok();
        if (compare_matches) {
            stats.still_valid += 1;
        }

        SurferEngine surfer(compiled);
        OffsetSink surfer_sink;
        EngineStatus surfer_status = surfer.run(padded, surfer_sink);
        if (compare_matches) {
            if (!surfer_status.ok()) {
                return report(corpus, mutation, oracle, "surfer", query_text,
                              "false positive: " + to_string(surfer_status),
                              document);
            }
            if (surfer_sink.offsets() != dom_sink.offsets()) {
                return report(corpus, mutation, oracle, "surfer", query_text,
                              "matches diverge: dom " +
                                  offsets_text(dom_sink.offsets()) + " vs " +
                                  offsets_text(surfer_sink.offsets()),
                              document);
            }
        } else if (oracle != OracleClass::kOk) {
            // The surfer tracks the root element scalar-ly: full detection.
            if (surfer_status.ok()) {
                return report(corpus, mutation, oracle, "surfer", query_text,
                              "accepted a damaged document", document);
            }
            if (surfer_status.is_limit() && oracle != OracleClass::kDepth) {
                return report(corpus, mutation, oracle, "surfer", query_text,
                              "misclassified damage as a resource limit: " +
                                  to_string(surfer_status),
                              document);
            }
        }

        for (const EngineOptions& options : descend_configurations()) {
            DescendEngine engine(compiled, options);
            OffsetSink sink;
            RunStats run_stats = engine.run_with_stats(padded, sink);
            EngineStatus status = run_stats.status;
            std::string name = "descend[" + describe(options) + "]";
            // Block-attribution invariant (DESIGN.md §4.6): every run —
            // including early-error and limit-hit runs over damaged input —
            // must account each 64-byte block exactly once across the six
            // attribution counters. Holds by construction; checked here so
            // the fuzzer exercises it over millions of malformed documents.
            if constexpr (obs::kEnabled) {
                std::uint64_t accounted =
                    obs::accounted_blocks(run_stats.counters);
                std::uint64_t total = obs::total_blocks(padded.size());
                if (accounted != total) {
                    return report(corpus, mutation, oracle, name, query_text,
                                  "obs block accounting broken: accounted " +
                                      std::to_string(accounted) + " of " +
                                      std::to_string(total) + " blocks",
                                  document);
                }
            }
            if (compare_matches) {
                if (!status.ok()) {
                    return report(corpus, mutation, oracle, name, query_text,
                                  "false positive: " + to_string(status),
                                  document);
                }
                if (sink.offsets() != dom_sink.offsets()) {
                    return report(corpus, mutation, oracle, name, query_text,
                                  "matches diverge: dom " +
                                      offsets_text(dom_sink.offsets()) + " vs " +
                                      offsets_text(sink.offsets()),
                                  document);
                }
                continue;
            }
            if (oracle == OracleClass::kOk) {
                continue;  // grammar-level damage: streaming engines may pass
            }
            // Documented limitation: head-skip mode never observes the root
            // element, so balanced trailing content is invisible to it.
            bool head_skip_active = options.head_skipping &&
                                    compiled.head_skip_label().has_value();
            if (oracle == OracleClass::kTrailing && head_skip_active) {
                continue;
            }
            if (status.ok()) {
                return report(corpus, mutation, oracle, name, query_text,
                              "accepted a damaged document", document);
            }
            if (status.is_limit() && oracle != OracleClass::kDepth) {
                return report(corpus, mutation, oracle, name, query_text,
                              "misclassified damage as a resource limit: " +
                                  to_string(status),
                              document);
            }
        }

        // Tight-limit alignment: each knob set just below the document's
        // needs must yield the identical status everywhere.
        if (compare_matches) {
            if (int rc = check_limit_statuses(corpus, mutation, query_text,
                                              compiled, dom_sink.offsets(),
                                              padded)) {
                return rc;
            }
        }
    }

    // The JSONSki baseline: child-only query, status classification only
    // (its wildcard semantics differ by design, and it cannot see trailing
    // content after an atomic root).
    SkiEngine ski(query::Query::parse(corpus.ski_query));
    OffsetSink ski_sink;
    EngineStatus ski_status = ski.run(padded, ski_sink);
    if ((oracle == OracleClass::kMalformed || oracle == OracleClass::kEmpty ||
         oracle == OracleClass::kDepth) &&
        ski_status.ok()) {
        return report(corpus, mutation, oracle, "jsonski", corpus.ski_query,
                      "accepted a damaged document", document);
    }
    if (oracle == OracleClass::kOk && ski_status.ok()) {
        // Limit alignment for JSONSki, with expectations derived from its
        // own unlimited match list (its wildcard semantics differ by
        // design, so the DOM run cannot provide them).
        for (const LimitCase& c :
             limit_cases(document, ski_sink.offsets())) {
            SkiEngine limited(query::Query::parse(corpus.ski_query),
                              simd::default_level(), c.limits);
            CountSink limited_sink;
            EngineStatus limited_status = limited.run(padded, limited_sink);
            if (limited_status != c.expected) {
                return report(corpus, mutation, oracle, "jsonski",
                              corpus.ski_query,
                              limit_problem(c, limited_status), document);
            }
        }
    }
    if (oracle != OracleClass::kOk) {
        stats.rejected += 1;
    }
    return 0;
}

// ---------------------------------------------------------------------------
// NDJSON mutation mode: differential fuzzing of the record-stream subsystem.
// ---------------------------------------------------------------------------

/**
 * Scalar reference splitter sharing no code with stream::split_records:
 * naive per-byte string/escape tracking, newline splits, whitespace
 * trimming — the independent oracle for record boundaries. Escape
 * semantics follow the quote classifier's (simdjson's) convention: a quote
 * preceded by an odd run of backslashes is never a string delimiter,
 * regardless of whether the run sits inside a string — on damaged streams
 * the two conventions genuinely differ and the classifier's is the
 * subsystem's contract. Out-of-string '\r' is a separator exactly like
 * '\n' (a CRLF pair yields an empty middle segment the trim drops, so it
 * splits once).
 */
std::vector<stream::RecordSpan> reference_split(const std::string& text)
{
    std::vector<stream::RecordSpan> spans;
    auto emit = [&](std::size_t begin, std::size_t end) {
        while (begin < end && oracle_is_ws(text[begin])) {
            ++begin;
        }
        while (end > begin && oracle_is_ws(text[end - 1])) {
            --end;
        }
        if (begin < end) {
            spans.push_back({begin, end});
        }
    };
    bool in_string = false;
    bool escaped = false;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (c == '\\') {
            escaped = !escaped;
            continue;
        }
        if (c == '"' && !escaped) {
            in_string = !in_string;
        } else if ((c == '\n' || c == '\r') && !in_string) {
            emit(start, i);
            start = i + 1;
        }
        escaped = false;
    }
    emit(start, text.size());
    return spans;
}

/** Mutates a stream: the single-document mutations plus separator attacks
 *  ('\n' and '\r' insertion/deletion — CR is a separator too, and an
 *  inserted CR next to an LF must still split only once). */
template <typename Rng>
std::optional<Mutation> mutate_stream(const std::string& seed, Rng& rng)
{
    switch (rng() % 5) {
        case 0: {  // insert a newline anywhere (splits a record, or lands
                   // inside a string where it must NOT split)
            std::string doc = seed;
            std::size_t at = pick(rng, doc.size() + 1);
            doc.insert(at, 1, '\n');
            return Mutation{"insert '\\n' at " + std::to_string(at), doc};
        }
        case 1: {  // delete a separator (fuses two records into one)
            std::vector<std::size_t> sites = positions_of(seed, "\n\r");
            if (sites.empty()) return std::nullopt;
            std::string doc = seed;
            std::size_t at = sites[pick(rng, sites.size())];
            doc.erase(at, 1);
            return Mutation{"delete separator at " + std::to_string(at), doc};
        }
        case 2: {  // insert a carriage return anywhere
            std::string doc = seed;
            std::size_t at = pick(rng, doc.size() + 1);
            doc.insert(at, 1, '\r');
            return Mutation{"insert '\\r' at " + std::to_string(at), doc};
        }
        default:
            return mutate(seed, rng);
    }
}

int report_stream(const std::string& name, const Mutation& mutation,
                  const std::string& configuration, const std::string& detail,
                  const std::string& document)
{
    std::printf(
        "STREAM DISAGREEMENT\nseed: %s\nmutation: %s\nconfiguration: %s\n"
        "problem: %s\ndocument (%zu bytes):\n%.*s\n",
        name.c_str(), mutation.description.c_str(), configuration.c_str(),
        detail.c_str(), document.size(),
        static_cast<int>(document.size() > 2000 ? 2000 : document.size()),
        document.c_str());
    return 1;
}

/**
 * Checks one (possibly mutated) NDJSON stream: splitter vs the scalar
 * reference, then both stream front ends at several thread counts and
 * under both policies vs sequential per-record runs over isolated copies.
 */
int check_stream(const std::string& name, const Mutation& mutation,
                 const std::string& query_text, Stats& stats)
{
    const std::string& text = mutation.document;
    PaddedString padded(text);
    std::vector<stream::RecordSpan> expected_spans = reference_split(text);
    for (simd::Level level : available_levels()) {
        std::vector<stream::RecordSpan> spans =
            stream::split_records(padded, simd::kernels_for(level));
        if (spans != expected_spans) {
            return report_stream(
                name, mutation,
                std::string("split[") + simd::level_name(level) + "]",
                "record spans diverge from the scalar reference splitter "
                "(counts " +
                    std::to_string(spans.size()) + " vs " +
                    std::to_string(expected_spans.size()) + ")",
                text);
        }
    }

    // Sequential per-record oracle over isolated copies.
    DescendEngine engine = DescendEngine::for_query(query_text);
    std::vector<stream::CollectingStreamSink::Match> skip_matches;
    std::vector<stream::CollectingStreamSink::RecordError> skip_errors;
    for (std::size_t r = 0; r < expected_spans.size(); ++r) {
        const stream::RecordSpan& span = expected_spans[r];
        PaddedString copy(
            std::string_view(text).substr(span.begin, span.size()));
        OffsetsResult result = engine.offsets_checked(copy);
        if (result.ok()) {
            for (std::size_t offset : result.offsets) {
                skip_matches.push_back({r, offset});
            }
        } else {
            skip_errors.push_back({r, result.status});
        }
    }
    // Fail-fast expectation: cut the skip-policy result at the first error.
    std::vector<stream::CollectingStreamSink::Match> fast_matches;
    std::vector<stream::CollectingStreamSink::RecordError> fast_errors;
    std::size_t first_failed = skip_errors.empty()
                                   ? stream::StreamResult::kNone
                                   : skip_errors.front().record;
    for (const auto& match : skip_matches) {
        if (match.record < first_failed) {
            fast_matches.push_back(match);
        }
    }
    if (!skip_errors.empty()) {
        fast_errors.push_back(skip_errors.front());
    }

    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        for (stream::ErrorPolicy policy : {stream::ErrorPolicy::kSkipRecord,
                                           stream::ErrorPolicy::kFailFast}) {
            bool fail_fast = policy == stream::ErrorPolicy::kFailFast;
            stream::StreamOptions options;
            options.threads = threads;
            options.policy = policy;
            options.records_per_batch = 3;  // small batches: more shuffling
            // Both front ends of the record scheduler: the single-query
            // executor and a one-query fused set.
            for (bool fused : {false, true}) {
                std::vector<stream::CollectingStreamSink::Match> matches;
                std::vector<stream::CollectingStreamSink::RecordError> errors;
                stream::StreamResult result;
                bool foreign_query = false;
                if (fused) {
                    multi::MultiStreamExecutor executor =
                        multi::MultiStreamExecutor::for_queries({query_text},
                                                                options);
                    multi::CollectingMultiStreamSink sink;
                    result = executor.run(padded, sink);
                    for (const auto& match : sink.matches()) {
                        foreign_query |= match.query != 0;
                        matches.push_back({match.record, match.offset});
                    }
                    errors = sink.errors();
                } else {
                    stream::StreamExecutor executor(
                        automaton::CompiledQuery::compile(query_text), options);
                    stream::CollectingStreamSink sink;
                    result = executor.run(padded, sink);
                    matches = sink.matches();
                    errors = sink.errors();
                }
                std::string configuration =
                    std::string(fused ? "fused-executor" : "executor") +
                    "[threads=" + std::to_string(threads) +
                    (fail_fast ? ",fail-fast]" : ",skip]");
                const auto& want_matches = fail_fast ? fast_matches : skip_matches;
                const auto& want_errors = fail_fast ? fast_errors : skip_errors;
                if (foreign_query) {
                    return report_stream(name, mutation, configuration,
                                         "a one-query set reported a match "
                                         "for another query index",
                                         text);
                }
                if (matches != want_matches) {
                    return report_stream(name, mutation, configuration,
                                         "matches diverge from the sequential "
                                         "oracle (" +
                                             std::to_string(matches.size()) +
                                             " vs " +
                                             std::to_string(want_matches.size()) +
                                             ")",
                                         text);
                }
                if (errors != want_errors) {
                    return report_stream(
                        name, mutation, configuration,
                        "record errors diverge from the sequential oracle",
                        text);
                }
                if (result.records != expected_spans.size() ||
                    result.matches != want_matches.size() ||
                    result.failed_records != want_errors.size()) {
                    return report_stream(name, mutation, configuration,
                                         "aggregate StreamResult counters are "
                                         "inconsistent with the delivered "
                                         "stream",
                                         text);
                }
            }
        }
    }
    if (!skip_errors.empty()) {
        stats.rejected += 1;
    } else {
        stats.still_valid += 1;
    }
    return 0;
}

int run_ndjson_mode(long iterations, std::uint64_t seed0, bool verbose)
{
    // Streams of small records from every generator; one stream per
    // dataset, queried with a descendant and a wildcard query.
    struct StreamCorpus {
        std::string name;
        std::string text;
    };
    std::vector<StreamCorpus> corpora;
    for (const std::string& name : workloads::dataset_names()) {
        std::string text;
        for (std::size_t i = 0; i < 5; ++i) {
            text += workloads::generate(name, 400 + i * 230);
            // Cycle the separator style so pristine streams already cover
            // LF, CRLF and bare-CR record boundaries.
            text += i % 3 == 1 ? "\r\n" : (i % 3 == 2 ? "\r" : "\n");
        }
        corpora.push_back({name, text});
    }
    const char* queries[] = {"$.*", "$..id"};

    Stats stats;
    // Pristine streams must already agree everywhere.
    for (const StreamCorpus& corpus : corpora) {
        Mutation pristine{"none (pristine stream)", corpus.text};
        for (const char* query : queries) {
            if (int rc = check_stream(corpus.name, pristine, query, stats)) {
                return rc;
            }
        }
    }
    for (long i = 0; i < iterations; ++i) {
        const StreamCorpus& corpus =
            corpora[static_cast<std::size_t>(i) % corpora.size()];
        std::mt19937_64 rng(seed0 * 0x9E3779B97F4A7C15ull +
                            static_cast<std::uint64_t>(i) + 0x51ED0A3Bull);
        std::optional<Mutation> mutation = mutate_stream(corpus.text, rng);
        if (!mutation.has_value()) {
            continue;
        }
        stats.mutants += 1;
        const char* query = queries[rng() % 2];
        if (int rc = check_stream(corpus.name, *mutation, query, stats)) {
            std::printf("iteration: %ld (reproduce with --seed %llu)\n", i,
                        static_cast<unsigned long long>(seed0));
            return rc;
        }
        if (verbose && (i + 1) % 500 == 0) {
            std::printf("... %ld/%ld\n", i + 1, iterations);
        }
    }
    std::printf("fuzz_engine --ndjson: %ld stream mutants over %zu seeds OK\n"
                "  clean streams: %ld, streams with failed records: %ld\n",
                stats.mutants, corpora.size(), stats.still_valid,
                stats.rejected);
    return 0;
}

// ---------------------------------------------------------------------------
// Multi-query mutation mode: fused execution vs N independent runs.
// ---------------------------------------------------------------------------

int report_multi(const std::string& name, const Mutation& mutation,
                 const std::vector<std::string>& queries,
                 const std::string& configuration, const std::string& detail,
                 const std::string& document)
{
    std::string query_list;
    for (const std::string& q : queries) {
        query_list += (query_list.empty() ? "" : " | ") + q;
    }
    std::printf(
        "MULTI DISAGREEMENT\nseed: %s\nmutation: %s\nqueries: %s\n"
        "configuration: %s\nproblem: %s\ndocument (%zu bytes):\n%.*s\n",
        name.c_str(), mutation.description.c_str(), query_list.c_str(),
        configuration.c_str(), detail.c_str(), document.size(),
        static_cast<int>(document.size() > 2000 ? 2000 : document.size()),
        document.c_str());
    return 1;
}

/** The smallest product state cap that every single query of @p set
 *  compiles under: a fused engine built with it splits the set as far as
 *  bisection goes. @throws LimitError when one query alone exceeds the
 *  default cap. */
int split_state_cap(const multi::MultiQuery& set)
{
    int cap = 1;
    for (std::size_t d = 0; d < set.num_distinct(); ++d) {
        cap = std::max(cap, multi::QuerySetCompiler::compile(set, 1 << 15, d, d + 1)
                                .subset_states());
    }
    return cap;
}

/**
 * Checks one (possibly mutated) document under one fused query set: per
 * kernel tier and per leg — the set at the default state cap (one product
 * automaton) and split into parts by split_state_cap — the fused run must
 * agree with N independent runs: identical per-query match sets when
 * every independent run is ok, identical status class when every
 * independent run fails the same way. The two legs are thereby also
 * differentially checked against each other through the shared oracle.
 *
 * Detection asymmetry: an independent run in head-skip mode never observes
 * the root element, while the fused pass head-skips only on a label common
 * to EVERY query of a part — so the fused run may flag trailing content
 * that the independent head-skip runs are documented to miss. That one
 * outcome is tolerated; anything else the independent runs did not report
 * is a finding.
 */
int check_multi(const std::string& name, const Mutation& mutation,
                const std::vector<std::string>& queries, unsigned skip_bits,
                Stats& stats)
{
    PaddedString padded(mutation.document);
    bool any_head_skip = false;
    bool any_filter = false;
    for (const std::string& text : queries) {
        auto compiled = automaton::CompiledQuery::compile(text);
        any_head_skip =
            any_head_skip || compiled.head_skip_label().has_value();
        any_filter = any_filter || compiled.filter() != nullptr;
    }
    const multi::MultiQuery set = multi::MultiQuery::compile(queries);
    int cap = 0;
    try {
        cap = split_state_cap(set);
    } catch (const LimitError&) {
        stats.singleton_refused += 1;
        return 0;
    }
    stats.combinations |= 1U << skip_bits;
    for (simd::Level level : available_levels()) {
        const EngineOptions options = skip_combination(level, skip_bits);

        std::vector<EngineStatus> statuses;
        std::vector<std::vector<std::size_t>> expected;
        for (const std::string& text : queries) {
            DescendEngine engine(automaton::CompiledQuery::compile(text),
                                 options);
            OffsetSink sink;
            statuses.push_back(engine.run(padded, sink));
            expected.push_back(sink.offsets());
        }
        bool all_ok = true;
        bool all_same = true;
        for (const EngineStatus& status : statuses) {
            all_ok = all_ok && status.ok();
            all_same = all_same && status == statuses.front();
        }

        for (bool split_leg : {false, true}) {
            const multi::FusedEngine fused(set, options,
                                           split_leg ? cap : 1 << 15);
            const bool split = fused.parts().size() > 1;
            if (split_leg && !split) {
                continue;  // the set fits its largest query: no split leg
            }
            std::string configuration =
                "multi[" + describe(options) + "," +
                std::to_string(fused.parts().size()) + " part(s)]";
            multi::CollectingMultiSink sink(queries.size());
            EngineStatus fused_status = fused.run(padded, sink);

            if (all_ok) {
                if (!fused_status.ok()) {
                    if (options.head_skipping && any_head_skip &&
                        fused_status.code == StatusCode::kTrailingContent) {
                        continue;  // fused structural pass outsees head-skips
                    }
                    return report_multi(name, mutation, queries, configuration,
                                        "fused run failed where every "
                                        "independent run passed: " +
                                            to_string(fused_status),
                                        mutation.document);
                }
                if (sink.all() != expected) {
                    for (std::size_t q = 0; q < queries.size(); ++q) {
                        if (sink.all()[q] != expected[q]) {
                            return report_multi(
                                name, mutation, queries, configuration,
                                "query " + std::to_string(q) +
                                    " matches diverge: independent " +
                                    offsets_text(expected[q]) + " vs fused " +
                                    offsets_text(sink.all()[q]),
                                mutation.document);
                        }
                    }
                }
                stats.still_valid += 1;
                stats.split_legs += split ? 1 : 0;
                stats.filter_product_legs += any_filter ? 1 : 0;
            } else if (all_same) {
                // Every independent run rejects the document. The fused
                // pass must reject too — but the *offset* (and with it the
                // code picked among several defects) legitimately depends
                // on the skip pattern, and the fused pass walks regions the
                // single runs fast-forward over, so detection can land
                // earlier. Only the classification contract is shared:
                // non-ok, and never a resource limit unless the
                // independent runs reported one.
                if (fused_status.ok()) {
                    return report_multi(name, mutation, queries,
                                        configuration,
                                        "fused run accepted a document every "
                                        "independent run rejects (" +
                                            to_string(statuses.front()) + ")",
                                        mutation.document);
                }
                if (fused_status.is_limit() && !statuses.front().is_limit()) {
                    return report_multi(name, mutation, queries,
                                        configuration,
                                        "fused run misclassified damage as "
                                        "a resource limit: " +
                                            to_string(fused_status),
                                        mutation.document);
                }
                stats.rejected += 1;
                stats.split_legs += split ? 1 : 0;
                stats.filter_product_legs += any_filter ? 1 : 0;
            }
            // Mixed independent statuses (head-skip detection asymmetry):
            // no cross-engine expectation holds; skip.
        }
    }
    return 0;
}

/**
 * Adds a descendant query on a label the union alphabet's label table must
 * tell apart from the document's own: either one that shares a document
 * label's length and first and last 8 bytes and differs only in the middle
 * (for labels of 17+ bytes; the document label's own query comes along,
 * so both sit in one table), or a document label cut or padded to a length
 * on the hash's word boundaries (0, 7, 8, 9, 16, 17). @p near_misses
 * counts the middle-byte variants.
 */
void add_collision_queries(std::vector<std::string>& set,
                           const std::vector<std::string>& labels,
                           std::mt19937_64& rng, long& near_misses)
{
    static constexpr std::size_t kBoundaryLengths[] = {0, 7, 8, 9, 16, 17};
    std::string label = labels[rng() % labels.size()];
    if (label.size() >= 17 && rng() % 2 == 0) {
        set.push_back("$..['" + label + "']");
        std::size_t middle = 8 + rng() % (label.size() - 16);
        label[middle] = label[middle] == 'q' ? 'Q' : 'q';
        near_misses += 1;
    } else {
        label.resize(kBoundaryLengths[rng() % std::size(kBoundaryLengths)], '_');
    }
    set.push_back("$..['" + label + "']");
}

/**
 * A random subscription set of 2..64 queries: corpus-derived bases
 * extended with mutated shared prefixes and suffixes, so many queries
 * share a spine and fork near the leaf (the shape the product trie
 * factors), with verbatim duplicates mixed in (the dedup path), and the
 * collision axis (add_collision_queries).
 */
std::vector<std::string> random_query_set(const Corpus& corpus,
                                          std::mt19937_64& rng,
                                          long& near_misses)
{
    std::vector<std::string> set;
    const std::size_t n = 2 + rng() % 63;
    while (set.size() < n) {
        const std::string& base =
            corpus.queries[rng() % corpus.queries.size()];
        if (rng() % 5 == 0 && !corpus.labels.empty() &&
            set.size() + 2 <= n) {
            add_collision_queries(set, corpus.labels, rng, near_misses);
            continue;
        }
        switch (rng() % 4) {
        case 0:
            set.push_back(base);
            break;
        case 1:
            set.push_back(base + ".f" + std::to_string(rng() % 8));
            break;
        case 2:
            set.push_back(base + "..g" + std::to_string(rng() % 4));
            break;
        default:
            set.push_back("$.h" + std::to_string(rng() % 8) +
                          base.substr(1));
            break;
        }
    }
    return set;
}

int run_multi_mode(long iterations, std::uint64_t seed0, bool verbose)
{
    std::vector<Corpus> corpora;
    std::size_t target = 1500;
    for (const std::string& name : workloads::dataset_names()) {
        corpora.push_back(build_corpus(name, target));
        target = target >= 6000 ? 1500 : target + 600;
    }

    Stats stats;
    long near_misses = 0;
    // Pristine documents first: the full query set must already agree.
    for (const Corpus& corpus : corpora) {
        Mutation pristine{"none (pristine seed)", corpus.document};
        for (unsigned skip_bits : {31U, 15U}) {  // defaults, then - within
            if (int rc = check_multi(corpus.name, pristine, corpus.queries,
                                     skip_bits, stats)) {
                return rc;
            }
        }
    }
    for (long i = 0; i < iterations; ++i) {
        const Corpus& corpus =
            corpora[static_cast<std::size_t>(i) % corpora.size()];
        std::mt19937_64 rng(seed0 * 0x9E3779B97F4A7C15ull +
                            static_cast<std::uint64_t>(i) + 0xA5A5A5A5ull);
        std::optional<Mutation> mutation = mutate(corpus.document, rng);
        if (!mutation.has_value()) {
            continue;
        }
        stats.mutants += 1;
        // A random 2..64-subscription set built from the corpus queries
        // by shared-prefix/suffix mutation — child-wildcard and
        // descendant queries mix so skip decisions genuinely disagree, and
        // duplicates exercise the dedup path.
        std::vector<std::string> subset =
            random_query_set(corpus, rng, near_misses);
        const auto skip_bits = static_cast<unsigned>(rng() % 32);
        if (int rc = check_multi(corpus.name, *mutation, subset, skip_bits,
                                 stats)) {
            std::printf("iteration: %ld (reproduce with --seed %llu)\n", i,
                        static_cast<unsigned long long>(seed0));
            return rc;
        }
        if (verbose && (i + 1) % 500 == 0) {
            std::printf("... %ld/%ld\n", i + 1, iterations);
        }
    }
    std::printf("fuzz_engine --multi: %ld mutants over %zu seeds OK\n"
                "  parity-checked legs: ok %ld, uniformly rejected %ld; "
                "split legs checked: %ld; singleton parts refused (state "
                "cap): %ld; near-miss labels: %ld; skip-flag combinations "
                "run: %d/32\n",
                stats.mutants, corpora.size(), stats.still_valid,
                stats.rejected, stats.split_legs, stats.singleton_refused,
                near_misses, std::popcount(stats.combinations));
    return 0;
}

// ---------------------------------------------------------------------------
// Selector mode: extended-grammar queries (indices, slices, unions,
// filters) drawn by the random query generator against random well-formed
// documents of varied shape. Four streaming configurations at every kernel
// tier (one of them a skip-flag combination that cycles through all 32
// once every 32 iterations), plus the surfer baseline, must reproduce the DOM
// oracle's match set exactly; the same query sets also go through
// check_multi under the iteration's combination, so both fused legs are
// covered — filter-bearing sets included, which the summary counts.
// ---------------------------------------------------------------------------

int report_selectors(std::uint64_t seed, const std::string& query,
                     const std::string& configuration,
                     const std::string& detail, const std::string& document)
{
    std::printf(
        "SELECTOR DISAGREEMENT\nseed: %llu\nquery: %s\nconfiguration: %s\n"
        "problem: %s\ndocument (%zu bytes):\n%.*s\n",
        static_cast<unsigned long long>(seed), query.c_str(),
        configuration.c_str(), detail.c_str(), document.size(),
        static_cast<int>(document.size() > 2000 ? 2000 : document.size()),
        document.c_str());
    return 1;
}

int run_selectors_mode(long iterations, std::uint64_t seed0, bool verbose)
{
    long checked_queries = 0;
    long filter_queries = 0;
    long counter_queries = 0;
    long checked_sets = 0;
    std::uint32_t single_combinations = 0;
    Stats set_stats;
    for (long i = 0; i < iterations; ++i) {
        std::uint64_t seed = seed0 * 0x9E3779B97F4A7C15ull +
                             static_cast<std::uint64_t>(i) * 2654435761ull + 17;
        workloads::RandomJsonOptions options;
        options.seed = seed;
        options.max_depth = 4 + static_cast<int>(seed % 14);
        options.max_width = 3 + static_cast<int>(seed / 14 % 9);
        options.whitespace_chance = static_cast<unsigned>(seed / 126 % 60);
        options.nasty_string_chance = static_cast<unsigned>(seed / 7560 % 70);
        std::string document = workloads::random_json(options);
        PaddedString padded(document);
        // This iteration's skip-flag combination: consecutive iterations
        // take consecutive combinations, so any 32 of them cover all 32.
        const auto skip_bits =
            static_cast<unsigned>((seed0 + static_cast<std::uint64_t>(i)) % 32);
        single_combinations |= 1U << skip_bits;

        std::vector<std::string> queries;
        for (std::uint64_t q = 0; q < 3; ++q) {
            queries.push_back(workloads::random_query(
                seed * 131 + q * 7919 + 1, options.label_pool, 4,
                /*allow_indices=*/true, /*extended_selectors=*/true));
        }
        for (const std::string& text : queries) {
            query::Query parsed = query::Query::parse(text);
            filter_queries += parsed.filter() != nullptr ? 1 : 0;
            counter_queries += parsed.has_indices() ? 1 : 0;
            DomEngine oracle(parsed);
            std::vector<std::size_t> expected = oracle.offsets(padded);

            {
                SurferEngine surfer(automaton::CompiledQuery::compile(text));
                OffsetSink sink;
                EngineStatus status = surfer.run(padded, sink);
                if (!status.ok() || sink.offsets() != expected) {
                    return report_selectors(
                        seed, text, "surfer",
                        "expected " + offsets_text(expected) + " got " +
                            offsets_text(sink.offsets()) + " (" +
                            to_string(status) + ")",
                        document);
                }
            }
            for (simd::Level level : available_levels()) {
                // Defaults, no skips, defaults without within, this
                // iteration's.
                for (unsigned bits : {31U, 0U, 15U, skip_bits}) {
                    EngineOptions eopts = skip_combination(level, bits);
                    DescendEngine engine(
                        automaton::CompiledQuery::compile(text), eopts);
                    OffsetSink sink;
                    EngineStatus status = engine.run(padded, sink);
                    if (!status.ok() || sink.offsets() != expected) {
                        return report_selectors(
                            seed, text, describe(eopts),
                            "expected " + offsets_text(expected) + " got " +
                                offsets_text(sink.offsets()) + " (" +
                                to_string(status) + ")",
                            document);
                    }
                }
            }
            checked_queries += 1;
        }

        // Both fused legs against independent runs on the same set.
        Mutation pristine{"none (random selector document)", document};
        if (int rc = check_multi("selectors-" + std::to_string(seed),
                                 pristine, queries, skip_bits, set_stats)) {
            std::printf("iteration: %ld (reproduce with --seed %llu)\n", i,
                        static_cast<unsigned long long>(seed0));
            return rc;
        }
        checked_sets += 1;
        if (verbose && (i + 1) % 500 == 0) {
            std::printf("... %ld/%ld\n", i + 1, iterations);
        }
    }
    std::printf(
        "fuzz_engine --selectors: %ld iterations OK\n"
        "  single-query runs: %ld (with filters %ld, with counters %ld); "
        "fused sets: %ld\n"
        "  filter-set product legs checked: %ld; split legs checked: %ld; "
        "singleton parts refused (state cap): %ld\n"
        "  skip-flag combinations run: single-query %d/32, fused %d/32\n",
        iterations, checked_queries, filter_queries, counter_queries,
        checked_sets, set_stats.filter_product_legs, set_stats.split_legs,
        set_stats.singleton_refused, std::popcount(single_combinations),
        std::popcount(set_stats.combinations));
    return 0;
}

// ---------------------------------------------------------------------------
// Fault-injection mode: randomized failpoint arming against well-formed
// documents (requires a DESCEND_FAULT=ON build; a no-op exit otherwise).
//
// Each iteration arms the batch-refill failpoint one-shot at a random refill
// index with a random forced StatusCode, then runs one of the three
// execution paths (single engine, fused multi-query, sharded stream) on a
// pristine document and checks the failure contract:
//
//  - if the one-shot fired, the run's status is exactly the forced code,
//    with an in-bounds offset — never a success with a silently truncated
//    match set, never a different code (the first-status-wins latch must
//    protect the interrupt from downstream misclassification);
//  - if the run finished before the armed refill, the status is ok — an
//    armed-but-unfired failpoint must be entirely invisible.
//
// Stream iterations additionally arm a random worker-startup stall, and use
// the one-shot guarantee as an invariant: at most one record can fail, and
// failed_records must equal the fired count exactly.
// ---------------------------------------------------------------------------

int report_fault(const std::string& name, const std::string& configuration,
                 const std::string& detail)
{
    std::printf("FAULT DISAGREEMENT\nseed: %s\nconfiguration: %s\nproblem: %s\n",
                name.c_str(), configuration.c_str(), detail.c_str());
    fault::disarm_all();
    return 1;
}

int run_faults_mode(long iterations, std::uint64_t seed0, bool verbose)
{
    if (!fault::kEnabled) {
        std::printf(
            "fuzz_engine --faults: built with DESCEND_FAULT=OFF; failpoints "
            "are compiled out, nothing to inject\n");
        return 0;
    }

    std::vector<Corpus> corpora;
    std::size_t target = 1800;
    for (const std::string& name : workloads::dataset_names()) {
        corpora.push_back(build_corpus(name, target));
        target = target >= 6000 ? 1800 : target + 800;
    }
    // NDJSON stream per dataset for the executor iterations.
    std::vector<std::string> streams;
    for (const Corpus& corpus : corpora) {
        std::string text;
        for (std::size_t i = 0; i < 6; ++i) {
            text += workloads::generate(corpus.name, 300 + i * 170);
            text += '\n';
        }
        streams.push_back(text);
    }
    const StatusCode forced_codes[] = {StatusCode::kDeadlineExceeded,
                                       StatusCode::kCancelled,
                                       StatusCode::kUnbalancedStructure};
    std::vector<EngineOptions> configurations = descend_configurations();

    long fired_total = 0;
    long clean_total = 0;
    for (long i = 0; i < iterations; ++i) {
        std::size_t which = static_cast<std::size_t>(i) % corpora.size();
        const Corpus& corpus = corpora[which];
        std::mt19937_64 rng(seed0 * 0x9E3779B97F4A7C15ull +
                            static_cast<std::uint64_t>(i) + 0xFA177ull);
        StatusCode forced = forced_codes[rng() % 3];
        EngineOptions options = configurations[pick(rng, configurations.size())];

        fault::disarm_all();
        switch (rng() % 3) {
            case 0: {  // single engine
                PaddedString padded(corpus.document);
                std::size_t refills =
                    corpus.document.size() / simd::kBatchSize + 2;
                fault::arm(fault::Site::kBatchRefill, pick(rng, refills + 4),
                           static_cast<std::uint64_t>(forced));
                const std::string& query =
                    corpus.queries[pick(rng, corpus.queries.size())];
                DescendEngine engine(automaton::CompiledQuery::compile(query),
                                     options);
                OffsetSink sink;
                EngineStatus status = engine.run(padded, sink);
                bool fired = fault::fired_count(fault::Site::kBatchRefill) > 0;
                std::string configuration =
                    "descend[" + describe(options) + "] query " + query;
                if (fired) {
                    ++fired_total;
                    if (status.code != forced) {
                        return report_fault(
                            corpus.name, configuration,
                            "fired failpoint (forced " +
                                std::string(status_name(forced)) +
                                ") surfaced as " + to_string(status));
                    }
                    if (status.offset > padded.size()) {
                        return report_fault(corpus.name, configuration,
                                            "fired failpoint offset out of "
                                            "bounds: " +
                                                to_string(status));
                    }
                } else {
                    ++clean_total;
                    if (!status.ok()) {
                        return report_fault(
                            corpus.name, configuration,
                            "armed-but-unfired failpoint changed the "
                            "verdict: " +
                                to_string(status));
                    }
                }
                break;
            }
            case 1: {  // fused multi-query
                PaddedString padded(corpus.document);
                std::size_t refills =
                    corpus.document.size() / simd::kBatchSize + 2;
                fault::arm(fault::Site::kBatchRefill, pick(rng, refills + 4),
                           static_cast<std::uint64_t>(forced));
                std::unique_ptr<multi::FusedEngine> fused =
                    multi::make_fused_engine(
                        multi::MultiQuery::compile(corpus.queries), options);
                multi::CollectingMultiSink sink(corpus.queries.size());
                EngineStatus status = fused->run(padded, sink);
                bool fired = fault::fired_count(fault::Site::kBatchRefill) > 0;
                std::string configuration = "multi[" + describe(options) + "]";
                if (fired) {
                    ++fired_total;
                    if (status.code != forced) {
                        return report_fault(
                            corpus.name, configuration,
                            "fired failpoint (forced " +
                                std::string(status_name(forced)) +
                                ") surfaced as " + to_string(status));
                    }
                } else {
                    ++clean_total;
                    if (!status.ok()) {
                        return report_fault(
                            corpus.name, configuration,
                            "armed-but-unfired failpoint changed the "
                            "verdict: " +
                                to_string(status));
                    }
                }
                break;
            }
            default: {  // sharded stream executor
                const std::string& text = streams[which];
                PaddedString padded(text);
                std::size_t spans = reference_split(text).size();
                // Enough skip range that the shot often lands mid-stream
                // and sometimes not at all.
                std::size_t refills = text.size() / simd::kBatchSize + 8;
                fault::arm(fault::Site::kBatchRefill, pick(rng, refills),
                           static_cast<std::uint64_t>(forced));
                if (rng() % 2 == 0) {
                    fault::arm(fault::Site::kWorkerStartup, 0, rng() % 3);
                }
                stream::StreamOptions stream_options;
                stream_options.threads = 1 + pick(rng, 3);
                stream_options.records_per_batch = 1 + pick(rng, 3);
                stream_options.engine = options;
                stream::StreamExecutor executor(
                    automaton::CompiledQuery::compile("$..id"), stream_options);
                stream::CollectingStreamSink sink;
                stream::StreamResult result = executor.run(padded, sink);
                std::uint64_t fired =
                    fault::fired_count(fault::Site::kBatchRefill);
                std::string configuration =
                    "stream[threads=" + std::to_string(stream_options.threads) +
                    "," + describe(options) + "]";
                if (result.records != spans) {
                    return report_fault(corpus.name, configuration,
                                        "record count diverges from the "
                                        "reference splitter under faults");
                }
                if (result.failed_records != fired) {
                    return report_fault(
                        corpus.name, configuration,
                        "one-shot failpoint fired " + std::to_string(fired) +
                            " time(s) but " +
                            std::to_string(result.failed_records) +
                            " record(s) failed");
                }
                if (fired > 0) {
                    ++fired_total;
                    if (sink.errors().size() != 1 ||
                        sink.errors().front().status.code != forced) {
                        return report_fault(
                            corpus.name, configuration,
                            "fired failpoint (forced " +
                                std::string(status_name(forced)) +
                                ") did not surface as the failing record's "
                                "error");
                    }
                } else {
                    ++clean_total;
                }
                break;
            }
        }
        if (verbose && (i + 1) % 500 == 0) {
            std::printf("... %ld/%ld\n", i + 1, iterations);
        }
    }
    fault::disarm_all();
    std::printf("fuzz_engine --faults: %ld injected runs over %zu seeds OK\n"
                "  failpoint fired: %ld, armed but unfired: %ld\n",
                iterations, corpora.size(), fired_total, clean_total);
    return 0;
}

// ---------------------------------------------------------------------------
// Serve-frame mutation mode: the daemon's wire path under hostile bytes.
//
// Mirrors exactly what the server does per connection: an incremental
// FrameReader fed in arbitrary chunks or, mid-body, written straight into
// its receive_target() and commit()ted (the server's recv() into the
// body), take_request() on kReady, then Dispatcher::handle() on the
// received request — with a shared QueryCache and a reused RunScratch,
// like one worker thread. The contract under ANY byte sequence:
//
//  - no crash, no exception escaping the dispatch path;
//  - a reader error is a valid in-range ServeStatus (never kOk) and is
//    sticky across further feeds (the poisoned-connection invariant);
//  - every decoded request produces a response whose serve_status is
//    in-range, and whose encoding survives a decode_response round trip
//    (what a real client would receive and parse);
//  - an unmutated frame must decode to exactly the encoded fields, query
//    and body bytes, with the body 64-byte aligned and space-padded, and
//    dispatch with ServeStatus::kOk or kBadQuery (some generated queries
//    are deliberately invalid); so must both of two unmutated frames sent
//    back to back (the first body's fill must stop at its length);
//  - an unmutated frame cut inside its body must end in finish() ==
//    kError with kTruncatedFrame (an open body is an incomplete frame).
// ---------------------------------------------------------------------------

int report_frames(long iteration, const std::string& detail)
{
    std::printf("SERVE-FRAME DISAGREEMENT\niteration: %ld\nproblem: %s\n",
                iteration, detail.c_str());
    return 1;
}

/** The exact-bytes oracle for an unmutated frame: empty when @p decoded
 *  carries @p original's fields and bytes in a conforming padded body. */
std::string check_received(const serve::ReceivedRequest& decoded,
                           const serve::Request& original)
{
    const serve::Request& fields = decoded.request;
    if (fields.mode != original.mode || fields.flags != original.flags ||
        fields.deadline_ms != original.deadline_ms ||
        fields.max_depth != original.max_depth ||
        fields.max_matches != original.max_matches) {
        return "decoded header fields differ from the frame's";
    }
    if (fields.query != original.query || !fields.body.empty()) {
        return "decoded query differs from the frame's bytes";
    }
    const PaddedString& body = decoded.body;
    if (body.view() != original.body) {
        return "decoded body differs from the frame's bytes";
    }
    if (reinterpret_cast<std::uintptr_t>(body.data()) % 64 != 0) {
        return "decoded body is not 64-byte aligned";
    }
    for (std::size_t i = 0; i < PaddedString::kPadding; ++i) {
        if (body.data()[body.size() + i] != ' ') {
            return "decoded body's padding is not spaces";
        }
    }
    return {};
}

/** One worker's view of a connection: chunked feed or in-place receive,
 *  dispatch on ready. Each request of @p originals (the unmutated frames
 *  on the wire, in order; none for a mutated wire) must come back byte for
 *  byte; with @p cut_in_body the wire ends inside the last frame's body,
 *  which finish() must report as kTruncatedFrame. Returns empty when the
 *  connection keeps the contract, else a problem description. */
template <typename Rng>
std::string drive_connection(const std::vector<std::uint8_t>& wire,
                             const std::vector<serve::Request>& originals,
                             bool cut_in_body, serve::Dispatcher& dispatcher,
                             RunScratch& scratch, Rng& rng, bool& dispatched)
{
    serve::FrameReader reader;
    std::size_t fed = 0;
    std::size_t decoded_originals = 0;
    dispatched = false;
    while (fed < wire.size()) {
        std::size_t chunk = 1 + pick(rng, 997);
        chunk = std::min(chunk, wire.size() - fed);
        // Mid-body, the server recv()s straight into the body's tail.
        const std::span<std::uint8_t> target = reader.receive_target();
        if (decoded_originals < originals.size() &&
            target.size() > originals[decoded_originals].body.size()) {
            return "receive_target() is larger than the frame's body";
        }
        serve::FrameReader::State state;
        if (!target.empty() && rng() % 2 == 0) {
            chunk = std::min(chunk, target.size());
            std::memcpy(target.data(), wire.data() + fed, chunk);
            state = reader.commit(chunk);
        } else {
            state = reader.feed(wire.data() + fed, chunk);
        }
        fed += chunk;
        if (state == serve::FrameReader::State::kError) {
            serve::ServeStatus error = reader.error();
            if (static_cast<std::size_t>(error) >= serve::kServeStatusCount ||
                error == serve::ServeStatus::kOk) {
                return "reader error is not a valid non-ok ServeStatus";
            }
            // Sticky: more bytes (even a pristine frame) must not revive it.
            std::vector<std::uint8_t> valid = serve::encode_request({});
            if (reader.feed(valid.data(), valid.size()) !=
                    serve::FrameReader::State::kError ||
                reader.error() != error) {
                return "reader error is not sticky across further feeds";
            }
            return {};
        }
        while (reader.state() == serve::FrameReader::State::kReady) {
            serve::ReceivedRequest request = reader.take_request();
            if (decoded_originals < originals.size()) {
                std::string problem =
                    check_received(request, originals[decoded_originals]);
                if (!problem.empty()) {
                    return "frame " + std::to_string(decoded_originals) +
                           ": " + problem;
                }
                ++decoded_originals;
            }
            serve::Response response;
            try {
                response = dispatcher.handle(request, scratch);
            } catch (const std::exception& e) {
                return std::string("dispatcher threw: ") + e.what();
            }
            dispatched = true;
            if (static_cast<std::size_t>(response.serve_status) >=
                serve::kServeStatusCount) {
                return "response serve_status out of range";
            }
            // What a client receives must decode back to the same verdict.
            std::vector<std::uint8_t> encoded =
                serve::encode_response(response);
            serve::Response decoded;
            std::size_t consumed = 0;
            if (!serve::decode_response(encoded.data(), encoded.size(),
                                        decoded, consumed) ||
                consumed != encoded.size() ||
                decoded.serve_status != response.serve_status ||
                decoded.engine_status.code != response.engine_status.code ||
                decoded.match_count != response.match_count ||
                decoded.offsets != response.offsets) {
                return "response does not survive an encode/decode round trip";
            }
        }
    }
    // End-of-input: an incomplete buffered frame must surface as exactly
    // kTruncatedFrame, never anything else.
    serve::FrameReader::State state = reader.finish();
    if (state == serve::FrameReader::State::kError &&
        reader.error() != serve::ServeStatus::kTruncatedFrame) {
        return "finish() on a partial frame is not kTruncatedFrame";
    }
    if (cut_in_body && state != serve::FrameReader::State::kError) {
        return "finish() accepted a frame cut inside its body";
    }
    if (decoded_originals != originals.size()) {
        return "decoded " + std::to_string(decoded_originals) + " of " +
               std::to_string(originals.size()) + " unmutated frames";
    }
    return {};
}

int run_serve_frames_mode(long iterations, std::uint64_t seed0, bool verbose)
{
    // Seed material: documents of several sizes, valid and invalid queries,
    // all three modes, governance fields included.
    std::vector<std::string> documents;
    for (const std::string& name :
         {std::string("bestbuy"), std::string("twitter_small")}) {
        documents.push_back(workloads::generate(name, 600));
        documents.push_back(workloads::generate(name, 4000));
    }
    documents.push_back("");
    documents.push_back("{\"a\": 1}\n{\"a\": 2}\n{\"a\": [3]}\n");
    const char* queries[] = {"$..a",       "$.products.*.sku",
                             "$.*",        "$..a\n$..b",
                             "$.[broken",  "",
                             "not a query"};

    serve::QueryCache cache(32, 4);
    serve::Dispatcher dispatcher(serve::ServePolicy{}, cache);
    RunScratch scratch;

    long mutants = 0;
    long dispatched_total = 0;
    long rejected_total = 0;
    long exact_total = 0;
    long cut_total = 0;
    for (long i = 0; i < iterations; ++i) {
        std::mt19937_64 rng(seed0 * 0x9E3779B97F4A7C15ull +
                            static_cast<std::uint64_t>(i) + 0x5EF7Eull);
        serve::Request request;
        request.mode = static_cast<serve::RequestMode>(rng() % 4);  // 3 = bad
        request.flags = static_cast<std::uint32_t>(rng() % 4);
        request.deadline_ms = rng() % 3 == 0 ? 1 + pick(rng, 100000) : 0;
        request.max_depth = rng() % 3 == 0 ? 1 + pick(rng, 64) : 0;
        request.max_matches = rng() % 3 == 0 ? 1 + pick(rng, 1000) : 0;
        request.query = queries[pick(rng, std::size(queries))];
        request.body = documents[pick(rng, documents.size())];
        std::vector<std::uint8_t> wire = serve::encode_request(request);
        auto valid_mode = [&] {
            return static_cast<serve::RequestMode>(rng() % 3);
        };

        // The unmutated frames on the wire, which must decode byte-exact.
        std::vector<serve::Request> originals;
        bool cut_in_body = false;
        switch (rng() % 10) {
            case 0:  // unmutated: must decode and dispatch
                if (static_cast<std::uint16_t>(request.mode) < 3) {
                    originals.push_back(request);
                }
                break;
            case 1: {  // flip one random byte
                std::size_t at = pick(rng, wire.size());
                wire[at] ^= static_cast<std::uint8_t>(1 + pick(rng, 255));
                break;
            }
            case 2:  // truncate at a random point
                wire.resize(pick(rng, wire.size()));
                break;
            case 3: {  // corrupt 4 bytes at a random offset (length fields)
                std::size_t at = pick(rng, wire.size() > 4 ? wire.size() - 4 : 1);
                for (int b = 0; b < 4 && at + static_cast<std::size_t>(b) <
                                             wire.size(); ++b) {
                    wire[at + static_cast<std::size_t>(b)] =
                        static_cast<std::uint8_t>(rng());
                }
                break;
            }
            case 4: {  // splice: a second frame appended (pipelining), the
                       // pair optionally cut mid-second-frame
                serve::Request second;
                second.query = "$..b";
                second.body = "{\"b\": 1}";
                std::vector<std::uint8_t> tail = serve::encode_request(second);
                wire.insert(wire.end(), tail.begin(), tail.end());
                if (rng() % 2 == 0) {
                    wire.resize(wire.size() - 1 - pick(rng, tail.size()));
                }
                break;
            }
            case 5: {  // pure garbage
                wire.assign(1 + pick(rng, 4096), 0);
                for (std::uint8_t& byte : wire) {
                    byte = static_cast<std::uint8_t>(rng());
                }
                break;
            }
            case 6: {  // giant lengths in an otherwise valid header
                std::uint64_t huge =
                    (std::uint64_t{1} << (20 + pick(rng, 44)));
                std::size_t field = rng() % 2 == 0 ? 28 : 36;  // query/body len
                for (int b = 0; b < (field == 28 ? 4 : 8); ++b) {
                    wire[field + static_cast<std::size_t>(b)] =
                        static_cast<std::uint8_t>(huge >> (8 * b));
                }
                wire.resize(serve::kRequestHeaderSize);
                break;
            }
            case 7:  // nonzero reserved field
                wire[32 + pick(rng, 4)] = static_cast<std::uint8_t>(1 + rng() % 255);
                break;
            case 8: {  // two unmutated frames back to back: both exact
                serve::Request second;
                second.mode = valid_mode();
                second.query = queries[pick(rng, std::size(queries))];
                second.body = documents[pick(rng, documents.size())];
                request.mode = valid_mode();
                wire = serve::encode_request(request);
                std::vector<std::uint8_t> tail = serve::encode_request(second);
                wire.insert(wire.end(), tail.begin(), tail.end());
                originals = {request, second};
                break;
            }
            default:  // an unmutated frame cut at a byte inside its body
                if (request.body.empty()) {
                    break;
                }
                request.mode = valid_mode();
                wire = serve::encode_request(request);
                wire.resize(wire.size() - request.body.size() +
                            pick(rng, request.body.size()));
                cut_in_body = true;
                break;
        }

        mutants += 1;
        bool dispatched = false;
        std::string problem = drive_connection(wire, originals, cut_in_body,
                                               dispatcher, scratch, rng,
                                               dispatched);
        if (!problem.empty()) {
            std::printf("(reproduce with --serve-frames and --seed %llu)\n",
                        static_cast<unsigned long long>(seed0));
            return report_frames(i, problem);
        }
        if (!originals.empty() && !dispatched) {
            return report_frames(i, "pristine frame failed to dispatch");
        }
        exact_total += static_cast<long>(originals.size());
        cut_total += cut_in_body ? 1 : 0;
        dispatched_total += dispatched ? 1 : 0;
        rejected_total += dispatched ? 0 : 1;
        if (verbose && (i + 1) % 1000 == 0) {
            std::printf("... %ld/%ld\n", i + 1, iterations);
        }
    }
    serve::CacheStats cache_stats = cache.stats();
    std::printf(
        "fuzz_engine --serve-frames: %ld frame mutants OK\n"
        "  dispatched: %ld, rejected pre-dispatch: %ld; unmutated frames "
        "decoded byte-exact: %ld; cut inside the body: %ld; cache %llu "
        "hits / %llu misses\n",
        mutants, dispatched_total, rejected_total, exact_total, cut_total,
        static_cast<unsigned long long>(cache_stats.hits),
        static_cast<unsigned long long>(cache_stats.misses));
    return 0;
}

// ---------------------------------------------------------------------------
// Projection mutation mode: span extension and the sink family under
// mutated documents.
//
// On mutants the DOM parser still accepts, the contract is exact: every
// match offset's SpanExtender::extend() must equal the scalar oracle
// (extend_value_span / extract_value) at every kernel tier, engine-driven
// SliceSink output must be byte-identical to DOM extraction, and the
// NDJSON sink must emit exactly one line per value. On mutants the DOM
// rejects there is no value contract, but there IS a safety one: span
// extension from arbitrary plausible offsets (every opener/quote byte in
// the damaged document) must stay within the view — never scan past the
// logical end, never crash (run under the asan preset for full effect) —
// because the CLI and daemon extend offsets reported *before* an engine
// detected the damage.
// ---------------------------------------------------------------------------

int report_project(const std::string& name, const Mutation& mutation,
                   const std::string& query, const std::string& configuration,
                   const std::string& detail, const std::string& document)
{
    std::printf(
        "PROJECTION DISAGREEMENT\nseed: %s\nmutation: %s\nquery: %s\n"
        "configuration: %s\nproblem: %s\ndocument (%zu bytes):\n%.*s\n",
        name.c_str(), mutation.description.c_str(), query.c_str(),
        configuration.c_str(), detail.c_str(), document.size(),
        static_cast<int>(document.size() > 2000 ? 2000 : document.size()),
        document.c_str());
    return 1;
}

int check_projection(const Corpus& corpus, const Mutation& mutation,
                     const std::string& query_text, Stats& stats)
{
    const std::string& document = mutation.document;
    PaddedString padded(document);
    DomEngine dom(query::Query::parse(query_text));
    OffsetSink dom_sink;
    const bool accepted = dom.run(padded, dom_sink).ok();

    for (simd::Level level : available_levels()) {
        std::string configuration =
            std::string("project[") + simd::level_name(level) + "]";
        project::SpanExtender extender(padded, simd::kernels_for(level));

        if (!accepted) {
            // Safety sweep: extend from every byte that could plausibly be
            // handed to the extender by a pre-damage match report. Spans
            // must stay inside the view; under asan this also proves no
            // read strays past it.
            for (std::size_t at :
                 positions_of(document, "{[\"0123456789tfn-")) {
                project::ValueSpan span = extender.extend(at);
                if (span.end > padded.size() || span.begin > span.end) {
                    return report_project(
                        corpus.name, mutation, query_text, configuration,
                        "span [" + std::to_string(span.begin) + "," +
                            std::to_string(span.end) +
                            ") leaves the view (size " +
                            std::to_string(padded.size()) + ") from offset " +
                            std::to_string(at),
                        document);
                }
            }
            continue;
        }

        // Exact differential: batched extension == the scalar oracle, for
        // every match the DOM reports.
        for (std::size_t offset : dom_sink.offsets()) {
            project::ValueSpan expected =
                project::extend_value_span(padded, offset);
            project::ValueSpan got = extender.extend(offset);
            if (got != expected) {
                return report_project(
                    corpus.name, mutation, query_text, configuration,
                    "span diverges from the scalar oracle at offset " +
                        std::to_string(offset) + ": expected [" +
                        std::to_string(expected.begin) + "," +
                        std::to_string(expected.end) + "), got [" +
                        std::to_string(got.begin) + "," +
                        std::to_string(got.end) + ")",
                    document);
            }
        }

        // Engine-driven sinks: slices byte-identical to DOM extraction,
        // NDJSON one line per value.
        EngineOptions options;
        options.simd = level;
        DescendEngine engine(automaton::CompiledQuery::compile(query_text),
                             options);
        project::SliceSink slices;
        project::ProjectingMatchSink slice_sink(extender, slices);
        if (!engine.run(padded, slice_sink).ok()) {
            continue;  // grammar-level damage the DOM tolerates; no contract
        }
        std::vector<std::string_view> expected_values =
            extract_values(padded, dom_sink.offsets());
        if (slices.slices().size() != expected_values.size()) {
            return report_project(
                corpus.name, mutation, query_text, configuration,
                "slice count diverges: dom " +
                    std::to_string(expected_values.size()) + " vs " +
                    std::to_string(slices.slices().size()),
                document);
        }
        for (std::size_t v = 0; v < expected_values.size(); ++v) {
            if (slices.slices()[v] != expected_values[v]) {
                return report_project(
                    corpus.name, mutation, query_text, configuration,
                    "slice " + std::to_string(v) +
                        " is not byte-identical to DOM extraction",
                    document);
            }
        }
        std::ostringstream ndjson_out;
        project::NdjsonSink ndjson(ndjson_out);
        project::project_all(extender, dom_sink.offsets(), ndjson);
        if (ndjson.lines() != expected_values.size()) {
            return report_project(
                corpus.name, mutation, query_text, configuration,
                "ndjson line count diverges: " +
                    std::to_string(ndjson.lines()) + " lines for " +
                    std::to_string(expected_values.size()) + " values",
                document);
        }
    }
    if (accepted) {
        stats.still_valid += 1;
    } else {
        stats.rejected += 1;
    }
    return 0;
}

int run_project_mode(long iterations, std::uint64_t seed0, bool verbose)
{
    std::vector<Corpus> corpora;
    std::size_t target = 1800;
    for (const std::string& name : workloads::dataset_names()) {
        corpora.push_back(build_corpus(name, target));
        target = target >= 6000 ? 1800 : target + 700;
    }

    Stats stats;
    // Pristine seeds first: every query's projection must already agree.
    for (const Corpus& corpus : corpora) {
        Mutation pristine{"none (pristine seed)", corpus.document};
        for (const std::string& query : corpus.queries) {
            if (int rc = check_projection(corpus, pristine, query, stats)) {
                return rc;
            }
        }
    }
    for (long i = 0; i < iterations; ++i) {
        const Corpus& corpus =
            corpora[static_cast<std::size_t>(i) % corpora.size()];
        std::mt19937_64 rng(seed0 * 0x9E3779B97F4A7C15ull +
                            static_cast<std::uint64_t>(i) + 0x9407EC7ull);
        std::optional<Mutation> mutation = mutate(corpus.document, rng);
        if (!mutation.has_value()) {
            continue;
        }
        stats.mutants += 1;
        const std::string& query =
            corpus.queries[pick(rng, corpus.queries.size())];
        if (int rc = check_projection(corpus, *mutation, query, stats)) {
            std::printf("iteration: %ld (reproduce with --seed %llu)\n", i,
                        static_cast<unsigned long long>(seed0));
            return rc;
        }
        if (verbose && (i + 1) % 500 == 0) {
            std::printf("... %ld/%ld\n", i + 1, iterations);
        }
    }
    std::printf(
        "fuzz_engine --project: %ld mutants over %zu seeds OK\n"
        "  differentially projected: %ld, safety-swept (rejected): %ld\n",
        stats.mutants, corpora.size(), stats.still_valid, stats.rejected);
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    long iterations = 10000;
    long ndjson_iterations = -1;
    long multi_iterations = -1;
    long selector_iterations = -1;
    long fault_iterations = -1;
    long serve_frame_iterations = -1;
    long project_iterations = -1;
    std::uint64_t seed0 = 1;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ndjson") == 0 && i + 1 < argc) {
            char* end = nullptr;
            ndjson_iterations = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || ndjson_iterations < 0) {
                std::fprintf(stderr, "fuzz_engine: bad --ndjson '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--multi") == 0 && i + 1 < argc) {
            char* end = nullptr;
            multi_iterations = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || multi_iterations < 0) {
                std::fprintf(stderr, "fuzz_engine: bad --multi '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--selectors") == 0 && i + 1 < argc) {
            char* end = nullptr;
            selector_iterations = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || selector_iterations < 0) {
                std::fprintf(stderr, "fuzz_engine: bad --selectors '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
            char* end = nullptr;
            fault_iterations = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || fault_iterations < 0) {
                std::fprintf(stderr, "fuzz_engine: bad --faults '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--serve-frames") == 0 && i + 1 < argc) {
            char* end = nullptr;
            serve_frame_iterations = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || serve_frame_iterations < 0) {
                std::fprintf(stderr, "fuzz_engine: bad --serve-frames '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--project") == 0 && i + 1 < argc) {
            char* end = nullptr;
            project_iterations = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || project_iterations < 0) {
                std::fprintf(stderr, "fuzz_engine: bad --project '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
            char* end = nullptr;
            iterations = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || iterations < 0) {
                std::fprintf(stderr, "fuzz_engine: bad --iterations '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            char* end = nullptr;
            seed0 = std::strtoull(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0') {
                std::fprintf(stderr, "fuzz_engine: bad --seed '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            verbose = true;
        } else {
            std::fprintf(stderr,
                         "usage: fuzz_engine [--iterations N] [--seed S] "
                         "[--verbose] | --ndjson N [--seed S] "
                         "| --multi N [--seed S] | --selectors N [--seed S] "
                         "| --faults N [--seed S] "
                         "| --serve-frames N [--seed S] "
                         "| --project N [--seed S]\n");
            return 2;
        }
    }
    if (ndjson_iterations >= 0) {
        return run_ndjson_mode(ndjson_iterations, seed0, verbose);
    }
    if (multi_iterations >= 0) {
        return run_multi_mode(multi_iterations, seed0, verbose);
    }
    if (selector_iterations >= 0) {
        return run_selectors_mode(selector_iterations, seed0, verbose);
    }
    if (fault_iterations >= 0) {
        return run_faults_mode(fault_iterations, seed0, verbose);
    }
    if (serve_frame_iterations >= 0) {
        return run_serve_frames_mode(serve_frame_iterations, seed0, verbose);
    }
    if (project_iterations >= 0) {
        return run_project_mode(project_iterations, seed0, verbose);
    }

    std::vector<Corpus> corpora;
    std::size_t target = 2048;
    for (const std::string& name : workloads::dataset_names()) {
        corpora.push_back(build_corpus(name, target));
        target = target >= 8192 ? 2048 : target + 700;
    }

    Stats stats;
    // Phase 1: pristine seeds must pass everything (sanity for the harness
    // itself), and truncation at *every* 64-byte block boundary — the
    // classifiers' resume points — must be flagged.
    for (const Corpus& corpus : corpora) {
        Mutation pristine{"none (pristine seed)", corpus.document};
        if (int rc = check_document(corpus, pristine, stats)) {
            return rc;
        }
        for (std::size_t cut = 64; cut < corpus.document.size(); cut += 64) {
            Mutation truncated{"truncate to " + std::to_string(cut) +
                                   " bytes (block boundary)",
                               corpus.document.substr(0, cut)};
            stats.mutants += 1;
            if (int rc = check_document(corpus, truncated, stats)) {
                return rc;
            }
        }
        if (verbose) {
            std::printf("seed %-14s %6zu bytes, %zu queries, ski: %s\n",
                        corpus.name.c_str(), corpus.document.size(),
                        corpus.queries.size(), corpus.ski_query.c_str());
        }
    }

    // Phase 2: random structural mutations, deterministic per iteration.
    for (long i = 0; i < iterations; ++i) {
        const Corpus& corpus = corpora[static_cast<std::size_t>(i) % corpora.size()];
        std::mt19937_64 rng(seed0 * 0x9E3779B97F4A7C15ull +
                            static_cast<std::uint64_t>(i));
        std::optional<Mutation> mutation = mutate(corpus.document, rng);
        if (!mutation.has_value()) {
            continue;
        }
        stats.mutants += 1;
        if (int rc = check_document(corpus, *mutation, stats)) {
            std::printf("iteration: %ld (reproduce with --seed %llu and this "
                        "iteration)\n",
                        i, static_cast<unsigned long long>(seed0));
            return rc;
        }
        if (verbose && (i + 1) % 1000 == 0) {
            std::printf("... %ld/%ld\n", i + 1, iterations);
        }
    }

    std::printf(
        "fuzz_engine: %ld mutants over %zu seeds OK\n"
        "  oracle classes: ok %ld, empty %ld, malformed %ld, trailing %ld, "
        "depth %ld\n"
        "  still-valid (full match comparison): %ld, rejected by contract: %ld\n",
        stats.mutants, corpora.size(), stats.per_class[0], stats.per_class[1],
        stats.per_class[2], stats.per_class[3], stats.per_class[4],
        stats.still_valid, stats.rejected);
    return 0;
}
