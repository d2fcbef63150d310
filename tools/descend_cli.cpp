/**
 * @file
 * descend-cli: run JSONPath queries over JSON files from the command line.
 *
 *   descend-cli [options] '<query>' [file...]
 *   descend-cli [options] --query Q1 --query Q2 ... [file...]
 *
 * Reads from stdin when no file is given. Options:
 *
 *   --count            print only the number of matches
 *   --offsets          print byte offsets instead of values
 *   --project MODE     materialize matched values through the projection
 *                      subsystem (src/descend/project) instead of the
 *                      scalar extractor:
 *                        slices  raw input slices, byte-verbatim (the
 *                                default printing, but spans are extended
 *                                with the SIMD mask walk)
 *                        ndjson  compact re-serialization, one value per
 *                                output line, no prefixes — pure NDJSON
 *                                on stdout (string escapes untouched)
 *                        count   extend every span but print only totals
 *                                ("values=N bytes=B"; the overhead
 *                                baseline used by bench_projection)
 *                      conflicts with --count and --offsets
 *   --limit N          print at most N results (default: all)
 *   --engine NAME      descend (default) | surfer | ski | dom
 *   --query Q          add a query to the set (repeatable). With more than
 *                      one query the descend engine compiles the whole set
 *                      into one product automaton and evaluates it in one
 *                      fused pass (a set past the state cap splits into
 *                      parts, one pass each); matches print as
 *                      "query Q: value"
 *   --queries FILE     add every query listed in FILE (one per line; blank
 *                      lines and lines starting with '#' are skipped)
 *   --simd LEVEL       kernel tier: scalar | avx2 | avx512 (default: best
 *                      supported; unavailable tiers fall back). Also
 *                      settable via the DESCEND_SIMD_LEVEL env var, which
 *                      acts as a cap on whatever is requested here.
 *   --scalar           shorthand for --simd scalar
 *   --no-head-skip     disable memmem head-skipping
 *   --within-skip      enable the within-element label skip extension
 *   --stats            print the JSON observability report to stderr
 *                      (counters, block attribution, phase timings — see
 *                      DESIGN.md §4.6; counters are live when the library
 *                      was built with DESCEND_OBS=ON, the default)
 *   --validate         strictly validate the input first (DOM parse)
 *   --ndjson           treat input as newline-delimited JSON: SIMD record
 *                      splitting + parallel sharded execution (descend
 *                      engine only); matches print as "record R: value"
 *   --threads N        worker threads for --ndjson (default: all cores)
 *   --fail-fast        with --ndjson, stop at the first malformed record
 *                      instead of skipping it and continuing
 *   --retry-scalar     with --ndjson, re-run each failed record on the
 *                      scalar kernel tier before reporting it (tier
 *                      divergences indicate a kernel bug and are counted
 *                      in the --stats report)
 *   --deadline-ms N    per-document/per-record run deadline; an expired
 *                      run stops at batch granularity with a "deadline
 *                      exceeded" status
 *   --stream-budget-ms N
 *                      with --ndjson, whole-stream budget: when it
 *                      expires the stream stops like a fail-fast floor at
 *                      the first unfinished record (deterministic for
 *                      every --threads value)
 *   --help             this text
 *
 * Exit codes:
 *   0  success
 *   1  internal or unclassified error
 *   2  usage error (bad flags or malformed query)
 *   3  malformed input document
 *   4  resource limit or governance stop (deadline / cancellation)
 *   5  file I/O error
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "descend/baselines/dom_engine.h"
#include "descend/baselines/ski_engine.h"
#include "descend/baselines/surfer_engine.h"
#include "descend/descend.h"
#include "descend/json/dom.h"
#include "descend/multi/multi_stream.h"

namespace {

using namespace descend;

struct CliOptions {
    /** The query set: one entry = the classic single-query paths; more =
     *  fused multi-query execution (descend engine only). */
    std::vector<std::string> queries;
    std::vector<std::string> files;
    std::string engine = "descend";
    bool count_only = false;
    bool offsets_only = false;
    bool stats = false;
    bool validate = false;
    bool ndjson = false;
    bool fail_fast = false;
    bool retry_scalar = false;
    std::uint64_t deadline_ms = 0;       // 0 = none
    std::uint64_t stream_budget_ms = 0;  // 0 = none
    std::size_t threads = 0;  // 0 = hardware concurrency
    std::size_t limit = 0;    // 0 = unlimited
    project::ProjectionMode project = project::ProjectionMode::kNone;
    EngineOptions engine_options;
};

void usage()
{
    std::fputs(
        "usage: descend-cli [options] '<query>' [file...]\n"
        "       descend-cli [options] --query Q1 --query Q2 ... [file...]\n"
        "  --count | --offsets | --limit N | --project slices|ndjson|count\n"
        "  --engine descend|surfer|ski|dom   --simd scalar|avx2|avx512 | --scalar\n"
        "  --query Q (repeatable) | --queries FILE   fused multi-query set\n"
        "  --no-head-skip | --within-skip | --stats | --validate\n"
        "  --ndjson [--threads N] [--fail-fast | --retry-scalar]\n"
        "  --deadline-ms N | --stream-budget-ms N   run governance\n"
        "exit codes: 0 ok, 1 error, 2 usage, 3 malformed input,\n"
        "            4 limit/deadline, 5 I/O\n",
        stderr);
}

bool parse_args(int argc, char** argv, CliOptions& options)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--count") {
            options.count_only = true;
        } else if (arg == "--offsets") {
            options.offsets_only = true;
        } else if (arg == "--stats") {
            options.stats = true;
        } else if (arg == "--validate") {
            options.validate = true;
        } else if (arg == "--ndjson") {
            options.ndjson = true;
        } else if (arg == "--fail-fast") {
            options.fail_fast = true;
        } else if (arg == "--retry-scalar") {
            options.retry_scalar = true;
        } else if (arg == "--deadline-ms") {
            if (++i >= argc) {
                return false;
            }
            options.deadline_ms = std::strtoull(argv[i], nullptr, 10);
        } else if (arg == "--stream-budget-ms") {
            if (++i >= argc) {
                return false;
            }
            options.stream_budget_ms = std::strtoull(argv[i], nullptr, 10);
        } else if (arg == "--threads") {
            if (++i >= argc) {
                return false;
            }
            options.threads = static_cast<std::size_t>(std::strtoull(argv[i], nullptr, 10));
        } else if (arg == "--scalar") {
            options.engine_options.simd = simd::Level::scalar;
        } else if (arg == "--simd" || arg.rfind("--simd=", 0) == 0) {
            const char* value = nullptr;
            if (arg == "--simd") {
                if (++i >= argc) {
                    return false;
                }
                value = argv[i];
            } else {
                value = arg.c_str() + std::strlen("--simd=");
            }
            if (!simd::parse_level(value, options.engine_options.simd)) {
                std::fprintf(stderr, "descend-cli: unknown SIMD level '%s'\n",
                             value);
                return false;
            }
        } else if (arg == "--project" || arg.rfind("--project=", 0) == 0) {
            const char* value = nullptr;
            if (arg == "--project") {
                if (++i >= argc) {
                    return false;
                }
                value = argv[i];
            } else {
                value = arg.c_str() + std::strlen("--project=");
            }
            if (!project::parse_projection_mode(value, options.project)) {
                std::fprintf(stderr,
                             "descend-cli: unknown projection mode '%s'\n",
                             value);
                return false;
            }
        } else if (arg == "--no-head-skip") {
            options.engine_options.head_skipping = false;
        } else if (arg == "--within-skip") {
            options.engine_options.label_within_skipping = true;
        } else if (arg == "--limit") {
            if (++i >= argc) {
                return false;
            }
            options.limit = static_cast<std::size_t>(std::strtoull(argv[i], nullptr, 10));
        } else if (arg == "--query") {
            if (++i >= argc) {
                return false;
            }
            options.queries.emplace_back(argv[i]);
        } else if (arg == "--queries") {
            if (++i >= argc) {
                return false;
            }
            std::ifstream file(argv[i]);
            if (!file) {
                std::fprintf(stderr, "descend-cli: cannot open queries file '%s'\n",
                             argv[i]);
                return false;
            }
            std::string line;
            while (std::getline(file, line)) {
                if (!line.empty() && line.back() == '\r') {
                    line.pop_back();
                }
                if (line.empty() || line[0] == '#') {
                    continue;
                }
                options.queries.push_back(line);
            }
        } else if (arg == "--engine") {
            if (++i >= argc) {
                return false;
            }
            options.engine = argv[i];
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "descend-cli: unknown option '%s'\n",
                         arg.c_str());
            return false;
        } else {
            positional.push_back(std::move(arg));
        }
    }
    if (options.queries.empty()) {
        // Classic form: the first positional is the query.
        if (positional.empty()) {
            return false;
        }
        options.queries.push_back(positional.front());
        options.files.assign(positional.begin() + 1, positional.end());
    } else {
        // Explicit --query/--queries: every positional is a file.
        options.files = std::move(positional);
    }
    return true;
}

/** Exit-code taxonomy (documented in usage()): malformed input is 3,
 *  resource limits and governance stops are 4. */
int exit_code_for(const EngineStatus& status)
{
    if (status.ok()) {
        return 0;
    }
    if (status.is_limit() || status.is_governance()) {
        return 4;
    }
    return 3;
}

/**
 * Prints projected values per --project mode: slices verbatim (with the
 * caller's line label), ndjson as bare compact lines, count as a trailing
 * totals line. Tallies feed the extender's obs registry; --limit applies
 * across every print() of one printer.
 */
struct ProjectionPrinter {
    const CliOptions& options;
    std::size_t shown = 0;
    std::size_t suppressed = 0;
    std::size_t values = 0;
    std::size_t bytes = 0;
    std::string scratch;

    explicit ProjectionPrinter(const CliOptions& options) : options(options) {}

    /** Applies --limit to one more output line: false (and tallied for
     *  the elision marker) once the limit is reached. */
    bool admit()
    {
        if (options.limit != 0 && shown >= options.limit) {
            ++suppressed;
            return false;
        }
        ++shown;
        return true;
    }

    /** One match at @p offset of @p extender's view; @p label prefixes
     *  slice lines ("query 0: " etc.), never ndjson lines. */
    void print(project::SpanExtender& extender, std::size_t offset,
               const char* label)
    {
        const project::ValueSpan span = extender.extend(offset);
        ++values;
        bytes += span.size();
        if (options.project == project::ProjectionMode::kCount || !admit()) {
            return;
        }
        const std::string_view slice = extender.slice(span);
        if (options.project == project::ProjectionMode::kNdjson) {
            scratch.clear();
            project::append_compact_value(slice, scratch);
            scratch.push_back('\n');
            std::fwrite(scratch.data(), 1, scratch.size(), stdout);
        } else {
            std::printf("%s%.*s\n", label, static_cast<int>(slice.size()),
                        slice.data());
        }
    }

    /** Trailing lines: the elision marker and the count-mode totals. */
    void finish(const char* label)
    {
        if (suppressed != 0) {
            std::printf("%s... (%zu more)\n", label, suppressed);
        }
        if (options.project == project::ProjectionMode::kCount) {
            std::printf("%svalues=%zu bytes=%zu\n", label, values, bytes);
        }
    }
};

std::unique_ptr<JsonPathEngine> make_engine(const CliOptions& options)
{
    const std::string& query = options.queries.front();
    if (options.engine == "descend") {
        return std::make_unique<DescendEngine>(
            automaton::CompiledQuery::compile(query), options.engine_options);
    }
    if (options.engine == "surfer") {
        return std::make_unique<SurferEngine>(
            automaton::CompiledQuery::compile(query),
            options.engine_options.limits, options.engine_options.budget);
    }
    if (options.engine == "ski") {
        return std::make_unique<SkiEngine>(query::Query::parse(query),
                                           options.engine_options.simd,
                                           options.engine_options.limits,
                                           options.engine_options.budget);
    }
    if (options.engine == "dom") {
        return std::make_unique<DomEngine>(query::Query::parse(query),
                                           options.engine_options.limits,
                                           options.engine_options.budget);
    }
    throw Error("unknown engine: " + options.engine);
}

PaddedString read_stdin()
{
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return PaddedString(buffer.str());
}

int run_on(const CliOptions& options, const JsonPathEngine& engine,
           const std::string& source_name, const PaddedString& document,
           std::uint64_t compile_ns)
{
    if (options.validate) {
        json::ParseOptions parse_options;
        parse_options.max_depth = 1 << 16;
        json::parse(document.view(), parse_options);  // throws on bad input
    }
    const char* prefix = options.files.size() > 1 ? source_name.c_str() : "";
    const char* separator = options.files.size() > 1 ? ": " : "";

    if (options.count_only && !options.stats) {
        CountSink count_sink;
        EngineStatus count_status = engine.run(document, count_sink);
        if (!count_status.ok()) {
            std::fprintf(stderr, "descend-cli: %s%s%s\n", prefix, separator,
                         to_string(count_status).c_str());
            return exit_code_for(count_status);
        }
        std::printf("%s%s%zu\n", prefix, separator, count_sink.count());
        return 0;
    }
    OffsetSink sink;
    RunStats stats;
    if (const auto* descend_engine = dynamic_cast<const DescendEngine*>(&engine)) {
        stats = descend_engine->run_with_stats(document, sink);
    } else {
        stats.status = engine.run(document, sink);
    }
    if (!stats.status.ok()) {
        std::fprintf(stderr, "descend-cli: %s%s%s\n", prefix, separator,
                     to_string(stats.status).c_str());
        return exit_code_for(stats.status);
    }
    if (options.count_only) {
        std::printf("%s%s%zu\n", prefix, separator, sink.offsets().size());
    } else if (options.project != project::ProjectionMode::kNone) {
        obs::ScopedPhaseTimer extract_timer(&stats.timings, obs::Phase::kExtract);
        const simd::Kernels& kernels =
            simd::kernels_for(options.engine_options.simd);
        project::SpanExtender extender(document, kernels, &stats.counters);
        ProjectionPrinter printer(options);
        const std::string label = std::string(prefix) + separator;
        for (std::size_t offset : sink.offsets()) {
            printer.print(extender, offset, label.c_str());
        }
        printer.finish(label.c_str());
    } else {
        obs::ScopedPhaseTimer extract_timer(&stats.timings, obs::Phase::kExtract);
        std::size_t shown = 0;
        for (std::size_t offset : sink.offsets()) {
            if (options.limit != 0 && ++shown > options.limit) {
                std::printf("%s%s... (%zu more)\n", prefix, separator,
                            sink.offsets().size() - options.limit);
                break;
            }
            if (options.offsets_only) {
                std::printf("%s%s%zu\n", prefix, separator, offset);
            } else {
                std::string_view value = extract_value(document, offset);
                std::printf("%s%s%.*s\n", prefix, separator,
                            static_cast<int>(value.size()), value.data());
            }
        }
    }
    if (options.stats) {
        obs::RunReport report;
        report.engine = engine.name();
        report.document_bytes = document.size();
        report.matches = sink.offsets().size();
        report.stats = stats;
        report.stats.timings.add(obs::Phase::kCompile, compile_ns);
        std::fprintf(stderr, "%s\n", obs::to_json(report).c_str());
    }
    return 0;
}

/**
 * Fused multi-query run over a single document: one classification pass,
 * N automata (see src/descend/multi). Matches print per query in set
 * order; --count prints one per-query count line.
 */
int run_multi(const CliOptions& options, const multi::FusedEngine& engine,
              const std::string& source_name, const PaddedString& document,
              std::uint64_t compile_ns)
{
    if (options.validate) {
        json::ParseOptions parse_options;
        parse_options.max_depth = 1 << 16;
        json::parse(document.view(), parse_options);  // throws on bad input
    }
    const char* prefix = options.files.size() > 1 ? source_name.c_str() : "";
    const char* separator = options.files.size() > 1 ? ": " : "";

    multi::CollectingMultiSink sink(engine.query_set().size());
    RunStats stats = engine.run_with_stats(document, sink);
    if (!stats.status.ok()) {
        std::fprintf(stderr, "descend-cli: %s%s%s\n", prefix, separator,
                     to_string(stats.status).c_str());
        return exit_code_for(stats.status);
    }
    std::size_t matches = 0;
    for (std::size_t q = 0; q < engine.query_set().size(); ++q) {
        const std::vector<std::size_t>& offsets = sink.offsets(q);
        matches += offsets.size();
        if (options.count_only) {
            std::printf("%s%squery %zu: %zu\n", prefix, separator, q,
                        offsets.size());
            continue;
        }
        if (options.project != project::ProjectionMode::kNone) {
            // Per-owner fanout: each query's matches project independently,
            // in set order (document order within a query).
            const simd::Kernels& kernels =
                simd::kernels_for(options.engine_options.simd);
            project::SpanExtender extender(document, kernels,
                                           &stats.counters);
            ProjectionPrinter printer(options);
            const std::string label = std::string(prefix) + separator +
                                      "query " + std::to_string(q) + ": ";
            for (std::size_t offset : offsets) {
                printer.print(extender, offset, label.c_str());
            }
            printer.finish(label.c_str());
            continue;
        }
        std::size_t shown = 0;
        for (std::size_t offset : offsets) {
            if (options.limit != 0 && ++shown > options.limit) {
                std::printf("%s%squery %zu: ... (%zu more)\n", prefix,
                            separator, q, offsets.size() - options.limit);
                break;
            }
            if (options.offsets_only) {
                std::printf("%s%squery %zu: %zu\n", prefix, separator, q,
                            offset);
            } else {
                std::string_view value = extract_value(document, offset);
                std::printf("%s%squery %zu: %.*s\n", prefix, separator, q,
                            static_cast<int>(value.size()), value.data());
            }
        }
    }
    if (options.stats) {
        obs::RunReport report;
        report.engine = engine.name();
        report.document_bytes = document.size();
        report.matches = matches;
        report.stats = stats;
        report.stats.timings.add(obs::Phase::kCompile, compile_ns);
        std::fprintf(stderr, "%s\n", obs::to_json(report).c_str());
    }
    return 0;
}

/** Builds the stream options: error policy, stream budget, and the
 *  per-record deadline (--deadline-ms). */
stream::StreamOptions make_stream_options(const CliOptions& options)
{
    stream::StreamOptions stream_options;
    stream_options.threads = options.threads;
    stream_options.policy = options.fail_fast ? stream::ErrorPolicy::kFailFast
                            : options.retry_scalar
                                ? stream::ErrorPolicy::kRetryScalar
                                : stream::ErrorPolicy::kSkipRecord;
    stream_options.engine = options.engine_options;
    if (options.stream_budget_ms != 0) {
        stream_options.stream_budget =
            RunBudget::within_ms(options.stream_budget_ms);
    }
    stream_options.record_budget_ms = options.deadline_ms;
    return stream_options;
}

/**
 * Prints each replayed match of either stream front end: "record R: "
 * for one query, "query Q record R: " for a set. Record offsets are
 * intra-record; extraction and span extension run over the record's
 * SUBVIEW, so a scan can never cross into the following record's slice
 * (the record-boundary contract, span.h).
 */
class NdjsonPrinter final : public stream::StreamSink,
                            public multi::MultiStreamSink {
public:
    NdjsonPrinter(const CliOptions& options, const PaddedString& input,
                  const std::vector<stream::RecordSpan>& records,
                  const simd::Kernels& kernels)
        : options_(options),
          input_(input),
          records_(records),
          kernels_(kernels),
          printer_(options)
    {
    }

    void on_match(std::size_t record, std::size_t offset) override
    {
        char label[48];
        std::snprintf(label, sizeof label, "record %zu: ", record);
        print(label, record, offset);
    }

    void on_match(std::size_t query, std::size_t record,
                  std::size_t offset) override
    {
        char label[80];
        std::snprintf(label, sizeof label, "query %zu record %zu: ", query,
                      record);
        print(label, record, offset);
    }

    void on_record_error(std::size_t record,
                         const EngineStatus& status) override
    {
        // Absolute stream position: span begin + intra-record offset, so
        // the byte can be seeked to directly in the input file.
        std::fprintf(stderr, "descend-cli: record %zu at byte %zu: %s\n",
                     record, records_[record].begin + status.offset,
                     to_string(status).c_str());
    }

    /** The elision marker and the count-mode totals. */
    void finish() { printer_.finish(""); }

    obs::Counters projection_counters;

private:
    void print(const char* label, std::size_t record, std::size_t offset)
    {
        if (options_.count_only) {
            return;
        }
        const stream::RecordSpan& span = records_[record];
        const PaddedView view =
            PaddedView(input_).subview(span.begin, span.size());
        if (options_.project != project::ProjectionMode::kNone) {
            project::SpanExtender extender(view, kernels_,
                                           &projection_counters);
            printer_.print(extender, offset, label);
            return;
        }
        if (!printer_.admit()) {
            return;
        }
        if (options_.offsets_only) {
            std::printf("%s%zu\n", label, offset);
        } else {
            std::string_view value = extract_value(view, offset);
            std::printf("%s%.*s\n", label, static_cast<int>(value.size()),
                        value.data());
        }
    }

    const CliOptions& options_;
    const PaddedString& input_;
    const std::vector<stream::RecordSpan>& records_;
    const simd::Kernels& kernels_;
    ProjectionPrinter printer_;
};

/**
 * NDJSON: SIMD record splitting + parallel sharded execution over the one
 * padded input buffer (see src/descend/stream) — one query on the stream
 * executor, a set on the fused one (N queries x M records off one splitter
 * pass). Matches arrive in document order regardless of the thread count.
 */
int run_ndjson(const CliOptions& options, const PaddedString& input)
{
    const stream::StreamOptions stream_options = make_stream_options(options);
    obs::PhaseStopwatch compile_watch;
    std::optional<stream::StreamExecutor> single;
    std::optional<multi::MultiStreamExecutor> fused;
    if (options.queries.size() > 1) {
        fused.emplace(multi::MultiStreamExecutor::for_queries(options.queries,
                                                              stream_options));
    } else {
        single.emplace(stream::StreamExecutor::for_query(options.queries.front(),
                                                         stream_options));
    }
    const std::uint64_t compile_ns = compile_watch.elapsed_ns();

    const simd::Kernels& kernels =
        simd::kernels_for(options.engine_options.simd);
    obs::PhaseStopwatch split_watch;
    std::vector<stream::RecordSpan> records =
        stream::split_records(input, kernels);
    const std::uint64_t split_ns = split_watch.elapsed_ns();

    NdjsonPrinter sink(options, input, records, kernels);
    stream::StreamResult result =
        fused ? fused->run_records(input, records, sink)
              : single->run_records(input, records, sink);
    sink.finish();
    if (options.count_only) {
        std::printf("%zu\n", result.matches);
    }
    result.counters.merge(sink.projection_counters);
    if (options.stats) {
        obs::StreamReport report;
        report.engine = fused ? fused->engine().name() : "descend";
        report.document_bytes = input.size();
        report.records = result.records;
        report.matches = result.matches;
        report.failed_records = result.failed_records;
        report.record_blocks = result.record_blocks;
        report.counters = result.counters;
        report.timings = result.timings;
        report.timings.add(obs::Phase::kCompile, compile_ns);
        report.timings.add(obs::Phase::kSplit, split_ns);
        report.error_tally = result.error_tally;
        std::fprintf(stderr, "%s\n", obs::to_json(report).c_str());
    }
    return result.ok() ? 0 : exit_code_for(result.first_error);
}

}  // namespace

int main(int argc, char** argv)
{
    CliOptions options;
    if (!parse_args(argc, argv, options)) {
        usage();
        return 2;
    }
    if (options.ndjson && options.engine != "descend") {
        std::fputs("descend-cli: --ndjson supports only the descend engine\n",
                   stderr);
        return 2;
    }
    if (options.project != project::ProjectionMode::kNone &&
        (options.count_only || options.offsets_only)) {
        std::fputs("descend-cli: --project conflicts with --count/--offsets\n",
                   stderr);
        return 2;
    }
    if (options.fail_fast && options.retry_scalar) {
        std::fputs("descend-cli: --fail-fast and --retry-scalar conflict\n",
                   stderr);
        return 2;
    }
    if (options.deadline_ms != 0 && !options.ndjson) {
        // Whole-run deadline, measured from here (per record under
        // --ndjson, where make_stream_options() picks it up instead).
        options.engine_options.budget =
            RunBudget::within_ms(options.deadline_ms);
    }
    const bool multi = options.queries.size() > 1;
    if (multi && options.engine != "descend") {
        std::fputs(
            "descend-cli: multiple --query/--queries need the descend engine\n",
            stderr);
        return 2;
    }
    try {
        obs::PhaseStopwatch compile_watch;
        std::unique_ptr<JsonPathEngine> engine =
            (options.ndjson || multi) ? nullptr : make_engine(options);
        std::unique_ptr<multi::FusedEngine> multi_engine;
        if (multi && !options.ndjson) {
            multi_engine = multi::make_fused_engine(
                multi::MultiQuery::compile(options.queries),
                options.engine_options);
        }
        const std::uint64_t compile_ns = compile_watch.elapsed_ns();
        auto dispatch = [&](const std::string& name, const PaddedString& doc) {
            if (options.ndjson) {
                return run_ndjson(options, doc);
            }
            return multi ? run_multi(options, *multi_engine, name, doc,
                                     compile_ns)
                         : run_on(options, *engine, name, doc, compile_ns);
        };
        if (options.files.empty()) {
            return dispatch("<stdin>", read_stdin());
        }
        for (const std::string& file : options.files) {
            PaddedString document = [&] {
                try {
                    return PaddedString::from_file(file);
                } catch (const Error& error) {
                    std::fprintf(stderr, "descend-cli: %s\n", error.what());
                    std::exit(5);  // file I/O
                }
            }();
            int status = dispatch(file, document);
            if (status != 0) {
                return status;
            }
        }
        return 0;
    } catch (const QueryError& error) {
        std::fprintf(stderr, "descend-cli: %s\n", error.what());
        return 2;  // a malformed query is a usage error
    } catch (const LimitError& error) {
        std::fprintf(stderr, "descend-cli: %s\n", error.what());
        return 4;  // resource limit (e.g. --validate depth)
    } catch (const ParseError& error) {
        std::fprintf(stderr, "descend-cli: %s\n", error.what());
        return 3;  // malformed input document (--validate)
    } catch (const Error& error) {
        std::fprintf(stderr, "descend-cli: %s\n", error.what());
        return 1;
    }
}
