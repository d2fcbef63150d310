/**
 * @file
 * The `fanout` workload: an NDJSON stream of compact records drawn
 * round-robin from all ten generators, cut into chunks. One unit of work
 * = split one chunk into records, answer it with MultiStreamExecutor for
 * one query set at a fixed thread count, and project every match to its
 * value slice with SpanExtender.
 *
 *   F1  64 filter-free queries (shared-prefix spines plus distinct
 *       descendant labels); `auto` picks the product backend.
 *   F2  8 selector queries (index, slice, union, filters); `auto` falls
 *       back to lanes.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "corpus.h"
#include "descend/baselines/dom_engine.h"
#include "descend/engine/main_engine.h"
#include "descend/json/dom.h"
#include "descend/json/serializer.h"
#include "descend/multi/multi_stream.h"
#include "descend/project/filter_eval.h"
#include "descend/project/span.h"
#include "descend/stream/record_splitter.h"
#include "layers.h"

namespace perfbench {

namespace {

using descend::obs::Counter;
namespace multi = descend::multi;
namespace stream = descend::stream;

constexpr std::size_t kPoolBytes = std::size_t{384} << 10;
constexpr std::size_t kSmokePoolBytes = std::size_t{24} << 10;
constexpr std::size_t kMaxRecord = std::size_t{32} << 10;
constexpr std::size_t kChunkBytes = std::size_t{128} << 10;
constexpr std::size_t kSmokeChunkBytes = std::size_t{16} << 10;
// One executor thread: the executor then runs its batches inline. With
// worker threads spawned per run, which malloc arenas they land in changes
// from run to run, and peak RSS with it by a third.
constexpr std::size_t kThreads = 1;

const std::vector<std::string>& f1_queries()
{
    static const std::vector<std::string> queries = {
        // Shared-prefix spines, one family per record shape.
        "$.categoryPath.*.id", "$.categoryPath.*.name", "$.sku", "$.name",
        "$.regularPrice", "$.videoChapters.*.chapter",
        "$.entities.urls.*.url", "$.entities.urls.*.expanded_url",
        "$.entities.hashtags.*.text", "$.user.screen_name", "$.user.name", "$.text",
        "$.routes.*.legs.*.steps.*.distance.text",
        "$.routes.*.legs.*.steps.*.duration.value",
        "$.routes.*.legs.*.distance.value", "$.routes.*.summary",
        "$.geocoded_waypoints.*.place_id",
        "$.author.*.affiliation.*.name", "$.author.*.given", "$.author.*.ORCID",
        "$.title.*", "$.DOI",
        "$.claims.*.*.mainsnak.property", "$.claims.*.*.mainsnak.datavalue.value.id",
        "$.labels.en.value", "$.descriptions.en.value",
        "$.bestMarketplacePrice.price", "$.salePrice", "$.msrp",
        "$.categories_tags.*", "$.product_name", "$.code",
        "$.inner.*.kind", "$.inner.*.type.qualType", "$.range.begin.offset",
        "$.search_metadata.count",
        // Distinct descendant labels.
        "$..id", "$..url", "$..text", "$..value", "$..type", "$..rank",
        "$..qualType", "$..kind", "$..language", "$..property", "$..snaktype",
        "$..datatype", "$..display_url", "$..indices", "$..family", "$..sequence",
        "$..publisher", "$..member", "$..lat", "$..lng", "$..place_id",
        "$..geocoder_status", "$..upc", "$..itemId", "$..brands", "$..labels_tags",
        "$..offset", "$..col",
    };
    return queries;
}

/** F2, with the filter-free candidate query of each filter (the same path
 *  with the filter replaced by a wildcard) for the filter probe. */
struct SelectorQuery {
    const char* query;
    const char* candidates;  ///< null for filter-free selectors
};

const std::vector<SelectorQuery>& f2_queries()
{
    static const std::vector<SelectorQuery> queries = {
        {"$.categoryPath[0].id", nullptr},
        {"$.entities.urls[1:3].url", nullptr},
        {"$.routes[0].legs[0].steps[2:5].distance.value", nullptr},
        {"$['sku','upc','itemId']", nullptr},
        {"$.labels['en','de'].value", nullptr},
        {"$.author[?(@.ORCID)]", "$.author.*"},
        {"$.routes.*.legs.*.steps[?(@.distance.value > 20000)]",
         "$.routes.*.legs.*.steps.*"},
        {"$.claims.*[?(@.rank == 'normal')]", "$.claims.*.*"},
    };
    return queries;
}

std::vector<std::string> f2_texts()
{
    std::vector<std::string> texts;
    for (const SelectorQuery& q : f2_queries()) {
        texts.emplace_back(q.query);
    }
    return texts;
}

/** Reusable sink: keeps its buffer's capacity across units. */
class MatchBuffer final : public multi::MultiStreamSink {
public:
    struct Match {
        std::uint32_t query;
        std::uint32_t record;
        std::size_t offset;
    };

    void on_match(std::size_t query, std::size_t record, std::size_t offset) override
    {
        matches.push_back({static_cast<std::uint32_t>(query),
                           static_cast<std::uint32_t>(record), offset});
    }
    void on_record_error(std::size_t, const descend::EngineStatus&) override
    {
        ++record_errors;
    }
    void clear()
    {
        matches.clear();
        record_errors = 0;
    }

    std::vector<Match> matches;
    std::size_t record_errors = 0;
};

/** What one unit must reproduce: per-query match counts and the total
 *  projected bytes, fixed by the oracle gate. */
struct Expected {
    std::vector<std::size_t> counts;
    std::size_t projected_bytes = 0;
};

struct Unit {
    std::size_t chunk;
    std::size_t set;  ///< 0 = F1, 1 = F2
};

descend::PaddedView record_view(descend::PaddedView chunk, const stream::RecordSpan& r)
{
    return descend::PaddedView(chunk.data() + r.begin, r.size());
}

/** Extends every buffered match to its value span; returns the bytes. If
 *  @p slices is non-null, the slices are appended to it in match order. */
std::size_t project_matches(descend::PaddedView chunk,
                            const std::vector<stream::RecordSpan>& records,
                            const MatchBuffer& buffer,
                            std::vector<std::string_view>* slices = nullptr)
{
    const descend::simd::Kernels& kernels =
        descend::simd::kernels_for(descend::simd::default_level());
    std::optional<descend::project::SpanExtender> extender;
    std::size_t current = ~std::size_t{0};
    std::size_t bytes = 0;
    for (const MatchBuffer::Match& m : buffer.matches) {
        if (m.record != current) {
            current = m.record;
            extender.emplace(record_view(chunk, records[current]), kernels);
        }
        descend::project::ValueSpan span = extender->extend(m.offset);
        bytes += span.size();
        if (slices != nullptr) {
            slices->push_back(extender->slice(span));
        }
    }
    return bytes;
}

void index_values(const descend::json::Value& value,
                  std::unordered_map<std::size_t, const descend::json::Value*>& out)
{
    out.emplace(value.source_offset(), &value);
    for (const descend::json::Member& member : value.members()) {
        index_values(*member.value, out);
    }
    for (const descend::json::Value* element : value.elements()) {
        index_values(*element, out);
    }
}

/**
 * Oracle gate for one (chunk, set) unit: per record and query, the
 * executor's offsets must equal the DOM engine's, and every projected
 * slice must be the DOM value's compact serialization.
 */
bool dom_check(descend::PaddedView chunk, const std::vector<stream::RecordSpan>& records,
               const std::vector<descend::DomEngine>& oracles, const MatchBuffer& buffer,
               Outcome& out, const char* set_name)
{
    std::vector<std::string_view> slices;
    project_matches(chunk, records, buffer, &slices);
    // Matches arrive records ascending, queries ascending within a record.
    std::size_t next = 0;
    for (std::size_t r = 0; r < records.size(); ++r) {
        std::string_view text = record_view(chunk, records[r]).view();
        descend::json::Document doc = descend::json::parse(text);
        std::unordered_map<std::size_t, const descend::json::Value*> by_offset;
        index_values(doc.root(), by_offset);
        for (std::size_t q = 0; q < oracles.size(); ++q) {
            descend::OffsetSink expected;
            oracles[q].evaluate(doc.root(), expected);
            std::vector<std::size_t> got;
            std::size_t first = next;
            while (next < buffer.matches.size() && buffer.matches[next].record == r &&
                   buffer.matches[next].query == q) {
                got.push_back(buffer.matches[next++].offset);
            }
            std::vector<std::size_t> want = expected.offsets();
            std::sort(got.begin(), got.end());
            std::sort(want.begin(), want.end());
            if (got != want) {
                out.note(std::string("oracle mismatch in ") + set_name + " query " +
                         std::to_string(q) + ": " + std::to_string(got.size()) +
                         " offsets vs dom " + std::to_string(want.size()));
                return false;
            }
            for (std::size_t i = first; i < next; ++i) {
                const descend::json::Value* value = by_offset.at(buffer.matches[i].offset);
                std::string serialized = descend::json::serialize(*value);
                if (slices[i] != serialized &&
                    descend::json::serialize(descend::json::parse(slices[i]).root()) !=
                        serialized) {
                    out.note(std::string("projection mismatch in ") + set_name +
                             " query " + std::to_string(q));
                    return false;
                }
            }
        }
    }
    if (next != buffer.matches.size() || buffer.record_errors != 0) {
        out.note(std::string("unexpected matches or record errors in ") + set_name);
        return false;
    }
    return true;
}

std::vector<std::size_t> count_by_query(const MatchBuffer& buffer, std::size_t queries)
{
    std::vector<std::size_t> counts(queries, 0);
    for (const MatchBuffer::Match& m : buffer.matches) {
        ++counts[m.query];
    }
    return counts;
}

/** The seeded stream: each generator's records in document order,
 *  interleaved round-robin with the generators in seeded order until every
 *  pool is drained. Round i holds record i of every generator, so a chunk
 *  holds nearly the same records whatever the seed; the seed changes their
 *  order and the order units run in. */
std::string make_stream(std::size_t pool_bytes, Rng& rng)
{
    std::vector<std::vector<std::string>> pools;
    for (const std::string& dataset : all_datasets()) {
        pools.push_back(compact_records(dataset, pool_bytes, kMaxRecord));
    }
    rng.shuffle(pools);
    std::string text;
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (const std::vector<std::string>& pool : pools) {
            if (i < pool.size()) {
                text += pool[i];
                text += '\n';
                any = true;
            }
        }
        if (!any) {
            return text;
        }
    }
}

/** Chunk views of the stream, cut after the record that reaches @p bytes. */
std::vector<descend::PaddedView> make_chunks(const descend::PaddedString& text,
                                             std::size_t bytes)
{
    std::vector<descend::PaddedView> chunks;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = std::min(begin + bytes, text.size());
        std::size_t newline = text.view().find('\n', end == 0 ? 0 : end - 1);
        end = newline == std::string_view::npos ? text.size() : newline + 1;
        chunks.emplace_back(text.data() + begin, end - begin);
        begin = end;
    }
    return chunks;
}

}  // namespace

Outcome run_fanout(const Options& options)
{
    Outcome out;
    const std::vector<std::string> sets[2] = {f1_queries(), f2_texts()};
    const char* const set_names[2] = {"F1", "F2"};
    stream::StreamOptions stream_options;
    stream_options.threads = kThreads;

    // The benchmark's own buffers come first, outside the RSS window, which
    // then holds the inputs and the program's memory.
    LoopResult loop = prepared_loop(options.seconds);
    RefClock ref(options.seconds);
    loop.ref = &ref;
    std::optional<multi::MultiStreamExecutor> executors[2];
    const double seconds = options.trace ? options.seconds / 2 : options.seconds;
    SetupTimer setup(seconds, [&] {
        for (std::size_t s = 0; s < 2; ++s) {
            executors[s].reset();
            executors[s].emplace(multi::MultiStreamExecutor::for_queries(
                sets[s], stream_options));
        }
    });
    RssWindow rss;
    rss.start();
    loop.rss = &rss;

    Rng rng(options.seed);
    const descend::PaddedString text(
        make_stream(options.smoke ? kSmokePoolBytes : kPoolBytes, rng));
    const std::vector<descend::PaddedView> chunks =
        make_chunks(text, options.smoke ? kSmokeChunkBytes : kChunkBytes);
    const descend::simd::Kernels& kernels =
        descend::simd::kernels_for(descend::simd::default_level());

    std::vector<Unit> units;
    std::vector<std::size_t> unit_bytes;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        for (std::size_t s = 0; s < 2; ++s) {
            units.push_back({c, s});
            unit_bytes.push_back(chunks[c].size());
        }
    }
    out.header.emplace_back("input_bytes", std::to_string(text.size()));
    out.header.emplace_back("chunks", std::to_string(chunks.size()));
    out.header.emplace_back("units_per_pass", std::to_string(units.size()));
    out.header.emplace_back("threads", std::to_string(kThreads));
    out.header.emplace_back("connections", "0");

    // Oracle gate, and the per-unit expectations the timed loop re-checks.
    std::vector<Expected> expected(units.size());
    {
        std::vector<descend::DomEngine> oracles[2];
        for (std::size_t s = 0; s < 2; ++s) {
            for (const std::string& q : sets[s]) {
                oracles[s].emplace_back(descend::query::Query::parse(q));
            }
        }
        multi::MultiStreamExecutor executors[2] = {
            multi::MultiStreamExecutor::for_queries(sets[0], stream_options),
            multi::MultiStreamExecutor::for_queries(sets[1], stream_options)};
        MatchBuffer buffer;
        for (std::size_t u = 0; u < units.size(); ++u) {
            descend::PaddedView chunk = chunks[units[u].chunk];
            std::vector<stream::RecordSpan> records = stream::split_records(chunk, kernels);
            buffer.clear();
            executors[units[u].set].run_records(chunk, records, buffer);
            if (out.oracle_ok) {
                out.oracle_ok = dom_check(chunk, records, oracles[units[u].set], buffer,
                                          out, set_names[units[u].set]);
            }
            expected[u].counts = count_by_query(buffer, sets[units[u].set].size());
            expected[u].projected_bytes = project_matches(chunk, records, buffer);
        }
    }

    // The match buffer holds the largest unit's matches from the start.
    MatchBuffer buffer;
    std::size_t max_matches = 0;
    for (const Expected& e : expected) {
        std::size_t total = 0;
        for (std::size_t count : e.counts) {
            total += count;
        }
        max_matches = std::max(max_matches, total);
    }
    buffer.matches.resize(max_matches);
    buffer.clear();
    std::vector<stream::RecordSpan> records;
    release_free_memory();
    setup.burst();

    Tracer off(false);
    auto make_run_unit = [&](Tracer& tracer) {
        return [&](std::size_t u, std::uint64_t id, int parent) {
            descend::PaddedView chunk = chunks[units[u].chunk];
            int span = tracer.begin("stream.split", parent, id);
            records = stream::split_records(chunk, kernels);
            tracer.end(span);
            buffer.clear();
            span = tracer.begin("stream.run", parent, id);
            descend::stream::StreamResult result =
                executors[units[u].set]->run_records(chunk, records, buffer);
            tracer.end(span);
            span = tracer.begin("project.extend", parent, id);
            std::size_t bytes = project_matches(chunk, records, buffer);
            tracer.end(span);
            return result.ok() && bytes == expected[u].projected_bytes &&
                   count_by_query(buffer, sets[units[u].set].size()) ==
                       expected[u].counts;
        };
    };
    for (std::size_t u = 0; u < units.size(); ++u) {
        make_run_unit(off)(u, 0, -1);
    }

    closed_loop(loop, unit_bytes, seconds, rng, off, "fanout.unit", make_run_unit(off),
                [&] { setup.after_pass(); });
    std::fprintf(stderr, "fanout: %llu units in %.2f s, %.3f GiB/s\n",
                 static_cast<unsigned long long>(loop.attempted), loop.wall_s,
                 static_cast<double>(loop.bytes) / loop.wall_s / (1ULL << 30));
    if (!options.trace) {
        add_end_to_end(out, loop, setup, ref, rss.growth_mb());
        return out;
    }
    out.attempted += loop.attempted;
    out.failed += loop.failed;

    // Traced half.
    auto tracer = std::make_unique<Tracer>(true);
    tracer->reserve(static_cast<std::size_t>(seconds * 40000) + 1024);
    LoopResult traced = prepared_loop(seconds);
    closed_loop(traced, unit_bytes, seconds, rng, *tracer, "fanout.unit",
                make_run_unit(*tracer));
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    const double passes =
        static_cast<double>(traced.attempted) / static_cast<double>(units.size());

    LayerStats l;
    const double probe_s = options.smoke ? 0.001 : 0.03;
    l.classify_ns_per_block = probe_classify_ns_per_block(chunks, probe_s);

    // Census: one pass of each set's fused engine over every record, on
    // one thread, for per-pass counts and the fused engine's own time.
    descend::obs::Counters census;
    double fused_s = 0;
    double records_per_pass = 0;
    double values = 0;
    double projected = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
        descend::PaddedView chunk = chunks[units[u].chunk];
        std::vector<stream::RecordSpan> spans = stream::split_records(chunk, kernels);
        records_per_pass += static_cast<double>(spans.size());
        const multi::FusedEngine& engine = executors[units[u].set]->engine();
        multi::CountingMultiSink sink(sets[units[u].set].size());
        Clock::time_point start = Clock::now();
        for (const stream::RecordSpan& r : spans) {
            census.merge(engine.run_with_stats(record_view(chunk, r), sink).counters);
        }
        fused_s += seconds_since(start);
        values += static_cast<double>(sink.total());
        projected += static_cast<double>(expected[u].projected_bytes);
    }
    for (std::size_t s = 0; s < 2; ++s) {
        bool product = executors[s]->engine().name().find("product") != std::string::npos;
        (product ? l.multi_sets_product : l.multi_sets_lanes) += 1;
        l.multi_compile_ms +=
            1e3 * median_setup_seconds(options.smoke ? 1 : 5, [&] {
                multi::make_fused_engine(sets[s]);
            });
    }
    std::vector<std::string> all_texts = sets[0];
    all_texts.insert(all_texts.end(), sets[1].begin(), sets[1].end());
    CompileProbe compile = probe_compile(all_texts, options.smoke ? 3 : 21);
    l.query_parse_us = compile.parse_us;
    l.automaton_compile_us = compile.compile_us;
    l.automaton_dfa_states = compile.dfa_states;

    BlockShares shares = block_shares(census);
    const double blocks_classified =
        static_cast<double>(census.get(Counter::kBlocksClassified));
    l.classify_blocks_share =
        shares.total_blocks > 0 ? blocks_classified / shares.total_blocks : 0;
    l.classify_est_s = blocks_classified * passes * l.classify_ns_per_block * 1e-9;
    // On fanout the engine layer is the fused engine: its standalone
    // per-pass time, scaled to the traced half.
    l.multi_run_s = fused_s * passes;
    l.engine_run_s = l.multi_run_s;
    l.engine_events_per_kib = static_cast<double>(census.get(Counter::kStructuralEvents)) /
                              (static_cast<double>(text.size()) * 2 / 1024.0);
    l.engine_depth_stack_pushes = static_cast<double>(census.get(Counter::kDepthStackPushes));
    l.engine_skip_structural = shares.structural;
    l.engine_skip_child = shares.child;
    l.engine_skip_sibling = shares.sibling;
    l.engine_skip_within = shares.within;
    l.engine_skip_head = shares.head;
    l.engine_pipeline_resumes = static_cast<double>(census.get(Counter::kPipelineResumes));
    const double candidates =
        static_cast<double>(census.get(Counter::kLabelSearchCandidates));
    l.label_search_hit_ratio =
        candidates > 0 ? static_cast<double>(census.get(Counter::kLabelSearchHits)) / candidates
                       : 0;
    l.label_search_blocks_share = shares.head;
    l.multi_product_states = static_cast<double>(census.get(Counter::kProductStates));
    l.multi_subscriber_fanout = static_cast<double>(census.get(Counter::kSubscriberFanout));
    l.multi_skips_suppressed =
        static_cast<double>(census.get(Counter::kFusedChildSkipSuppressed) +
                            census.get(Counter::kFusedSiblingSkipSuppressed) +
                            census.get(Counter::kFusedWithinSkipSuppressed));

    l.stream_split_ms = tracer->total_seconds("stream.split") * 1e3 / passes;
    l.stream_records = records_per_pass;
    l.stream_run_s = tracer->total_seconds("stream.run");

    l.project_values = values;
    l.project_bytes = projected;
    l.project_extend_ns_per_value =
        values > 0 ? tracer->total_seconds("project.extend") * 1e9 / (values * passes) : 0;

    // Filter probe: FilterGate::admits over every candidate of F2's filters.
    double filter_s = 0;
    double filter_candidates = 0;
    double admitted = 0;
    for (const SelectorQuery& q : f2_queries()) {
        if (q.candidates == nullptr) {
            continue;
        }
        descend::query::Query parsed = descend::query::Query::parse(q.query);
        descend::DescendEngine candidate_engine =
            descend::DescendEngine::for_query(q.candidates);
        for (const descend::PaddedView& chunk : chunks) {
            for (const stream::RecordSpan& r : stream::split_records(chunk, kernels)) {
                descend::PaddedView view = record_view(chunk, r);
                descend::OffsetSink sink;
                candidate_engine.run(view, sink);
                const std::vector<std::size_t>& offsets = sink.offsets();
                if (offsets.empty()) {
                    continue;
                }
                Clock::time_point start = Clock::now();
                descend::project::FilterGate gate(*parsed.filter(), view, kernels);
                for (std::size_t offset : offsets) {
                    admitted += gate.admits(offset) ? 1 : 0;
                }
                filter_s += seconds_since(start);
                filter_candidates += static_cast<double>(offsets.size());
            }
        }
    }
    l.project_filter_ns_per_candidate =
        filter_candidates > 0 ? filter_s * 1e9 / filter_candidates : 0;
    l.project_filter_pass_ratio = filter_candidates > 0 ? admitted / filter_candidates : 0;

    l.trace_wall_s = traced.wall_s;
    l.trace_spans = static_cast<double>(tracer->spans().size());
    l.trace_overhead_pct = (loop.raw_gibps / traced.closed_gibps - 1.0) * 100.0;
    const double covered = tracer->total_seconds("stream.split") +
                           tracer->total_seconds("stream.run") +
                           tracer->total_seconds("project.extend");
    l.trace_additivity_error = std::fabs(covered - traced.wall_s) / traced.wall_s;

    add_layer_metrics(out, l);
    out.tracer = std::move(tracer);
    return out;
}

}  // namespace perfbench
