/**
 * @file
 * The `scan` and `seek` workloads: closed loop, one thread, one unit of
 * work = one DescendEngine run of one paper query over one whole generated
 * document. `scan` runs the descendant-free and dense queries (classify +
 * automaton bound), `seek` the descendant queries (head-skip bound).
 */
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.h"
#include "corpus.h"
#include "descend/baselines/dom_engine.h"
#include "descend/engine/main_engine.h"
#include "descend/workloads/datasets.h"
#include "layers.h"

namespace perfbench {

namespace {

using descend::obs::Counter;

constexpr std::size_t kDocBytes = std::size_t{2} << 20;
constexpr std::size_t kSmokeDocBytes = std::size_t{64} << 10;

struct Unit {
    const descend::bench::QuerySpec* query;
    const descend::PaddedString* doc;
    std::size_t expected = 0;
};

/** Before timing: every unit's offsets must equal the DOM oracle's. */
bool oracle_gate(const std::vector<Unit>& units, Outcome& out)
{
    bool ok = true;
    for (const Unit& unit : units) {
        descend::OffsetsResult fast =
            descend::DescendEngine::for_query(unit.query->query)
                .offsets_checked(*unit.doc);
        descend::OffsetsResult slow =
            descend::DomEngine(descend::query::Query::parse(unit.query->query))
                .offsets_checked(*unit.doc);
        if (!fast.ok() || !slow.ok() || fast.offsets != slow.offsets) {
            out.note(std::string("oracle mismatch on ") + unit.query->id + ": descend " +
                     std::to_string(fast.offsets.size()) + " matches (" +
                     descend::to_string(fast.status) + "), dom " +
                     std::to_string(slow.offsets.size()) + " (" +
                     descend::to_string(slow.status) + ")");
            ok = false;
        }
    }
    return ok;
}

/** The traced run's layer split of the units (see README.md). */
void trace_layers(const std::vector<Unit>& units,
                  const std::vector<descend::DescendEngine>& engines,
                  const std::vector<std::size_t>& unit_bytes,
                  const LoopResult& untraced, double seconds, bool smoke,
                  const char* unit_span, Rng& rng, Outcome& out)
{
    auto tracer = std::make_unique<Tracer>(true);
    tracer->reserve(static_cast<std::size_t>(seconds * 40000) + 1024);

    // Traced half: every engine run is a span and feeds the obs counters.
    descend::obs::Counters traced_counters;
    LoopResult traced = prepared_loop(seconds);
    closed_loop(traced, unit_bytes, seconds, rng, *tracer, unit_span,
                [&](std::size_t u, std::uint64_t id, int parent) {
                    descend::CountSink sink;
                    int span = tracer->begin("engine.run", parent, id);
                    descend::RunStats stats = engines[u].run_with_stats(
                        descend::PaddedView(*units[u].doc), sink);
                    tracer->end(span);
                    traced_counters.merge(stats.counters);
                    return stats.status.ok() && sink.count() == units[u].expected;
                });
    out.attempted += traced.attempted;
    out.failed += traced.failed;

    // Census: one pass over every unit, for exact per-pass counts.
    descend::obs::Counters census;
    double census_bytes = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
        descend::CountSink sink;
        census.merge(
            engines[u].run_with_stats(descend::PaddedView(*units[u].doc), sink).counters);
        census_bytes += static_cast<double>(unit_bytes[u]);
    }

    const double probe_s = smoke ? 0.001 : 0.03;
    std::vector<descend::PaddedView> docs;
    for (const Unit& unit : units) {
        docs.emplace_back(*unit.doc);
    }
    LayerStats l;
    l.classify_ns_per_block = probe_classify_ns_per_block(docs, probe_s);

    // Label search: sweep each unit's head label, weighted by its blocks.
    double ls_ns = 0;
    double ls_blocks = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
        const auto& label = engines[u].compiled_query().head_skip_label();
        if (label) {
            double blocks = std::ceil(static_cast<double>(unit_bytes[u]) / 64.0);
            ls_ns += blocks * probe_label_search_ns_per_block(docs[u], *label, probe_s);
            ls_blocks += blocks;
        }
    }
    l.label_search_ns_per_block = ls_blocks > 0 ? ls_ns / ls_blocks : 0;

    std::vector<std::string> texts;
    for (const Unit& unit : units) {
        texts.emplace_back(unit.query->query);
    }
    CompileProbe compile = probe_compile(texts, smoke ? 3 : 51);
    l.query_parse_us = compile.parse_us;
    l.automaton_compile_us = compile.compile_us;
    l.automaton_dfa_states = compile.dfa_states;

    const double traced_blocks_classified =
        static_cast<double>(traced_counters.get(Counter::kBlocksClassified));
    const double traced_head_blocks =
        static_cast<double>(traced_counters.get(Counter::kBlocksHeadSkip));
    l.engine_run_s = tracer->total_seconds("engine.run");
    l.classify_est_s = traced_blocks_classified * l.classify_ns_per_block * 1e-9;
    // The sweep's own classification is already in classify.est_s, so only
    // its cost beyond classification is charged to label_search.
    l.label_search_est_s = traced_head_blocks *
                           (l.label_search_ns_per_block - l.classify_ns_per_block) *
                           1e-9;
    if (ls_blocks == 0) {
        l.label_search_est_s = 0;
    }

    BlockShares shares = block_shares(census);
    l.classify_blocks_share =
        shares.total_blocks > 0
            ? static_cast<double>(census.get(Counter::kBlocksClassified)) /
                  shares.total_blocks
            : 0;
    l.engine_events_per_kib =
        static_cast<double>(census.get(Counter::kStructuralEvents)) /
        (census_bytes / 1024.0);
    l.engine_depth_stack_pushes =
        static_cast<double>(census.get(Counter::kDepthStackPushes));
    l.engine_skip_structural = shares.structural;
    l.engine_skip_child = shares.child;
    l.engine_skip_sibling = shares.sibling;
    l.engine_skip_within = shares.within;
    l.engine_skip_head = shares.head;
    l.engine_pipeline_resumes =
        static_cast<double>(census.get(Counter::kPipelineResumes));
    const double candidates =
        static_cast<double>(census.get(Counter::kLabelSearchCandidates));
    l.label_search_hit_ratio =
        candidates > 0
            ? static_cast<double>(census.get(Counter::kLabelSearchHits)) / candidates
            : 0;
    l.label_search_blocks_share = shares.head;

    l.trace_wall_s = traced.wall_s;
    l.trace_spans = static_cast<double>(tracer->spans().size());
    l.trace_overhead_pct = (untraced.raw_gibps / traced.closed_gibps - 1.0) * 100.0;
    // classify.est_s + label_search.est_s + engine.self_s is engine.run_s
    // by construction; what is checked is that the engine spans cover the
    // traced wall time (the rest is the loop's own overhead) and that the
    // standalone estimates do not exceed the runs they are charged to.
    l.trace_additivity_error = std::fabs(l.engine_run_s - traced.wall_s) / traced.wall_s;
    if (l.classify_est_s + l.label_search_est_s > l.engine_run_s) {
        out.note("layer estimates exceed engine.run_s: engine.self_s is negative");
    }
    if (l.trace_additivity_error > 0.05) {
        out.note("engine spans cover less than 95% of the traced wall time");
    }

    add_layer_metrics(out, l);
    out.tracer = std::move(tracer);
}

}  // namespace

Outcome run_scan(const Options& options, bool seek)
{
    Outcome out;
    const std::vector<descend::bench::QuerySpec>& cases = seek ? seek_queries() : scan_queries();
    const std::size_t doc_bytes = options.smoke ? kSmokeDocBytes : kDocBytes;

    // The benchmark's own buffers come first, outside the RSS window, which
    // then holds the inputs and the program's memory.
    LoopResult loop = prepared_loop(options.seconds);
    RefClock ref(options.seconds);
    loop.ref = &ref;
    std::vector<Unit> units;
    units.reserve(cases.size());
    std::vector<descend::DescendEngine> engines;
    engines.reserve(cases.size());
    const double seconds = options.trace ? options.seconds / 2 : options.seconds;
    SetupTimer setup(seconds, [&] {
        engines.clear();
        for (const Unit& unit : units) {
            engines.push_back(descend::DescendEngine::for_query(unit.query->query));
        }
    });
    RssWindow rss;
    rss.start();
    loop.rss = &rss;

    // Inputs: one generated document per dataset, shared by its queries.
    std::map<std::string, std::unique_ptr<descend::PaddedString>> docs;
    std::vector<std::size_t> unit_bytes;
    std::size_t input_bytes = 0;
    for (const descend::bench::QuerySpec& c : cases) {
        auto& doc = docs[c.dataset];
        if (!doc) {
            doc = std::make_unique<descend::PaddedString>(
                descend::workloads::generate(c.dataset, doc_bytes));
            input_bytes += doc->size();
        }
        units.push_back({&c, doc.get()});
        unit_bytes.push_back(doc->size());
    }
    out.header.emplace_back("input_bytes", std::to_string(input_bytes));
    out.header.emplace_back("units_per_pass", std::to_string(units.size()));
    out.header.emplace_back("threads", "1");
    out.header.emplace_back("connections", "0");

    out.oracle_ok = oracle_gate(units, out);
    for (Unit& unit : units) {
        unit.expected = descend::DescendEngine::for_query(unit.query->query)
                            .count_checked(*unit.doc)
                            .count;
    }

    release_free_memory();
    setup.burst();

    Rng rng(options.seed);
    Tracer off(false);
    auto run_unit = [&](std::size_t u, std::uint64_t, int) {
        descend::CountResult result = engines[u].count_checked(*units[u].doc);
        return result.ok() && result.count == units[u].expected;
    };
    // Warm-up pass (caches, page faults), not measured.
    for (std::size_t u = 0; u < units.size(); ++u) {
        run_unit(u, 0, -1);
    }

    const char* unit_span = seek ? "seek.unit" : "scan.unit";
    closed_loop(loop, unit_bytes, seconds, rng, off, unit_span, run_unit,
                [&] { setup.after_pass(); });
    if (!options.trace) {
        add_end_to_end(out, loop, setup, ref, rss.growth_mb());
    } else {
        out.attempted += loop.attempted;
        out.failed += loop.failed;
        trace_layers(units, engines, unit_bytes, loop, seconds, options.smoke, unit_span,
                     rng, out);
    }
    std::fprintf(stderr, "%s: %llu units in %.2f s, %.3f GiB/s\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(loop.attempted), loop.wall_s,
                 static_cast<double>(loop.bytes) / loop.wall_s / (1ULL << 30));
    return out;
}

}  // namespace perfbench
