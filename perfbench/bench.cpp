#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

double percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    double rank = p * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double Tracer::total_seconds(const std::string& name) const
{
    std::int64_t ns = 0;
    for (const Span& span : spans_) {
        if (name == span.name) {
            ns += span.end_ns - span.start_ns;
        }
    }
    return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_seconds(const std::string& name) const
{
    // Children are recorded after their parent is opened, so one pass in
    // span order accumulates each parent's covered time. Sibling children
    // of one parent never overlap (every workload runs its children
    // sequentially), so summing their durations is exact.
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (const Span& span : spans_) {
        if (span.parent >= 0) {
            covered[static_cast<std::size_t>(span.parent)] +=
                span.end_ns - span.start_ns;
        }
    }
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (name == spans_[i].name) {
            ns += spans_[i].end_ns - spans_[i].start_ns - covered[i];
        }
    }
    return static_cast<double>(ns) * 1e-9;
}

std::vector<std::string> Tracer::names() const
{
    std::vector<std::string> out;
    for (const Span& span : spans_) {
        if (std::find(out.begin(), out.end(), span.name) == out.end()) {
            out.emplace_back(span.name);
        }
    }
    return out;
}

bool Tracer::write(const std::string& path, const std::string& header_json) const
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        return false;
    }
    std::fprintf(file, "{\"header\": %s}\n", header_json.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        std::fprintf(file,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"unit\": %llu}\n",
                     i, span.name, static_cast<long long>(span.start_ns),
                     static_cast<long long>(span.end_ns), span.parent,
                     static_cast<unsigned long long>(span.unit));
    }
    return std::fclose(file) == 0;
}

namespace {

/** Exact resident set size in KiB (smaps_rollup walks the page tables);
 *  0 where the file is unavailable. */
long exact_rss_kib()
{
    std::ifstream rollup("/proc/self/smaps_rollup");
    std::string line;
    while (std::getline(rollup, line)) {
        if (line.compare(0, 4, "Rss:") == 0) {
            return std::stol(line.substr(4));
        }
    }
    return 0;
}

}  // namespace

void RssWindow::start()
{
    base_kib_ = exact_rss_kib();
    peak_kib_ = base_kib_;
    last_sample_ = Clock::now();
}

void RssWindow::sample(bool force)
{
    Clock::time_point now = Clock::now();
    if (force || seconds_between(last_sample_, now) >= 0.2) {
        last_sample_ = now;
        peak_kib_ = std::max(peak_kib_, exact_rss_kib());
    }
}

double RssWindow::growth_mb() const
{
    return static_cast<double>(peak_kib_ - base_kib_) / 1024.0;
}

namespace {

constexpr std::size_t kRefTextBytes = 8 << 10;
constexpr int kRefPasses = 16;

/** The RefClock's text: a fixed JSON snippet repeated to kRefTextBytes. */
std::vector<unsigned char> reference_text()
{
    static const char kSnippet[] =
        "{\"id\": 4127, \"name\": \"Ada \\\"the\\\" Countess\", \"tags\": "
        "[\"x\", \"yz\", \"{not: [a, block]}\"], \"geo\": {\"lat\": 51.5072, "
        "\"lon\": -0.1276, \"box\": [[0, 1], [2, 3]]}, \"ok\": true, "
        "\"next\": null},\n";
    std::vector<unsigned char> text;
    while (text.size() + sizeof(kSnippet) - 1 <= kRefTextBytes) {
        text.insert(text.end(), kSnippet, kSnippet + sizeof(kSnippet) - 1);
    }
    return text;
}

/** One pass of the reference work: structural characters outside
 *  strings, weighted by nesting depth. */
[[gnu::noinline]] unsigned long long reference_pass(const unsigned char* text,
                                                     std::size_t n)
{
    // Opaque to the optimizer, so the passes of one tick are not merged.
    asm volatile("" : : "r"(text) : "memory");
    unsigned long long acc = 0;
    bool in_string = false;
    bool escaped = false;
    int depth = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned char c = text[i];
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
        switch (c) {
            case '"': in_string = true; break;
            case '{':
            case '[': acc += static_cast<unsigned>(++depth); break;
            case '}':
            case ']': acc += static_cast<unsigned>(depth--) * 3; break;
            case ',':
            case ':': acc += static_cast<unsigned>(depth) * 7 + i; break;
            default: break;
        }
    }
    return acc;
}

}  // namespace

RefClock::RefClock(double run_seconds)
    : text_(reference_text()),
      // Twice the ticks kRefTickInterval gives; later ones are not kept.
      ticks_(static_cast<std::size_t>(2 * run_seconds / kRefTickInterval) + 1024,
             Tick{Clock::now(), 0.0}),
      origin_(Clock::now())
{
}

void RefClock::tick()
{
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < kRefPasses; ++pass) {
        sink_ += reference_pass(text_.data(), text_.size());
    }
    const double seconds = seconds_since(start);
    if (count_ < ticks_.size()) {
        ticks_[count_++] = {start, seconds};
    }
}

void RefClock::finish()
{
    std::vector<double> all;
    std::vector<std::vector<double>> windows;
    for (std::size_t i = 0; i < count_; ++i) {
        const Tick& tick = ticks_[i];
        const auto w = static_cast<std::size_t>(seconds_between(origin_, tick.at) /
                                                kRefWindowSeconds);
        if (windows.size() <= w) {
            windows.resize(w + 1);
        }
        windows[w].push_back(tick.seconds);
        all.push_back(tick.seconds);
    }
    median_slowdown_ = all.empty() ? 1 : median(all) / kRefNominalSeconds;
    // A window without a tick (the program ran longer than a window) takes
    // the nearest earlier window's value, or the first one after it.
    window_slowdown_.assign(windows.size(), -1);
    double last = -1;
    for (std::size_t w = 0; w < windows.size(); ++w) {
        if (!windows[w].empty()) {
            last = median(windows[w]) / kRefNominalSeconds;
        }
        window_slowdown_[w] = last;
    }
    for (std::size_t w = windows.size(); w-- > 0;) {
        if (window_slowdown_[w] < 0) {
            window_slowdown_[w] = w + 1 < windows.size() ? window_slowdown_[w + 1]
                                                         : median_slowdown_;
        }
    }
}

double RefClock::slowdown_at(Clock::time_point t) const
{
    const double s = seconds_between(origin_, t);
    const auto w = static_cast<std::size_t>(std::max(0.0, s) / kRefWindowSeconds);
    return w < window_slowdown_.size() ? window_slowdown_[w] : median_slowdown_;
}

void release_free_memory()
{
    malloc_trim(0);
}

std::string json_string(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

LoopResult prepared_loop(double seconds)
{
    // Generous for the fastest unit (tens of microseconds); a loop that
    // outruns it keeps running but stops recording latencies.
    LoopResult result;
    result.latencies_ms.assign(static_cast<std::size_t>(seconds * 50000) + 1024, 0.0);
    result.unit_ids.assign(result.latencies_ms.size(), 0);
    result.at_s.assign(result.latencies_ms.size(), 0.0);
    return result;
}

void normalize_latencies(LoopResult& result)
{
    if (result.ref == nullptr) {
        return;
    }
    result.ref->finish();
    result.raw_latencies_ms = result.latencies_ms;
    for (std::size_t i = 0; i < result.latencies_ms.size(); ++i) {
        const Clock::time_point at =
            result.started + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(result.at_s[i]));
        result.latencies_ms[i] /= result.ref->slowdown_at(at);
    }
}

namespace {

/** GiB/s of one pass in which every unit takes its own 10th-percentile
 *  latency; 0 when some unit never ran. */
double pass_gibps(const std::vector<double>& latencies_ms,
                  const std::vector<std::uint32_t>& unit_ids,
                  const std::vector<std::size_t>& unit_bytes)
{
    std::vector<std::vector<double>> per_unit(unit_bytes.size());
    for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
        per_unit[unit_ids[i]].push_back(latencies_ms[i]);
    }
    double pass_bytes = 0;
    double pass_ms = 0;
    for (std::size_t u = 0; u < per_unit.size(); ++u) {
        if (per_unit[u].empty()) {
            return 0;
        }
        pass_bytes += static_cast<double>(unit_bytes[u]);
        pass_ms += percentile(per_unit[u], 0.1);
    }
    return pass_bytes / (pass_ms * 1e-3) / static_cast<double>(1ULL << 30);
}

}  // namespace

void finish_closed_loop(LoopResult& result, const std::vector<std::size_t>& unit_bytes,
                        std::size_t recorded)
{
    result.latencies_ms.resize(recorded);
    result.unit_ids.resize(recorded);
    result.at_s.resize(recorded);
    normalize_latencies(result);
    result.closed_gibps = pass_gibps(result.latencies_ms, result.unit_ids, unit_bytes);
    result.raw_gibps =
        result.ref != nullptr
            ? pass_gibps(result.raw_latencies_ms, result.unit_ids, unit_bytes)
            : result.closed_gibps;
}

namespace {

/** Median over time windows of each window's @p p percentile of
 *  @p latencies (taken at loop.at_s); windows hold at least 1000 units on
 *  average. */
double windowed_percentile(const LoopResult& loop, const std::vector<double>& latencies,
                           double p)
{
    const std::size_t n = latencies.size();
    const std::size_t windows = std::max<std::size_t>(1, n / 1000);
    if (windows == 1 || loop.at_s.size() != n) {
        return percentile(latencies, p);
    }
    const double span = *std::max_element(loop.at_s.begin(), loop.at_s.end());
    std::vector<std::vector<double>> buckets(windows);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t w = span > 0 ? static_cast<std::size_t>(loop.at_s[i] / span *
                                                            static_cast<double>(windows))
                                 : 0;
        buckets[std::min(w, windows - 1)].push_back(latencies[i]);
    }
    std::vector<double> per_window;
    for (const std::vector<double>& bucket : buckets) {
        if (!bucket.empty()) {
            per_window.push_back(percentile(bucket, p));
        }
    }
    return median(per_window);
}

}  // namespace

void add_end_to_end(Outcome& out, const LoopResult& loop, const SetupTimer& setup,
                    const RefClock& ref, double rss_mb)
{
    double gib = static_cast<double>(loop.bytes) / static_cast<double>(1ULL << 30);
    double gibps = loop.closed_gibps > 0 ? loop.closed_gibps
                   : loop.wall_s > 0    ? gib / loop.wall_s / ref.median_slowdown()
                                        : 0;
    out.add("throughput_gibps", gibps, "GiB/s");
    out.add("latency_p50_ms", windowed_percentile(loop, loop.latencies_ms, 0.50), "ms");
    bool enough = loop.latencies_ms.size() >= 1000;
    out.unbounded.push_back({"latency_p99_ms",
                             windowed_percentile(loop, loop.latencies_ms,
                                                 enough ? 0.99 : 0.90),
                             "ms"});
    if (!enough) {
        out.note("latency_p99_ms is the p90: only " +
                 std::to_string(loop.latencies_ms.size()) +
                 " units ran (p99 needs at least 1000)");
    }
    out.add("setup_s", setup.median(ref), "s");
    out.add("peak_rss_mb", rss_mb, "MB");
    out.unbounded.push_back({"measured_throughput_gibps", loop.raw_gibps, "GiB/s"});
    out.unbounded.push_back(
        {"measured_latency_p50_ms", windowed_percentile(loop, loop.raw_latencies_ms, 0.50),
         "ms"});
    out.unbounded.push_back({"measured_setup_s", setup.median(), "s"});
    out.unbounded.push_back({"host_slowdown", ref.median_slowdown(), "ratio"});
    out.attempted += loop.attempted;
    out.failed += loop.failed;
}

void add_layer_metrics(Outcome& out, const LayerStats& l)
{
    out.add("classify.ns_per_block", l.classify_ns_per_block, "ns");
    out.add("classify.blocks_share", l.classify_blocks_share, "ratio");
    out.add("classify.est_s", l.classify_est_s, "s");

    out.add("engine.run_s", l.engine_run_s, "s");
    out.add("engine.self_s",
            l.engine_run_s - l.classify_est_s - l.label_search_est_s, "s");
    out.add("engine.events_per_kib", l.engine_events_per_kib, "1/KiB");
    out.add("engine.depth_stack_pushes", l.engine_depth_stack_pushes, "count");
    out.add("engine.skip_share.structural", l.engine_skip_structural, "ratio");
    out.add("engine.skip_share.child", l.engine_skip_child, "ratio");
    out.add("engine.skip_share.sibling", l.engine_skip_sibling, "ratio");
    out.add("engine.skip_share.within", l.engine_skip_within, "ratio");
    out.add("engine.skip_share.head", l.engine_skip_head, "ratio");
    out.add("engine.pipeline_resumes", l.engine_pipeline_resumes, "count");

    out.add("label_search.ns_per_block", l.label_search_ns_per_block, "ns");
    out.add("label_search.hit_ratio", l.label_search_hit_ratio, "ratio");
    out.add("label_search.blocks_share", l.label_search_blocks_share, "ratio");
    out.add("label_search.est_s", l.label_search_est_s, "s");

    out.add("query.parse_us", l.query_parse_us, "us");
    out.add("automaton.compile_us", l.automaton_compile_us, "us");
    out.add("automaton.dfa_states", l.automaton_dfa_states, "count");

    out.add("multi.compile_ms", l.multi_compile_ms, "ms");
    out.add("multi.product_states", l.multi_product_states, "count");
    out.add("multi.backend_sets.product", l.multi_sets_product, "count");
    out.add("multi.backend_sets.lanes", l.multi_sets_lanes, "count");
    out.add("multi.run_s", l.multi_run_s, "s");
    out.add("multi.subscriber_fanout", l.multi_subscriber_fanout, "count");
    out.add("multi.skips_suppressed", l.multi_skips_suppressed, "count");

    out.add("stream.split_ms", l.stream_split_ms, "ms");
    out.add("stream.records", l.stream_records, "count");
    out.add("stream.run_s", l.stream_run_s, "s");

    out.add("project.extend_ns_per_value", l.project_extend_ns_per_value, "ns");
    out.add("project.values", l.project_values, "count");
    out.add("project.bytes", l.project_bytes, "B");
    out.add("project.filter_ns_per_candidate", l.project_filter_ns_per_candidate,
            "ns");
    out.add("project.filter_pass_ratio", l.project_filter_pass_ratio, "ratio");

    static const char* const kKinds[4] = {"single", "fused", "ndjson", "cold"};
    for (int k = 0; k < 4; ++k) {
        out.add(std::string("serve.latency_p50_ms.") + kKinds[k],
                l.serve_latency_p50_ms[k], "ms");
    }
    for (int k = 0; k < 4; ++k) {
        out.add(std::string("serve.inproc_ms.") + kKinds[k], l.serve_inproc_ms[k],
                "ms");
    }
    for (int k = 0; k < 4; ++k) {
        out.add(std::string("serve.overhead_ms.") + kKinds[k],
                l.serve_overhead_ms[k], "ms");
    }
    out.add("serve.cache_hit_ratio", l.serve_cache_hit_ratio, "ratio");
    out.add("serve.generator_late_ms_p99", l.serve_generator_late_ms_p99, "ms");
    out.add("serve.saturation_rps", l.serve_saturation_rps, "1/s");
    out.add("serve.utilization", l.serve_utilization, "ratio");

    out.add("trace.overhead_pct", l.trace_overhead_pct, "%");
    out.add("trace.wall_s", l.trace_wall_s, "s");
    out.add("trace.additivity_error", l.trace_additivity_error, "ratio");
    out.add("trace.spans", l.trace_spans, "count");
}

}  // namespace perfbench
