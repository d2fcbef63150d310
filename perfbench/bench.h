/**
 * @file
 * Shared pieces of the descend end-to-end benchmark: options, the seeded
 * generator, the span tracer, percentile helpers, the peak-RSS window,
 * the host-speed reference clock and the result record every workload
 * fills.
 *
 * The benchmark measures the library from outside: every timing is taken
 * around a call into a public function of one module, never inside it.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from)
{
    return seconds_between(from, Clock::now());
}

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Small inputs, oracle checks and a very short loop. */
    bool smoke = false;
    /** Directory for the result and span files; empty writes none. */
    std::string out_dir;
    std::string git_sha = "unknown";
    std::string git_dirty = "unknown";
};

/** splitmix64: small, fast and fully determined by the seed. */
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    template <typename T>
    void shuffle(std::vector<T>& items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::swap(items[i - 1], items[below(i)]);
        }
    }

private:
    std::uint64_t state_;
};

/** Linear-interpolated percentile of @p values (copied, then sorted). */
double percentile(std::vector<double> values, double p);

inline double median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/**
 * In-memory span recorder. A span has a name, a start and end, the span
 * that caused it (or -1) and the unit of work it belongs to. A disabled
 * tracer records nothing and costs one branch per call.
 */
class Tracer {
public:
    struct Span {
        const char* name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        int parent;
        std::uint64_t unit;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    /** Opens a span; returns its id, or -1 when disabled. */
    int begin(const char* name, int parent, std::uint64_t unit)
    {
        if (!enabled_) {
            return -1;
        }
        spans_.push_back({name, now_ns(), 0, parent, unit});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Records a span whose interval is already known. */
    int record(const char* name, Clock::time_point start, Clock::time_point end,
               int parent, std::uint64_t unit)
    {
        if (!enabled_) {
            return -1;
        }
        spans_.push_back({name, to_ns(start), to_ns(end), parent, unit});
        return static_cast<int>(spans_.size() - 1);
    }

    void end(int id)
    {
        if (id >= 0) {
            spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        }
    }

    const std::vector<Span>& spans() const noexcept { return spans_; }

    /** Sum of the durations of every span named @p name, in seconds. */
    double total_seconds(const std::string& name) const;

    /** Sum of the self times (duration minus the part covered by child
     *  spans) of every span named @p name, in seconds. */
    double self_seconds(const std::string& name) const;

    /** Distinct span names in first-seen order. */
    std::vector<std::string> names() const;

    /** Writes one JSON object per span; false on I/O failure. */
    bool write(const std::string& path, const std::string& header_json) const;

    void reserve(std::size_t n) { spans_.reserve(n); }

private:
    std::int64_t to_ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count();
    }
    std::int64_t now_ns() const { return to_ns(Clock::now()); }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * Peak-RSS growth over a window, from exact resident sizes: start() takes
 * the base (before the inputs are generated, after the benchmark's own
 * buffers are), sample() raises the peak and is called between units (it
 * reads at most every 0.2 s unless forced; loops force one read as they
 * end, before the benchmark's own result processing allocates),
 * growth_mb() reports peak minus base: the inputs plus the program's own
 * memory. The oracle runs inside the window but between samples, and its
 * memory is returned before timing. The kernel's own peak mark (VmHWM)
 * is not used: it rides per-CPU counters that are tens of pages off.
 */
class RssWindow {
public:
    void start();
    void sample(bool force = false);
    double growth_mb() const;

private:
    long base_kib_ = 0;
    long peak_kib_ = 0;
    Clock::time_point last_sample_;
};

/**
 * The host's speed over a run, from a fixed piece of reference work timed
 * alongside the program. A shared host runs this process at different
 * speeds for minutes at a time (neighbours on the same physical cores,
 * clock frequency), which moves every timing of a run together and moves
 * whole runs against each other. The reference work is the benchmark's
 * own code, never the library's: a byte-at-a-time scan of an 8 KiB JSON
 * text (string state, structural characters, nesting depth) over 16
 * passes, compiled once with the benchmark. A change to the library cannot
 * change it.
 *
 * tick() times the work once (about kRefNominalSeconds on a quiet host);
 * finish() cuts the run into kRefWindowSeconds windows and takes each
 * window's median tick. slowdown_at(t) is that median over
 * kRefNominalSeconds for the window holding t (a window without ticks
 * takes the nearest earlier one's, else the next one's; past the last
 * window, the run's median). A timing divided by the slowdown at its time is in
 * reference seconds: what a host would read on which the reference work
 * takes kRefNominalSeconds.
 */
class RefClock {
public:
    /** Room for the ticks of a @p run_seconds run is allocated and touched
     *  here, so construct it before an RSS window starts. */
    explicit RefClock(double run_seconds);

    void tick();

    /** Ticks when at least @p interval_s has passed since the last tick. */
    void tick_every(double interval_s)
    {
        if (count_ == 0 || seconds_since(ticks_[count_ - 1].at) >= interval_s) {
            tick();
        }
    }

    void finish();

    double slowdown_at(Clock::time_point t) const;

    /** Median slowdown over every tick of the run. */
    double median_slowdown() const { return median_slowdown_; }

private:
    struct Tick {
        Clock::time_point at;
        double seconds;
    };

    std::vector<unsigned char> text_;
    std::vector<Tick> ticks_;
    std::size_t count_ = 0;
    Clock::time_point origin_;
    std::vector<double> window_slowdown_;
    double median_slowdown_ = 1;
    unsigned long long sink_ = 0;
};

/** Nominal time of one RefClock tick, and its window (see RefClock). */
constexpr double kRefNominalSeconds = 120e-6;
constexpr double kRefWindowSeconds = 0.25;

/** One reported metric. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** What a workload run produced. */
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when the pre-timing oracle gate found a mismatch. */
    bool oracle_ok = true;
    std::vector<Metric> metrics;
    /** Reported in the result file and on the summary line, but not in
     *  the JSON result: their run-to-run spread exceeds any bound. */
    std::vector<Metric> unbounded;
    /** Run header entries specific to the workload (input bytes, thread
     *  and connection counts), as raw JSON values. */
    std::vector<std::pair<std::string, std::string>> header;
    /** Human-readable remarks carried into the result file. */
    std::vector<std::string> notes;
    /** The traced run's spans, written out at exit; null when untraced. */
    std::unique_ptr<Tracer> tracer;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string text) { notes.push_back(std::move(text)); }
};

/** Latencies and volume of one timed closed or open loop. */
struct LoopResult {
    std::vector<double> latencies_ms;
    /** When each unit started (closed loops) or was due (open loops),
     *  in seconds since the loop began. */
    std::vector<double> at_s;
    /** The unit each latency belongs to (closed loops). */
    std::vector<std::uint32_t> unit_ids;
    /** Closed loops: the throughput estimate in GiB/s. One-thread loops:
     *  one pass with every unit at its own 10th-percentile latency (see
     *  finish_closed_loop); serve: the median window of its closed-loop
     *  segments. 0 when a loop was too short to estimate it. */
    double closed_gibps = 0;
    /** Sampled between units when set. */
    RssWindow* rss = nullptr;
    /** Ticked between units when set. The loop then finishes it, and
     *  latencies_ms and closed_gibps are in reference seconds (see
     *  RefClock); raw_latencies_ms and raw_gibps keep the measured ones. */
    RefClock* ref = nullptr;
    std::vector<double> raw_latencies_ms;
    double raw_gibps = 0;
    /** Time zero of at_s. */
    Clock::time_point started;
    double wall_s = 0;
    std::uint64_t bytes = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * A LoopResult whose latency buffers are allocated and touched up front,
 * so the benchmark's own bookkeeping stays out of the RSS window.
 */
LoopResult prepared_loop(double seconds);

/**
 * Trims the latency buffers to the @p recorded units, moves the latencies
 * to reference seconds when the loop has a RefClock (normalize_latencies)
 * and computes closed_gibps: the bytes of one pass over the time of one
 * pass in which every unit takes its own 10th-percentile latency. A shared
 * host slows some runs of a unit by whole factors; the low decile of
 * hundreds of identical runs follows the code and barely follows the
 * neighbours.
 */
void finish_closed_loop(LoopResult& result, const std::vector<std::size_t>& unit_bytes,
                        std::size_t recorded);

/**
 * Finishes the loop's RefClock, copies latencies_ms to raw_latencies_ms
 * and divides each latency by the host's slowdown at its time (started +
 * at_s). Does nothing without a RefClock.
 */
void normalize_latencies(LoopResult& result);

/** Interval between RefClock ticks inside a closed loop: 2% of its time. */
constexpr double kRefTickInterval = 50 * kRefNominalSeconds;

/**
 * Closed loop, one thread: each pass runs every unit once in a fresh
 * seeded order; the loop stops after the unit that crosses @p seconds.
 * run_unit(unit, unit_id, parent_span) returns whether the unit's output
 * was correct. Each unit is a root span named @p span_name.
 * @p after_pass, when set, runs between passes, outside every unit.
 */
template <typename RunUnit>
void closed_loop(LoopResult& result, const std::vector<std::size_t>& unit_bytes,
                 double seconds, Rng& rng, Tracer& tracer, const char* span_name,
                 RunUnit run_unit, const std::function<void()>& after_pass = nullptr)
{
    std::vector<std::size_t> order(unit_bytes.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::size_t recorded = 0;
    const Clock::time_point start = Clock::now();
    result.started = start;
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (bool done = false; !done;) {
        rng.shuffle(order);
        for (std::size_t unit : order) {
            const std::uint64_t unit_id = result.attempted;
            Clock::time_point t0 = Clock::now();
            int span = tracer.begin(span_name, -1, unit_id);
            bool ok = run_unit(unit, unit_id, span);
            tracer.end(span);
            Clock::time_point t1 = Clock::now();
            if (recorded < result.latencies_ms.size()) {
                result.unit_ids[recorded] = static_cast<std::uint32_t>(unit);
                result.at_s[recorded] = seconds_between(start, t0);
                result.latencies_ms[recorded++] = seconds_between(t0, t1) * 1e3;
            }
            result.bytes += unit_bytes[unit];
            ++result.attempted;
            if (!ok) {
                ++result.failed;
            }
            if (result.rss != nullptr) {
                result.rss->sample();
            }
            if (result.ref != nullptr) {
                result.ref->tick_every(kRefTickInterval);
            }
            if (t1 >= deadline) {
                done = true;
                break;
            }
        }
        if (!done && after_pass) {
            after_pass();
        }
    }
    result.wall_s = seconds_since(start);
    if (result.rss != nullptr) {
        result.rss->sample(true);
    }
    finish_closed_loop(result, unit_bytes, recorded);
}

class SetupTimer;

/**
 * Adds the end-to-end metrics shared by every workload: throughput
 * (closed_gibps, or bytes over wall time when the loop was too short for
 * it), the p50 latency, set-up time and peak-RSS growth; the p99
 * latency goes to the unbounded metrics. Timings are in reference seconds
 * (see RefClock); the measured throughput, p50 and set-up time and the
 * run's median host slowdown go to the unbounded metrics.
 *
 * Latency percentiles are windowed: the run is cut into equal time windows
 * of at least 1000 units each on average, and each percentile is the
 * median over windows of that window's percentile, so one burst of
 * outside load moves one window, not the result. A run of fewer than 1000
 * units reports its p90 as latency_p99_ms, with a note.
 */
void add_end_to_end(Outcome& out, const LoopResult& loop, const SetupTimer& setup,
                    const RefClock& ref, double rss_mb);

/**
 * Every per-layer metric of the traced run. Each workload fills the layers
 * it exercises; the rest stay 0, so every traced run reports the same
 * names. Counts are per pass (each unit of the workload run once).
 */
struct LayerStats {
    double classify_ns_per_block = 0;
    double classify_blocks_share = 0;
    double classify_est_s = 0;

    double engine_run_s = 0;
    double engine_events_per_kib = 0;
    double engine_depth_stack_pushes = 0;
    double engine_skip_structural = 0;
    double engine_skip_child = 0;
    double engine_skip_sibling = 0;
    double engine_skip_within = 0;
    double engine_skip_head = 0;
    double engine_pipeline_resumes = 0;

    double label_search_ns_per_block = 0;
    double label_search_hit_ratio = 0;
    double label_search_blocks_share = 0;
    double label_search_est_s = 0;

    double query_parse_us = 0;
    double automaton_compile_us = 0;
    double automaton_dfa_states = 0;

    double multi_compile_ms = 0;
    double multi_product_states = 0;
    double multi_sets_product = 0;
    double multi_sets_lanes = 0;
    double multi_run_s = 0;
    double multi_subscriber_fanout = 0;
    double multi_skips_suppressed = 0;

    double stream_split_ms = 0;
    double stream_records = 0;
    double stream_run_s = 0;

    double project_extend_ns_per_value = 0;
    double project_values = 0;
    double project_bytes = 0;
    double project_filter_ns_per_candidate = 0;
    double project_filter_pass_ratio = 0;

    /** Indexed single, fused, ndjson, cold; medians over the requests of
     *  each kind. The overhead is per request: its latency minus the
     *  in-process time of the same request. */
    double serve_latency_p50_ms[4] = {};
    double serve_inproc_ms[4] = {};
    double serve_overhead_ms[4] = {};
    double serve_cache_hit_ratio = 0;
    double serve_generator_late_ms_p99 = 0;
    double serve_saturation_rps = 0;
    double serve_utilization = 0;

    double trace_overhead_pct = 0;
    double trace_wall_s = 0;
    double trace_additivity_error = 0;
    double trace_spans = 0;
};

/** Adds every per-layer metric; engine.self_s is derived here as
 *  engine_run_s minus the classify and label_search estimates. */
void add_layer_metrics(Outcome& out, const LayerStats& layers);

/** Returns freed heap memory (the oracle's) to the kernel before timing. */
void release_free_memory();

/** Set-up is timed over at least this long in all, in kSetupBursts
 *  bursts spread over the run (see SetupTimer). */
constexpr double kSetupSeconds = 0.5;
constexpr int kSetupBursts = 25;
constexpr std::size_t kSetupSamples = std::size_t{1} << 15;

/**
 * Set-up timing spread over a run. A shared host runs a process at
 * different speeds for seconds at a time, so set-ups timed in one burst
 * follow the moment of that burst. burst() times the set-up repeatedly for
 * kSetupSeconds / kSetupBursts; after_pass() starts another burst once a
 * further 1/kSetupBursts of the run has passed. median() is the median
 * over every burst's set-ups, each of which leaves the set-up done.
 * @p teardown, when set, runs untimed before each set-up. Room for
 * kSetupSamples times is allocated and touched on construction (later
 * set-ups are timed but not kept), so construct it before an RSS window
 * starts.
 */
class SetupTimer {
public:
    SetupTimer(double run_seconds, std::function<void()> setup,
               std::function<void()> teardown = nullptr)
        : interval_s_(run_seconds / kSetupBursts),
          setup_(std::move(setup)),
          teardown_(std::move(teardown)),
          times_(kSetupSamples, {Clock::now(), 0.0})
    {
    }

    void burst()
    {
        const Clock::time_point begin = Clock::now();
        do {
            if (teardown_) {
                teardown_();
            }
            const Clock::time_point start = Clock::now();
            setup_();
            const double seconds = seconds_since(start);
            if (count_ < times_.size()) {
                times_[count_++] = {start, seconds};
            }
        } while (seconds_since(begin) < kSetupSeconds / kSetupBursts);
        last_ = Clock::now();
    }

    void after_pass()
    {
        if (seconds_since(last_) >= interval_s_) {
            burst();
            // Thousands of set-ups inside the loop churn the heap; hand
            // what they freed back so the RSS window sees the program,
            // not the repetition.
            release_free_memory();
        }
    }

    /** Median set-up time as measured. */
    double median() const
    {
        std::vector<double> seconds;
        for (std::size_t i = 0; i < count_; ++i) {
            seconds.push_back(times_[i].second);
        }
        return perfbench::median(std::move(seconds));
    }

    /** Median set-up time in reference seconds; @p ref must be finished. */
    double median(const RefClock& ref) const
    {
        std::vector<double> seconds;
        for (std::size_t i = 0; i < count_; ++i) {
            seconds.push_back(times_[i].second / ref.slowdown_at(times_[i].first));
        }
        return perfbench::median(std::move(seconds));
    }

private:
    double interval_s_;
    std::function<void()> setup_;
    std::function<void()> teardown_;
    std::vector<std::pair<Clock::time_point, double>> times_;
    std::size_t count_ = 0;
    Clock::time_point last_;
};

/** Times @p setup @p repeats times and returns the median in seconds. */
template <typename Setup>
double median_setup_seconds(int repeats, Setup setup)
{
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
        Clock::time_point start = Clock::now();
        setup();
        times.push_back(seconds_since(start));
    }
    return median(std::move(times));
}


/** JSON string literal for @p text. */
std::string json_string(const std::string& text);

// The four workloads (see README.md in this directory).
Outcome run_scan(const Options& options, bool seek);
Outcome run_fanout(const Options& options);
Outcome run_serve(const Options& options);

}  // namespace perfbench
