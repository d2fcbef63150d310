/**
 * @file
 * descend_perfbench: one workload per invocation.
 *
 *   descend_perfbench --workload scan|seek|fanout|serve --seed N
 *                     --seconds S --trace 0|1 [--smoke]
 *                     [--out-dir DIR] [--git-sha SHA] [--git-dirty 0|1]
 *
 * Generates the workload's inputs from the seed, checks the program's
 * outputs against the oracle, sets up and measures for S seconds, and
 * prints one JSON object as its last line of standard output:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer ones.
 * The line before it gives the unbounded metrics (error_rate and, for an
 * untraced run, the p99 latency, the timings as measured and the host's
 * slowdown). With --out-dir it also writes the result (and, traced, the
 * spans) to files that start with a run header naming the host and the
 * build. The process runs on one CPU (pin_to_one_cpu).
 *
 * Exit status: 0 when every output was correct, 1 on any oracle or
 * per-unit mismatch, 2 on bad usage.
 */
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "descend/obs/counters.h"
#include "descend/simd/dispatch.h"

namespace {

using namespace perfbench;

std::string read_first_line(const std::string& path)
{
    std::ifstream file(path);
    std::string line;
    std::getline(file, line);
    return line;
}

std::string cpu_model()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.compare(0, 10, "model name") == 0) {
            std::size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Size of the first cache of @p level listed for cpu0 ("2048K"). */
std::string cache_size(int level)
{
    for (int index = 0; index < 8; ++index) {
        std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                          std::to_string(index) + "/";
        std::string found = read_first_line(dir + "level");
        if (found.empty()) {
            break;
        }
        if (std::atoi(found.c_str()) == level &&
            read_first_line(dir + "type") != "Instruction") {
            return read_first_line(dir + "size");
        }
    }
    return "unknown";
}

int usable_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return CPU_COUNT(&set);
    }
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/**
 * Confines the process, and every thread it starts later (the serve
 * workload's server threads too), to the last CPU it may use; returns
 * that CPU, or -1 when the mask cannot be read or set. On a shared host
 * each virtual CPU runs at its own speed from moment to moment; on one
 * CPU the RefClock ticks measure the CPU the program runs on.
 */
int pin_to_one_cpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
        return -1;
    }
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &set)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
        }
    }
    return -1;
}

std::string run_header(const Options& options, const Outcome& outcome, int nproc,
                       int pinned_cpu)
{
    const descend::simd::Kernels& kernels = descend::simd::best_kernels();
    std::string h = "{";
    auto field = [&h](const std::string& key, const std::string& json_value) {
        if (h.size() > 1) {
            h += ", ";
        }
        h += json_string(key) + ": " + json_value;
    };
    field("git_sha", json_string(options.git_sha));
    field("git_dirty", json_string(options.git_dirty));
    field("simd_tier", json_string(kernels.name));
    field("cpu_model", json_string(cpu_model()));
    field("nproc", std::to_string(nproc));
    field("pinned_cpu", std::to_string(pinned_cpu));
    field("l2_cache", json_string(cache_size(2)));
    field("l3_cache", json_string(cache_size(3)));
    field("compiler", json_string(PERFBENCH_COMPILER));
    field("descend_obs", descend::obs::kEnabled ? "true" : "false");
    field("workload", json_string(options.workload));
    field("seed", std::to_string(options.seed));
    field("run_seconds", std::to_string(options.seconds));
    field("trace", options.trace ? "true" : "false");
    field("smoke", options.smoke ? "true" : "false");
    field("finished_unix_s", std::to_string(std::time(nullptr)));
    for (const auto& [key, value] : outcome.header) {
        field(key, value);
    }
    return h + "}";
}

std::string format_number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics)
{
    std::string m = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        m += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
             format_number(metrics[i].value) + ", \"unit\": " +
             json_string(metrics[i].unit) + "}";
    }
    return m + "}";
}

std::string result_json(const Outcome& outcome, bool correct)
{
    std::string r = "{\"correct\": ";
    r += correct ? "true" : "false";
    r += ", \"attempted\": " + std::to_string(outcome.attempted);
    r += ", \"failed\": " + std::to_string(outcome.failed);
    return r + ", \"metrics\": " + metrics_json(outcome.metrics) + "}";
}

void write_result_file(const Options& options, const std::string& header,
                       const std::string& result, const Outcome& outcome)
{
    std::string path = options.out_dir + "/" + options.workload + "-seed" +
                       std::to_string(options.seed) + "-trace" +
                       (options.trace ? "1" : "0") + ".json";
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::string notes = "[";
    for (std::size_t i = 0; i < outcome.notes.size(); ++i) {
        notes += (i ? ", " : "") + json_string(outcome.notes[i]);
    }
    notes += "]";
    std::fprintf(file,
                 "{\"header\": %s,\n \"notes\": %s,\n \"unbounded\": %s,\n \"result\": %s}\n",
                 header.c_str(), notes.c_str(), metrics_json(outcome.unbounded).c_str(),
                 result.c_str());
    std::fclose(file);
}

int usage()
{
    std::fprintf(stderr,
                 "usage: descend_perfbench --workload scan|seek|fanout|serve "
                 "--seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR] "
                 "[--git-sha SHA] [--git-dirty 0|1]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (value == nullptr) {
            return usage();
        }
        ++i;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value, nullptr);
        } else if (arg == "--trace") {
            options.trace = std::strcmp(value, "0") != 0;
        } else if (arg == "--out-dir") {
            options.out_dir = value;
        } else if (arg == "--git-sha") {
            options.git_sha = value;
        } else if (arg == "--git-dirty") {
            options.git_dirty = value;
        } else {
            return usage();
        }
    }
    if (options.seconds <= 0) {
        return usage();
    }

    const int nproc = usable_cpus();
    const int pinned_cpu = pin_to_one_cpu();
    Outcome outcome;
    try {
        if (options.workload == "scan" || options.workload == "seek") {
            outcome = run_scan(options, options.workload == "seek");
        } else if (options.workload == "fanout") {
            outcome = run_fanout(options);
        } else if (options.workload == "serve") {
            outcome = run_serve(options);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }

    if (outcome.tracer) {
        for (const std::string& name : outcome.tracer->names()) {
            char line[160];
            std::snprintf(line, sizeof(line), "span %s: total %.6f s, self %.6f s",
                          name.c_str(), outcome.tracer->total_seconds(name),
                          outcome.tracer->self_seconds(name));
            outcome.note(line);
        }
    }
    const double error_rate = outcome.attempted == 0
                                  ? 1.0
                                  : static_cast<double>(outcome.failed) /
                                        static_cast<double>(outcome.attempted);
    outcome.unbounded.push_back({"error_rate", error_rate, "ratio"});
    bool correct = outcome.oracle_ok && outcome.failed == 0 && outcome.attempted > 0;
    std::string header = run_header(options, outcome, nproc, pinned_cpu);
    std::string result = result_json(outcome, correct);
    if (!options.out_dir.empty()) {
        write_result_file(options, header, result, outcome);
        if (outcome.tracer) {
            std::string path = options.out_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               "-trace1.spans.jsonl";
            if (!outcome.tracer->write(path, header)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
            }
        }
    }
    std::fprintf(stderr, "header: %s\n", header.c_str());
    for (const std::string& note : outcome.notes) {
        std::fprintf(stderr, "note: %s\n", note.c_str());
    }
    std::printf("%s: %llu of %llu units failed; unbounded %s\n", options.workload.c_str(),
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted),
                metrics_json(outcome.unbounded).c_str());
    std::printf("%s\n", result.c_str());
    return correct ? 0 : 1;
}
