/**
 * @file
 * descend-serve: the long-lived JSONPath query daemon.
 *
 *   descend-serve --socket /path/sock [options]
 *   descend-serve --port N [--host H]  [options]
 *
 * Accepts length-prefixed binary frames (see src/descend/serve/protocol.h
 * and DESIGN.md §4.9) carrying one query + document each, over a Unix or
 * loopback TCP socket, and answers with match counts, optional offsets,
 * and optional obs stats. Compiled query automata are cached across
 * requests (sharded LRU), so a steady query mix pays compilation once.
 *
 * Options:
 *
 *   --socket PATH        listen on a Unix socket at PATH
 *   --host H --port N    listen on TCP H:N (default host 127.0.0.1;
 *                        port 0 picks an ephemeral port, printed on
 *                        startup). Exactly one of --socket/--port.
 *   --workers N          request worker threads (default: all cores)
 *   --cache-capacity N   compiled-query cache entries (default 256)
 *   --cache-shards N     cache lock shards (default 8)
 *   --drain-ms N         SIGTERM drain grace before in-flight requests
 *                        are cancelled (default 5000)
 *   --default-deadline-ms N   deadline for requests that set none (0 =
 *                        none, the default)
 *   --max-deadline-ms N  per-tenant deadline cap (0 = uncapped)
 *   --max-depth N        server-wide EngineLimits::max_depth ceiling
 *   --max-matches N      server-wide EngineLimits::max_match_count ceiling
 *   --max-query-bytes N  frame admission cap on query text (default 64K)
 *   --max-body-bytes N   frame admission cap on document size (default 64M)
 *   --max-projected-bytes N  per-response projected-values cap: oversized
 *                        result sets truncate at a value boundary and set
 *                        the values-truncated flag (default 64M, 0 = off)
 *   --simd LEVEL         kernel tier: scalar | avx2 | avx512
 *   --no-within-skip     disable the within-element label skip extension
 *   --help               this text
 *
 * On startup prints exactly one "listening on ..." line to stdout (and
 * flushes), so supervisors can wait for readiness. SIGTERM/SIGINT start
 * the graceful drain: stop accepting, answer new frames kShuttingDown,
 * let in-flight requests finish for --drain-ms, then cancel them.
 *
 * Exit codes: 0 clean shutdown, 2 usage error, 5 socket setup failure.
 */
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "descend/serve/server.h"
#include "descend/simd/dispatch.h"

namespace {

using namespace descend;

serve::Server* g_server = nullptr;

void handle_signal(int)
{
    if (g_server != nullptr) {
        g_server->shutdown();  // async-signal-safe: one eventfd write
    }
}

void usage()
{
    std::fputs(
        "usage: descend-serve --socket PATH | --port N [--host H]\n"
        "  --workers N | --cache-capacity N | --cache-shards N\n"
        "  --drain-ms N | --default-deadline-ms N | --max-deadline-ms N\n"
        "  --max-depth N | --max-matches N\n"
        "  --max-query-bytes N | --max-body-bytes N | --max-projected-bytes N\n"
        "  --simd scalar|avx2|avx512\n"
        "  --no-within-skip\n"
        "exit codes: 0 clean shutdown, 2 usage, 5 socket failure\n",
        stderr);
}

bool parse_u64(const char* text, std::uint64_t& value)
{
    char* end = nullptr;
    value = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv)
{
    serve::ServerConfig config;
    bool have_endpoint = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_u64 = [&](std::uint64_t& value) {
            return ++i < argc && parse_u64(argv[i], value);
        };
        std::uint64_t value = 0;
        if (arg == "--socket") {
            if (++i >= argc) {
                usage();
                return 2;
            }
            config.unix_path = argv[i];
            have_endpoint = true;
        } else if (arg == "--host") {
            if (++i >= argc) {
                usage();
                return 2;
            }
            config.tcp_host = argv[i];
        } else if (arg == "--port") {
            if (!next_u64(value) || value > 65535) {
                usage();
                return 2;
            }
            config.tcp_port = static_cast<std::uint16_t>(value);
            have_endpoint = true;
        } else if (arg == "--workers") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.workers = static_cast<std::size_t>(value);
        } else if (arg == "--cache-capacity") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.cache_capacity = static_cast<std::size_t>(value);
        } else if (arg == "--cache-shards") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.cache_shards = static_cast<std::size_t>(value);
        } else if (arg == "--drain-ms") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.drain_ms = static_cast<std::uint32_t>(value);
        } else if (arg == "--default-deadline-ms") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.policy.default_deadline_ms =
                static_cast<std::uint32_t>(value);
        } else if (arg == "--max-deadline-ms") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.policy.max_deadline_ms = static_cast<std::uint32_t>(value);
        } else if (arg == "--max-depth") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.policy.engine.limits.max_depth =
                static_cast<std::size_t>(value);
        } else if (arg == "--max-matches") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.policy.engine.limits.max_match_count =
                static_cast<std::size_t>(value);
        } else if (arg == "--max-query-bytes") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.frame_limits.max_query_bytes =
                static_cast<std::size_t>(value);
        } else if (arg == "--max-body-bytes") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.frame_limits.max_body_bytes =
                static_cast<std::size_t>(value);
        } else if (arg == "--max-projected-bytes") {
            if (!next_u64(value)) {
                usage();
                return 2;
            }
            config.policy.max_projected_bytes =
                static_cast<std::size_t>(value);
        } else if (arg == "--simd" || arg.rfind("--simd=", 0) == 0) {
            const char* level = nullptr;
            if (arg == "--simd") {
                if (++i >= argc) {
                    usage();
                    return 2;
                }
                level = argv[i];
            } else {
                level = arg.c_str() + std::strlen("--simd=");
            }
            if (!simd::parse_level(level, config.policy.engine.simd)) {
                std::fprintf(stderr, "descend-serve: unknown SIMD level '%s'\n",
                             level);
                return 2;
            }
        } else if (arg == "--no-within-skip") {
            config.policy.engine.label_within_skipping = false;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 2;
        } else {
            std::fprintf(stderr, "descend-serve: unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }
    if (!have_endpoint) {
        usage();
        return 2;
    }

    serve::Server server(config);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "descend-serve: %s\n", error.c_str());
        return 5;
    }
    g_server = &server;
    struct sigaction action {};
    action.sa_handler = handle_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    if (!config.unix_path.empty()) {
        std::printf("listening on unix:%s\n", config.unix_path.c_str());
    } else {
        std::printf("listening on tcp:%s:%u\n", config.tcp_host.c_str(),
                    static_cast<unsigned>(server.tcp_port()));
    }
    std::fflush(stdout);

    server.wait();
    g_server = nullptr;

    const serve::ServerCounters counters = server.counters();
    const serve::CacheStats cache = server.cache_stats();
    std::fprintf(stderr,
                 "descend-serve: served %llu requests over %llu connections "
                 "(%llu protocol errors, %llu drain rejections); "
                 "cache %llu hits / %llu misses / %llu evictions\n",
                 static_cast<unsigned long long>(counters.requests_served),
                 static_cast<unsigned long long>(
                     counters.connections_accepted),
                 static_cast<unsigned long long>(counters.protocol_errors),
                 static_cast<unsigned long long>(
                     counters.shutdown_rejections),
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses),
                 static_cast<unsigned long long>(cache.evictions));
    return 0;
}
