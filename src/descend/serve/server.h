/**
 * @file
 * The descend-serve daemon core: a long-lived query service over a Unix or
 * loopback TCP socket.
 *
 * Threading model — sockets and engines never share a thread:
 *
 *   - One *event thread* owns every fd. It epoll-waits (level-triggered)
 *     on the listener, the connections, and two eventfds (worker wakeup,
 *     shutdown), accepts, reads bytes into each connection's FrameReader,
 *     and writes queued response bytes back out. It never runs an engine.
 *     Once a frame's header and query are decoded, it recv()s the rest of
 *     the body straight into the request's padded buffer (the kernel's
 *     copy is the body's only one).
 *   - N *worker threads* pop decoded requests from a queue, run the
 *     engines in place on each body through the shared Dispatcher (each
 *     worker owns one RunScratch, so offset vectors are reused across
 *     every request the worker serves), encode the response bytes, free
 *     the body, and hand the bytes back to the event thread through a
 *     completion queue + eventfd.
 *
 * Each connection has at most one request in flight: while a request is
 * with the workers the connection's read side is disarmed, so pipelining
 * clients are backpressured by the kernel socket buffer instead of
 * unbounded server-side buffering. A protocol violation poisons the
 * connection: the structured error response is flushed and the connection
 * closed — garbage never crashes the server (see protocol.h).
 *
 * Graceful drain: shutdown() is async-signal-safe (one eventfd write; the
 * daemon calls it straight from its SIGTERM handler). The event thread
 * then stops accepting, answers any *new* frame with kShuttingDown, and
 * lets in-flight requests finish until drain_ms elapses — at which point
 * the server's drain CancelToken (threaded by the dispatcher into every
 * request budget) fires and the engines return kCancelled at the next
 * batch boundary. Responses still flush; a final hard deadline bounds the
 * total drain regardless of client behaviour.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "descend/engine/scratch.h"
#include "descend/serve/dispatch.h"
#include "descend/serve/protocol.h"
#include "descend/serve/query_cache.h"
#include "descend/util/budget.h"

namespace descend::serve {

/** Everything the daemon needs to come up. */
struct ServerConfig {
    /** Non-empty: listen on this Unix socket path (existing file of the
     *  same name is replaced). Empty: listen on TCP tcp_host:tcp_port. */
    std::string unix_path;
    std::string tcp_host = "127.0.0.1";
    /** 0 picks an ephemeral port; tcp_port() reports the choice. */
    std::uint16_t tcp_port = 0;
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    std::size_t workers = 0;
    /** Wire admission limits (checked from frame headers alone). */
    FrameLimits frame_limits;
    /** Engine defaults + tenant caps shared by every request. */
    ServePolicy policy;
    /** Compiled-automaton cache geometry. */
    std::size_t cache_capacity = 256;
    std::size_t cache_shards = 8;
    /** How long a drain lets in-flight requests finish before the drain
     *  CancelToken cuts them short. */
    std::uint32_t drain_ms = 5000;
};

/** Monotonic server-level tallies (the cache keeps its own). */
struct ServerCounters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t requests_served = 0;
    /** Connections poisoned by a malformed frame. */
    std::uint64_t protocol_errors = 0;
    /** Frames answered kShuttingDown during a drain. */
    std::uint64_t shutdown_rejections = 0;
};

class Server {
public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Binds, listens, and spawns the event thread + workers. Returns false
     * with @p error set when the socket cannot be set up (nothing is
     * spawned then). Call at most once.
     */
    bool start(std::string& error);

    /**
     * Initiates the graceful drain. Async-signal-safe (a single eventfd
     * write) and idempotent; returns immediately — wait() observes the
     * actual termination.
     */
    void shutdown() noexcept;

    /** Joins the event thread (which joins the workers on its way out). */
    void wait();

    bool running() const noexcept
    {
        return running_.load(std::memory_order_acquire);
    }

    /** The bound TCP port (resolved when config asked for ephemeral 0);
     *  0 for Unix-socket servers. Valid after start(). */
    std::uint16_t tcp_port() const noexcept { return bound_port_; }

    ServerCounters counters() const;

    CacheStats cache_stats() const { return cache_.stats(); }

    const ServePolicy& policy() const noexcept
    {
        return dispatcher_.policy();
    }

private:
    struct Connection;

    struct Job {
        std::uint64_t conn_id = 0;
        /** Its body is freed once the worker has encoded the response. */
        ReceivedRequest request;
    };

    struct Completion {
        std::uint64_t conn_id = 0;
        std::vector<std::uint8_t> bytes;
    };

    bool open_listener(std::string& error);

    void event_loop();
    void worker_loop();

    void accept_ready();
    void connection_readable(Connection& conn);
    void connection_writable(Connection& conn);
    void drain_completions();
    /** Queues @p response's bytes on the connection for the event thread
     *  to flush. */
    void queue_response(Connection& conn, const Response& response);
    /** Hands the reader's ready request to the workers (or answers
     *  kShuttingDown during a drain). */
    void launch_request(Connection& conn);
    void update_epoll(Connection& conn);
    void close_connection(std::uint64_t conn_id);

    ServerConfig config_;
    QueryCache cache_;
    Dispatcher dispatcher_;
    /** Fired when the drain deadline passes; rides every request budget. */
    CancelToken drain_cancel_;

    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    /** Worker → event thread doorbell (completions are ready). */
    int wake_fd_ = -1;
    /** shutdown() → event thread doorbell. */
    int shutdown_fd_ = -1;
    std::uint16_t bound_port_ = 0;

    std::thread event_thread_;
    std::vector<std::thread> workers_;

    std::mutex jobs_mutex_;
    std::condition_variable jobs_cv_;
    std::deque<Job> jobs_;
    bool stop_workers_ = false;

    std::mutex completions_mutex_;
    std::vector<Completion> completions_;

    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> shutdown_rejections_{0};

    // --- event-thread-only state (no locking; one owner) ---
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
    std::uint64_t next_conn_id_ = 16;
    bool draining_ = false;
    bool drain_cancelled_ = false;
    std::chrono::steady_clock::time_point drain_deadline_{};
    std::chrono::steady_clock::time_point hard_deadline_{};
    /** Requests queued or running with the workers. */
    std::size_t in_flight_ = 0;
};

}  // namespace descend::serve
