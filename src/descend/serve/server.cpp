#include "descend/serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <span>
#include <utility>

namespace descend::serve {
namespace {

// epoll user-data ids of the non-connection fds (connections start at 16).
constexpr std::uint64_t kListenId = 1;
constexpr std::uint64_t kWakeId = 2;
constexpr std::uint64_t kShutdownId = 3;

void set_nonblocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
}

/** Clears an eventfd's counter (level-triggered epoll would spin else). */
void drain_eventfd(int fd)
{
    std::uint64_t value = 0;
    while (::read(fd, &value, sizeof(value)) == sizeof(value)) {
    }
}

}  // namespace

/** Event-thread-owned per-connection state. */
struct Server::Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameReader reader;
    /** Response bytes queued for flushing ([out_pos, end) unsent). */
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    /** A request of this connection is with the workers. */
    bool busy = false;
    /** Close once `out` is flushed (poisoned, or drain rejection). */
    bool close_after_flush = false;
    /** Read side disarmed (busy backpressure or poisoned). */
    bool reading = true;
    /** What the epoll registration currently asks for. */
    std::uint32_t armed_events = 0;
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity, config_.cache_shards),
      dispatcher_(config_.policy, cache_)
{
}

Server::~Server()
{
    shutdown();
    wait();
    if (epoll_fd_ >= 0) {
        ::close(epoll_fd_);
    }
    if (wake_fd_ >= 0) {
        ::close(wake_fd_);
    }
    if (shutdown_fd_ >= 0) {
        ::close(shutdown_fd_);
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
    }
    if (!config_.unix_path.empty()) {
        ::unlink(config_.unix_path.c_str());
    }
}

bool Server::open_listener(std::string& error)
{
    if (!config_.unix_path.empty()) {
        if (config_.unix_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
            error = "unix socket path too long: " + config_.unix_path;
            return false;
        }
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listen_fd_ < 0) {
            error = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        ::unlink(config_.unix_path.c_str());
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, config_.unix_path.c_str(),
                    config_.unix_path.size() + 1);
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
            error = "bind " + config_.unix_path + ": " + std::strerror(errno);
            return false;
        }
    } else {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listen_fd_ < 0) {
            error = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(config_.tcp_port);
        if (::inet_pton(AF_INET, config_.tcp_host.c_str(), &addr.sin_addr) !=
            1) {
            error = "bad listen address: " + config_.tcp_host;
            return false;
        }
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
            error = "bind " + config_.tcp_host + ":" +
                    std::to_string(config_.tcp_port) + ": " +
                    std::strerror(errno);
            return false;
        }
        sockaddr_in bound{};
        socklen_t bound_len = sizeof(bound);
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len) == 0) {
            bound_port_ = ntohs(bound.sin_port);
        }
    }
    if (::listen(listen_fd_, 128) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        return false;
    }
    set_nonblocking(listen_fd_);
    return true;
}

bool Server::start(std::string& error)
{
    if (!open_listener(error)) {
        return false;
    }
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    shutdown_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epoll_fd_ < 0 || wake_fd_ < 0 || shutdown_fd_ < 0) {
        error = std::string("epoll/eventfd: ") + std::strerror(errno);
        return false;
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = kListenId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
    event.data.u64 = kWakeId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
    event.data.u64 = kShutdownId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, shutdown_fd_, &event);

    std::size_t workers = config_.workers;
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0) {
            workers = 2;
        }
    }
    running_.store(true, std::memory_order_release);
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    event_thread_ = std::thread([this] { event_loop(); });
    return true;
}

void Server::shutdown() noexcept
{
    if (shutdown_fd_ < 0) {
        return;
    }
    // One write, no locks, no allocation: callable from a signal handler.
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(shutdown_fd_, &one, sizeof(one));
}

void Server::wait()
{
    if (event_thread_.joinable()) {
        event_thread_.join();
    }
}

ServerCounters Server::counters() const
{
    ServerCounters counters;
    counters.connections_accepted =
        accepted_.load(std::memory_order_relaxed);
    counters.requests_served = served_.load(std::memory_order_relaxed);
    counters.protocol_errors =
        protocol_errors_.load(std::memory_order_relaxed);
    counters.shutdown_rejections =
        shutdown_rejections_.load(std::memory_order_relaxed);
    return counters;
}

void Server::worker_loop()
{
    // One scratch (offset sinks) reused across every request this thread
    // ever serves; the bodies arrive padded and run in place.
    RunScratch scratch;
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(jobs_mutex_);
            jobs_cv_.wait(lock,
                          [this] { return stop_workers_ || !jobs_.empty(); });
            if (jobs_.empty()) {
                return;  // stop requested and nothing left to serve
            }
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        Response response =
            dispatcher_.handle(job.request, scratch, &drain_cancel_);
        Completion completion;
        completion.conn_id = job.conn_id;
        completion.bytes = encode_response(response);
        job.request.body = PaddedString{};
        {
            std::lock_guard<std::mutex> lock(completions_mutex_);
            completions_.push_back(std::move(completion));
        }
        std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    }
}

void Server::update_epoll(Connection& conn)
{
    std::uint32_t wanted = 0;
    if (conn.reading && !conn.busy) {
        wanted |= EPOLLIN;
    }
    if (conn.out_pos < conn.out.size()) {
        wanted |= EPOLLOUT;
    }
    if (wanted == conn.armed_events) {
        return;
    }
    epoll_event event{};
    event.events = wanted;
    event.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
    conn.armed_events = wanted;
}

void Server::close_connection(std::uint64_t conn_id)
{
    auto found = connections_.find(conn_id);
    if (found == connections_.end()) {
        return;
    }
    // A busy connection's completion may still be in flight; dropping the
    // entry is enough — drain_completions() tolerates a missing id (the
    // in_flight_ count is settled there either way).
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, found->second->fd, nullptr);
    ::close(found->second->fd);
    connections_.erase(found);
}

void Server::queue_response(Connection& conn, const Response& response)
{
    std::vector<std::uint8_t> bytes = encode_response(response);
    if (conn.out_pos == conn.out.size()) {
        conn.out = std::move(bytes);
        conn.out_pos = 0;
    } else {
        conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
    }
    update_epoll(conn);
}

void Server::launch_request(Connection& conn)
{
    ReceivedRequest request = conn.reader.take_request();
    if (draining_) {
        shutdown_rejections_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.serve_status = ServeStatus::kShuttingDown;
        conn.close_after_flush = true;
        conn.reading = false;
        queue_response(conn, response);
        return;
    }
    conn.busy = true;
    ++in_flight_;
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        jobs_.push_back(Job{conn.id, std::move(request)});
    }
    jobs_cv_.notify_one();
    update_epoll(conn);
}

void Server::accept_ready()
{
    for (;;) {
        int fd = ::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            return;  // EAGAIN (or a transient error; epoll retries us)
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->id = next_conn_id_++;
        conn->reader = FrameReader(config_.frame_limits);
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.u64 = conn->id;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
        conn->armed_events = EPOLLIN;
        connections_.emplace(conn->id, std::move(conn));
    }
}

void Server::connection_readable(Connection& conn)
{
    std::uint8_t chunk[64 << 10];
    for (;;) {
        // Mid-body the kernel copies straight into the request's padded
        // buffer, capped at what the body still needs, so no byte of the
        // next frame lands in it; headers and queries go through a chunk.
        const std::span<std::uint8_t> target = conn.reader.receive_target();
        const bool in_place = !target.empty();
        ssize_t n = in_place ? ::recv(conn.fd, target.data(), target.size(), 0)
                             : ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            if (in_place) {
                conn.reader.commit(static_cast<std::size_t>(n));
            } else {
                conn.reader.feed(chunk, static_cast<std::size_t>(n));
            }
            if (conn.reader.state() == FrameReader::State::kError) {
                break;
            }
            if (conn.reader.state() == FrameReader::State::kReady) {
                break;  // one request at a time; leftover stays buffered
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        // EOF (or a hard error): a frame cut off mid-way still gets its
        // structured kTruncatedFrame response attempt; a clean boundary
        // just closes.
        conn.reader.finish();
        if (conn.reader.state() != FrameReader::State::kError &&
            !conn.busy && conn.out_pos == conn.out.size()) {
            close_connection(conn.id);
            return;
        }
        conn.reading = false;
        conn.close_after_flush = true;
        break;
    }
    if (conn.reader.state() == FrameReader::State::kError) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.serve_status = conn.reader.error();
        conn.reading = false;
        conn.close_after_flush = true;
        queue_response(conn, response);
        return;
    }
    if (conn.reader.state() == FrameReader::State::kReady && !conn.busy) {
        launch_request(conn);
        return;
    }
    update_epoll(conn);
}

void Server::connection_writable(Connection& conn)
{
    while (conn.out_pos < conn.out.size()) {
        ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                           conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_pos += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            update_epoll(conn);
            return;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        close_connection(conn.id);  // peer is gone; nothing to flush to
        return;
    }
    conn.out.clear();
    conn.out_pos = 0;
    if (conn.close_after_flush && !conn.busy) {
        close_connection(conn.id);
        return;
    }
    update_epoll(conn);
}

void Server::drain_completions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        batch.swap(completions_);
    }
    for (Completion& completion : batch) {
        --in_flight_;
        served_.fetch_add(1, std::memory_order_relaxed);
        auto found = connections_.find(completion.conn_id);
        if (found == connections_.end()) {
            continue;  // the connection died while its request ran
        }
        Connection& conn = *found->second;
        conn.busy = false;
        if (conn.out_pos == conn.out.size()) {
            conn.out = std::move(completion.bytes);
            conn.out_pos = 0;
        } else {
            conn.out.insert(conn.out.end(), completion.bytes.begin(),
                            completion.bytes.end());
        }
        // Flush eagerly: the socket buffer is almost always writable, so
        // most responses never need an EPOLLOUT round-trip.
        connection_writable(conn);
        auto still = connections_.find(completion.conn_id);
        if (still == connections_.end()) {
            continue;
        }
        // The reader may already hold the client's next pipelined frame.
        if (still->second->reader.state() == FrameReader::State::kReady &&
            !still->second->busy) {
            launch_request(*still->second);
        } else {
            update_epoll(*still->second);
        }
    }
}

void Server::event_loop()
{
    using Clock = std::chrono::steady_clock;
    epoll_event events[64];
    for (;;) {
        int timeout_ms = -1;
        if (draining_) {
            Clock::time_point next =
                drain_cancelled_ ? hard_deadline_ : drain_deadline_;
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            next - Clock::now())
                            .count();
            timeout_ms = left < 10 ? 10 : static_cast<int>(left);
        }
        int ready = ::epoll_wait(epoll_fd_, events,
                                 static_cast<int>(std::size(events)),
                                 timeout_ms);
        if (ready < 0 && errno != EINTR) {
            break;  // epoll itself failed; nothing sane left to do
        }
        for (int i = 0; i < ready; ++i) {
            const std::uint64_t id = events[i].data.u64;
            if (id == kListenId) {
                accept_ready();
                continue;
            }
            if (id == kWakeId) {
                drain_eventfd(wake_fd_);
                drain_completions();
                continue;
            }
            if (id == kShutdownId) {
                drain_eventfd(shutdown_fd_);
                if (!draining_) {
                    draining_ = true;
                    drain_deadline_ = Clock::now() + std::chrono::milliseconds(
                                                        config_.drain_ms);
                    hard_deadline_ =
                        drain_deadline_ + std::chrono::milliseconds(1000);
                    // Stop accepting: the listener goes away entirely.
                    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_,
                                nullptr);
                    ::close(listen_fd_);
                    listen_fd_ = -1;
                }
                continue;
            }
            auto found = connections_.find(id);
            if (found == connections_.end()) {
                continue;  // closed earlier in this batch
            }
            Connection& conn = *found->second;
            if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
                (events[i].events & EPOLLIN) == 0) {
                if (!conn.busy) {
                    close_connection(id);
                    continue;
                }
                conn.reading = false;
                conn.close_after_flush = true;
            }
            if ((events[i].events & EPOLLIN) != 0) {
                connection_readable(conn);
            }
            auto still = connections_.find(id);
            if (still != connections_.end() &&
                (events[i].events & EPOLLOUT) != 0) {
                connection_writable(*still->second);
            }
        }
        if (draining_) {
            const Clock::time_point now = Clock::now();
            if (!drain_cancelled_ && now >= drain_deadline_) {
                // Patience over: every in-flight engine run sees this at
                // its next batch refill and returns kCancelled.
                drain_cancel_.cancel();
                drain_cancelled_ = true;
            }
            bool flushed = true;
            for (const auto& [id, conn] : connections_) {
                if (conn->busy || conn->out_pos < conn->out.size()) {
                    flushed = false;
                    break;
                }
            }
            if ((in_flight_ == 0 && flushed) || now >= hard_deadline_) {
                break;
            }
        }
    }
    // Stop the workers (queue is empty by the drain condition; on the
    // hard-deadline path leftovers are abandoned deliberately).
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        stop_workers_ = true;
        jobs_.clear();
    }
    jobs_cv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
    std::vector<std::uint64_t> open;
    open.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) {
        open.push_back(id);
    }
    for (std::uint64_t id : open) {
        close_connection(id);
    }
    running_.store(false, std::memory_order_release);
}

}  // namespace descend::serve
