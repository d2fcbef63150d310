/**
 * @file
 * The `serve` workload: an in-process serve::Server over loopback TCP,
 * driven by one generator thread. Thread budget: 2 server workers + the
 * server's event thread + the generator = 4 threads, all confined to one
 * CPU with the rest of the process (see pin_to_one_cpu in main.cpp): the
 * RefClock ticks on the generator thread then time the CPU the server
 * runs on, and the closed loop measures what one CPU answers.
 *
 * kRounds rounds of two segments. A closed-loop segment keeps every
 * connection busy (each sends its next request as its answer arrives);
 * what the server answers per second there is the throughput and the
 * saturation rate. An open-loop segment then sends seeded Poisson arrivals
 * at the fixed kOfferedRate, a tenth of the saturation rate; each request
 * is timed from the moment it was due, so a stall also counts against the
 * requests queued behind it. Interleaving the segments spreads both
 * measurements over the whole run.
 *
 * Request mix (share of arrivals; kinds as in the serve.* metrics). It is
 * synthetic: no measured trace stands behind the shares.
 *   light   25%  single queries and fused sets on 4 KiB documents, NDJSON
 *                bodies of 32 KiB with projected values, and (8%) cold
 *                filter queries with a unique literal (cache misses)
 *   medium  48%  a hot single query on a 1 MiB document
 *           25%  a hot fused 4-query set on the same document
 *   heavy    2%  the fused set on a 4 MiB document
 *
 * Most requests are medium, so the p50 follows the service time of the
 * single 1 MiB query and the queueing ahead of it rather than the host's
 * thread wake-up latency, which on a shared virtual machine moved the p50
 * of a mix of light requests by half from run to run.
 */
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "corpus.h"
#include "descend/engine/main_engine.h"
#include "descend/multi/fused.h"
#include "descend/project/span.h"
#include "descend/serve/server.h"
#include "descend/stream/record_splitter.h"
#include "descend/stream/stream_executor.h"
#include "descend/workloads/datasets.h"
#include "layers.h"

namespace perfbench {

namespace {

namespace serve = descend::serve;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 8;
/** Open-loop requests per second: about a tenth of this mix's saturation
 *  rate on one CPU of the reference host (370-530/s measured). Each run
 *  notes its own saturation rate. The arrival rate is in wall-clock time,
 *  so a host slowed to half its speed doubles the utilization, and the
 *  queueing that follows is not divided out by the host-speed
 *  normalization: at 100/s the normalized p50 rose by a fifth from runs
 *  at slowdown 1.8 to runs at 2.2. */
constexpr double kOfferedRate = 50;
/** Share of the run spent in the closed-loop segments. */
constexpr double kClosedShare = 0.2;
/** Requests made ready for a closed-loop segment, per second of it: above
 *  any rate one CPU reaches on this mix (the segment ends early
 *  otherwise). */
constexpr double kClosedRateCeiling = 2000;
/** Windows of the closed loop, each normalized by the host's slowdown. */
constexpr double kWindowSeconds = 0.25;
/** Closed-loop + open-loop rounds per run. */
constexpr int kRounds = 10;
/** Untimed closed-loop segment before the rounds: the server's and the
 *  generator's buffers reach their working size, which otherwise slowed
 *  the first timed segment to half the rate of the others. */
constexpr double kWarmSeconds = 1.0;
constexpr std::size_t kSmallDoc = std::size_t{4} << 10;
constexpr std::size_t kMediumDoc = std::size_t{1} << 20;
constexpr std::size_t kLargeDoc = std::size_t{4} << 20;
constexpr std::size_t kNdjsonBody = std::size_t{32} << 10;
constexpr double kDrainSeconds = 2;
/** Idle time an open-loop RefClock tick needs before the next due time. */
constexpr double kIdleTickSeconds = 0.001;

/** Request kinds, in LayerStats' serve index order. */
enum Kind { kSingle = 0, kFused = 1, kNdjson = 2, kCold = 3 };

/** What a response must carry. */
struct Expect {
    std::uint64_t matches = 0;
    std::uint64_t values = 0;
    std::uint64_t value_bytes = 0;
};

/** One distinct request: its frame is encoded once before timing. */
struct Template {
    Kind kind;
    /** Share of arrivals (hot templates; each cold one is sent once). */
    double share;
    serve::Request request;
    std::vector<std::uint8_t> frame;
    Expect expect;
    /** Median in-process time of the same request (traced run only). */
    double inproc_ms = 0;
};

/** One scheduled arrival. */
struct Arrival {
    double due_s;
    std::size_t tmpl;
};

serve::Request make_request(serve::RequestMode mode, std::string query,
                            const std::string& body, std::uint32_t flags = 0)
{
    serve::Request request;
    request.mode = mode;
    request.flags = flags;
    request.query = std::move(query);
    request.body = body;
    return request;
}

/** The query texts of a newline-separated set (the kMulti query field). */
std::vector<std::string> split_lines(const std::string& text)
{
    std::vector<std::string> lines;
    std::size_t begin = 0;
    for (std::size_t nl; (nl = text.find('\n', begin)) != std::string::npos; begin = nl + 1) {
        lines.push_back(text.substr(begin, nl - begin));
    }
    lines.push_back(text.substr(begin));
    return lines;
}

std::string cold_query(double threshold)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "$.products[?(@.regularPrice > %.2f)]", threshold);
    return buf;
}

/**
 * Answers @p request with direct library calls, as the server would with
 * a warm cache (the cold kind compiles, as a cache miss does). Fills the
 * expected response and, for the oracle gate, the offsets and values.
 */
Expect answer_inproc(const serve::Request& request, std::vector<std::uint64_t>* offsets,
                     std::vector<std::string>* values,
                     const descend::DescendEngine* hot_engine,
                     const descend::multi::FusedEngine* hot_fused)
{
    Expect expect;
    descend::PaddedString body(request.body);
    const descend::simd::Kernels& kernels =
        descend::simd::kernels_for(descend::simd::default_level());
    switch (request.mode) {
        case serve::RequestMode::kSingle: {
            descend::OffsetSink sink;
            if (hot_engine != nullptr) {
                hot_engine->run(body, sink);
            } else {
                descend::DescendEngine::for_query(request.query).run(body, sink);
            }
            expect.matches = sink.offsets().size();
            if (offsets != nullptr) {
                offsets->assign(sink.offsets().begin(), sink.offsets().end());
            }
            break;
        }
        case serve::RequestMode::kMulti: {
            std::unique_ptr<descend::multi::FusedEngine> owned;
            if (hot_fused == nullptr) {
                owned = descend::multi::make_fused_engine(split_lines(request.query));
                hot_fused = owned.get();
            }
            descend::multi::CollectingMultiSink sink(hot_fused->query_set().size());
            hot_fused->run(body, sink);
            for (std::size_t q = 0; q < sink.all().size(); ++q) {
                expect.matches += sink.offsets(q).size();
                if (offsets != nullptr) {
                    for (std::size_t offset : sink.offsets(q)) {
                        offsets->push_back(q);
                        offsets->push_back(offset);
                    }
                }
            }
            break;
        }
        case serve::RequestMode::kNdjson: {
            descend::stream::StreamOptions options;
            options.threads = 1;
            descend::stream::StreamExecutor executor(
                hot_engine != nullptr
                    ? hot_engine->compiled_query()
                    : descend::automaton::CompiledQuery::compile(request.query),
                options);
            descend::PaddedView view(body);
            std::vector<descend::stream::RecordSpan> records =
                descend::stream::split_records(view, kernels);
            descend::stream::CollectingStreamSink sink;
            executor.run_records(view, records, sink);
            for (const auto& match : sink.matches()) {
                const descend::stream::RecordSpan& span = records[match.record];
                descend::project::SpanExtender extender(
                    view.subview(span.begin, span.size()), kernels);
                descend::project::ValueSpan value = extender.extend(match.offset);
                ++expect.matches;
                ++expect.values;
                expect.value_bytes += value.size();
                if (offsets != nullptr) {
                    offsets->push_back(span.begin + match.offset);
                }
                if (values != nullptr) {
                    values->emplace_back(extender.slice(value));
                }
            }
            break;
        }
    }
    return expect;
}

/** A loopback connection to the server, non-blocking once connected. */
struct Conn {
    int fd = -1;
    bool busy = false;
    bool dead = false;
    std::size_t arrival = 0;
    const std::vector<std::uint8_t>* frame = nullptr;
    std::size_t sent = 0;
    Clock::time_point send_start;
    std::vector<std::uint8_t> rbuf;
};

int connect_loopback(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** Blocking one-request round trip (oracle gate only). */
bool roundtrip(std::uint16_t port, const serve::Request& request,
               serve::Response& response)
{
    int fd = connect_loopback(port);
    if (fd < 0) {
        return false;
    }
    std::vector<std::uint8_t> frame = serve::encode_request(request);
    bool ok = true;
    for (std::size_t sent = 0; ok && sent < frame.size();) {
        ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
        ok = n > 0;
        sent += ok ? static_cast<std::size_t>(n) : 0;
    }
    std::vector<std::uint8_t> buffer;
    std::uint8_t chunk[64 << 10];
    std::size_t consumed = 0;
    while (ok && !serve::decode_response(buffer.data(), buffer.size(), response, consumed)) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        ok = n > 0;
        if (ok) {
            buffer.insert(buffer.end(), chunk, chunk + n);
        }
    }
    ::close(fd);
    return ok;
}

/** Per-request record of one open-loop run. */
struct Served {
    double latency_ms = -1;  ///< from due time; -1 while unanswered
    double late_ms = 0;      ///< send start minus due time
    bool sent = false;
    bool ok = false;
};

/**
 * The open-loop generator: sends every arrival at its due time on an idle
 * connection (queueing on the client when none is idle), reads responses
 * as they complete and checks each against its template's expectation.
 */
class Generator {
public:
    Generator(std::uint16_t port, const std::vector<Template>& templates)
        : templates_(templates)
    {
        epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
        timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
        if (epoll_fd_ < 0 || timer_fd_ < 0) {
            throw std::runtime_error("generator: epoll/timerfd setup failed");
        }
        add_fd(timer_fd_, EPOLLIN, kTimerTag);
        conns_.resize(kConnections);
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            conns_[i].fd = connect_loopback(port);
            if (conns_[i].fd < 0) {
                throw std::runtime_error("generator: cannot connect to the server");
            }
            ::fcntl(conns_[i].fd, F_SETFL, ::fcntl(conns_[i].fd, F_GETFL) | O_NONBLOCK);
            add_fd(conns_[i].fd, EPOLLIN, i);
        }
    }

    ~Generator()
    {
        for (Conn& conn : conns_) {
            if (conn.fd >= 0) {
                ::close(conn.fd);
            }
        }
        ::close(timer_fd_);
        ::close(epoll_fd_);
    }

    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

    /** Time zero of the last run's schedule. */
    Clock::time_point origin() const noexcept { return origin_; }

    /** Runs @p arrivals (due times relative to the call); fills @p served
     *  and returns the wall time from the first due time to the last
     *  response (or the drain deadline). @p rss, when set, is sampled
     *  between events; @p ref, when set, ticks between events of an open
     *  loop, only while nothing is in flight and the next request is not
     *  due for kIdleTickSeconds: the ticks never delay a request, and no
     *  server thread competes with them for the CPU (in a closed loop
     *  they would time the scheduler's slices, not the host). With
     *  @p stop_s >= 0 no request is sent after
     *  @p stop_s seconds; the rest stay unsent (a closed loop: all due at
     *  0, so each connection sends its next request as its answer
     *  arrives). */
    double run(const std::vector<Arrival>& arrivals, std::vector<Served>& served,
               RssWindow* rss, RefClock* ref, double stop_s = -1)
    {
        arrivals_ = &arrivals;
        served_ = &served;
        served.assign(arrivals.size(), Served{});
        origin_ = Clock::now();
        next_ = 0;
        outstanding_ = 0;
        pending_.clear();
        const double last_due = arrivals.empty() ? 0 : arrivals.back().due_s;
        const Clock::time_point drain_deadline =
            at(std::max(last_due, stop_s) + kDrainSeconds);
        Clock::time_point finished = origin_;
        epoll_event events[64];
        for (;;) {
            Clock::time_point now = Clock::now();
            while (next_ < arrivals.size() && at(arrivals[next_].due_s) <= now) {
                pending_.push_back(next_++);
            }
            if (stop_s >= 0 && now >= at(stop_s)) {
                pending_.clear();
            }
            dispatch_pending();
            if (rss != nullptr) {
                rss->sample();
            }
            if (ref != nullptr && outstanding_ == 0 && pending_.empty() &&
                next_ < arrivals.size() &&
                at(arrivals[next_].due_s) - Clock::now() >
                    std::chrono::duration<double>(kIdleTickSeconds)) {
                ref->tick_every(kRefTickInterval);
            }
            if (next_ == arrivals.size() && pending_.empty() && outstanding_ == 0) {
                finished = Clock::now();
                break;
            }
            if (now >= drain_deadline) {
                finished = now;
                break;
            }
            arm_timer(next_ < arrivals.size() ? at(arrivals[next_].due_s) : drain_deadline);
            int n = ::epoll_wait(epoll_fd_, events, 64, -1);
            for (int i = 0; i < n; ++i) {
                std::uint64_t tag = events[i].data.u64;
                if (tag == kTimerTag) {
                    std::uint64_t expirations;
                    [[maybe_unused]] ssize_t r =
                        ::read(timer_fd_, &expirations, sizeof(expirations));
                    continue;
                }
                Conn& conn = conns_[tag];
                if ((events[i].events & EPOLLOUT) != 0) {
                    continue_send(conn, tag);
                }
                if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
                    receive(conn, tag);
                }
            }
        }
        // Anything still pending or in flight was refused or unanswered;
        // those stay failures (latency -1). Retire their connections.
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            if (conns_[i].busy) {
                retire(conns_[i], i);
            }
        }
        if (rss != nullptr) {
            rss->sample(true);
        }
        return seconds_between(origin_, finished);
    }

private:
    static constexpr std::uint64_t kTimerTag = ~std::uint64_t{0};

    Clock::time_point at(double seconds) const
    {
        return origin_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    }

    void add_fd(int fd, std::uint32_t events, std::uint64_t tag)
    {
        epoll_event ev{};
        ev.events = events;
        ev.data.u64 = tag;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }

    void watch_writable(Conn& conn, std::uint64_t tag, bool on)
    {
        epoll_event ev{};
        ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
        ev.data.u64 = tag;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    }

    void arm_timer(Clock::time_point when)
    {
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      when.time_since_epoch())
                      .count();
        itimerspec spec{};
        spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000);
        spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000);
        if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
            spec.it_value.tv_nsec = 1;
        }
        ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
    }

    void dispatch_pending()
    {
        for (std::size_t i = 0; i < conns_.size() && !pending_.empty(); ++i) {
            Conn& conn = conns_[i];
            if (conn.busy || conn.dead) {
                continue;
            }
            std::size_t arrival = pending_.front();
            pending_.pop_front();
            conn.busy = true;
            conn.arrival = arrival;
            conn.frame = &templates_[(*arrivals_)[arrival].tmpl].frame;
            conn.sent = 0;
            conn.send_start = Clock::now();
            (*served_)[arrival].sent = true;
            (*served_)[arrival].late_ms =
                seconds_between(at((*arrivals_)[arrival].due_s), conn.send_start) * 1e3;
            ++outstanding_;
            continue_send(conn, i);
        }
    }

    void continue_send(Conn& conn, std::uint64_t tag)
    {
        if (!conn.busy || conn.sent == conn.frame->size()) {
            return;
        }
        while (conn.sent < conn.frame->size()) {
            ssize_t n = ::send(conn.fd, conn.frame->data() + conn.sent,
                               conn.frame->size() - conn.sent, MSG_NOSIGNAL);
            if (n > 0) {
                conn.sent += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                watch_writable(conn, tag, true);
                return;
            }
            retire(conn, tag);
            return;
        }
        watch_writable(conn, tag, false);
    }

    void receive(Conn& conn, std::uint64_t tag)
    {
        std::uint8_t chunk[64 << 10];
        for (;;) {
            ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
            if (n > 0) {
                conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break;
            }
            retire(conn, tag);  // closed by the server, or an error
            return;
        }
        serve::Response response;
        std::size_t consumed = 0;
        if (!conn.busy ||
            !serve::decode_response(conn.rbuf.data(), conn.rbuf.size(), response, consumed)) {
            return;
        }
        conn.rbuf.erase(conn.rbuf.begin(),
                        conn.rbuf.begin() + static_cast<std::ptrdiff_t>(consumed));
        const Arrival& arrival = (*arrivals_)[conn.arrival];
        const Expect& expect = templates_[arrival.tmpl].expect;
        Served& served = (*served_)[conn.arrival];
        served.latency_ms = seconds_between(at(arrival.due_s), Clock::now()) * 1e3;
        std::uint64_t value_bytes = 0;
        for (const std::string& value : response.values) {
            value_bytes += value.size();
        }
        served.ok = response.ok() && response.match_count == expect.matches &&
                    response.values.size() == expect.values &&
                    value_bytes == expect.value_bytes;
        conn.busy = false;
        --outstanding_;
    }

    void retire(Conn& conn, std::uint64_t tag)
    {
        if (conn.busy) {
            conn.busy = false;
            --outstanding_;
        }
        conn.dead = true;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
        (void)tag;
    }

    const std::vector<Template>& templates_;
    int epoll_fd_ = -1;
    int timer_fd_ = -1;
    std::vector<Conn> conns_;
    const std::vector<Arrival>* arrivals_ = nullptr;
    std::vector<Served>* served_ = nullptr;
    Clock::time_point origin_;
    std::size_t next_ = 0;
    std::size_t outstanding_ = 0;
    std::deque<std::size_t> pending_;
};

/** The request mix: draws a hot template by share, or else makes a fresh
 *  cold one (unique query text) and appends it to the templates. */
class Mix {
public:
    Mix(std::vector<Template>& templates, std::size_t hot, const std::string& cold_body,
        std::vector<double> cold_thresholds)
        : templates_(templates),
          hot_(hot),
          cold_body_(cold_body),
          cold_thresholds_(std::move(cold_thresholds))
    {
    }

    /** Seeded Poisson arrivals at @p rate over @p seconds. */
    std::vector<Arrival> poisson(double seconds, double rate, Rng& rng)
    {
        std::vector<double> due;
        for (double t = -std::log(1 - rng.unit()) / rate; t < seconds;
             t += -std::log(1 - rng.unit()) / rate) {
            due.push_back(t);
        }
        return assign(due, rng);
    }

    /** @p count arrivals all due at once: a closed loop's request order. */
    std::vector<Arrival> back_to_back(std::size_t count, Rng& rng)
    {
        return assign(std::vector<double>(count, 0.0), rng);
    }

private:
    /**
     * Gives the @p due times templates in a seeded order of a fixed deck:
     * each hot template's share of the arrivals, rounded, and cold ones
     * for the rest. Drawing each arrival's kind at random instead moved
     * the p50 from seed to seed with the share of light requests a run
     * happened to hold. Stops early once the unique cold texts run out
     * (never at the rates used here).
     */
    std::vector<Arrival> assign(const std::vector<double>& due, Rng& rng)
    {
        const double n = static_cast<double>(due.size());
        std::vector<std::size_t> deck;
        double cumulative = 0;
        for (std::size_t t = 0; t < hot_; ++t) {
            const auto from = static_cast<std::size_t>(std::llround(cumulative * n));
            cumulative += templates_[t].share;
            const auto to = static_cast<std::size_t>(std::llround(cumulative * n));
            deck.insert(deck.end(), to - from, t);
        }
        deck.resize(due.size(), kColdSlot);
        rng.shuffle(deck);
        std::vector<Arrival> arrivals;
        for (std::size_t i = 0; i < due.size(); ++i) {
            if (deck[i] == kColdSlot) {
                if (cold_thresholds_.empty()) {
                    break;
                }
                deck[i] = add_cold();
            }
            arrivals.push_back({due[i], deck[i]});
        }
        return arrivals;
    }

    /** A new cold template with the next unique threshold; its index. */
    std::size_t add_cold()
    {
        Template cold{kCold, 0,
                      make_request(serve::RequestMode::kSingle,
                                   cold_query(cold_thresholds_.back()), cold_body_),
                      {}, {}, 0};
        cold_thresholds_.pop_back();
        cold.frame = serve::encode_request(cold.request);
        cold.expect = answer_inproc(cold.request, nullptr, nullptr, nullptr, nullptr);
        templates_.push_back(std::move(cold));
        return templates_.size() - 1;
    }

    static constexpr std::size_t kColdSlot = ~std::size_t{0};

    std::vector<Template>& templates_;
    std::size_t hot_;
    const std::string& cold_body_;
    std::vector<double> cold_thresholds_;
};

std::string ndjson_body(const std::string& dataset, std::size_t bytes)
{
    std::string body;
    for (const std::string& record : compact_records(dataset, bytes * 2, 16 << 10)) {
        if (body.size() + record.size() + 1 > bytes) {
            break;
        }
        body += record;
        body += '\n';
    }
    return body;
}

/** Oracle gate: each hot template (and one cold request outside the
 *  schedule) answered by the server must equal the in-process answer. */
bool oracle_gate(std::uint16_t port, const std::vector<Template>& templates,
                 const std::string& cold_body, Outcome& out)
{
    std::vector<serve::Request> requests;
    for (const Template& t : templates) {
        requests.push_back(t.request);
    }
    requests.push_back(make_request(serve::RequestMode::kSingle, cold_query(0.5), cold_body));
    bool ok = true;
    for (serve::Request request : requests) {
        request.flags |= serve::kWantOffsets;
        std::vector<std::uint64_t> offsets;
        std::vector<std::string> values;
        Expect expect = answer_inproc(request, &offsets, &values, nullptr, nullptr);
        serve::Response response;
        if (!roundtrip(port, request, response) || !response.ok() ||
            response.match_count != expect.matches || response.offsets != offsets ||
            response.values != values) {
            out.note("serve oracle mismatch on query " + request.query);
            ok = false;
        }
    }
    return ok;
}

/** Per-kind samples of the traced half, one entry per answered request. */
struct KindLatency {
    std::vector<double> latency_ms[4];
    std::vector<double> inproc_ms[4];
    std::vector<double> overhead_ms[4];
    std::vector<double> late_ms;
};

/** Folds one open-loop run's latencies and failures into the loop
 *  result (and per-kind samples); the run's due times count from
 *  @p origin, loop.at_s from loop.started. */
void collect(const std::vector<Arrival>& arrivals, const std::vector<Served>& served,
             const std::vector<Template>& templates, LoopResult& loop, KindLatency* kinds,
             Clock::time_point origin)
{
    const double offset_s = seconds_between(loop.started, origin);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Template& t = templates[arrivals[i].tmpl];
        ++loop.attempted;
        if (!served[i].ok) {
            ++loop.failed;
            continue;
        }
        loop.latencies_ms.push_back(served[i].latency_ms);
        loop.at_s.push_back(offset_s + arrivals[i].due_s);
        if (kinds != nullptr) {
            kinds->latency_ms[t.kind].push_back(served[i].latency_ms);
            kinds->inproc_ms[t.kind].push_back(t.inproc_ms);
            kinds->overhead_ms[t.kind].push_back(served[i].latency_ms - t.inproc_ms);
            kinds->late_ms.push_back(served[i].late_ms);
        }
    }
}

/**
 * The closed-loop segments' answers, cut into windows of kWindowSeconds
 * by answer time. The throughput is the answered body bytes of every
 * segment over their time, and the saturation rate the answered requests
 * over it. With a RefClock each window's time is taken in reference
 * seconds (divided by the host's slowdown then, which the open-loop ticks
 * before it measured), so the host's slow stretches do not count against
 * the server. Totals rather than a median
 * window: the 2% of 4 MiB requests make a 0.25 s window's bytes depend on
 * how many of them it happened to hold.
 */
class Saturation {
public:
    /** Adds one segment that started at @p origin and ran for
     *  @p segment_s seconds. Requests left unsent when it ended are not
     *  attempted. */
    void add(const std::vector<Arrival>& arrivals, const std::vector<Served>& served,
             const std::vector<Template>& templates, Clock::time_point origin,
             double segment_s, LoopResult& loop)
    {
        const std::size_t windows =
            std::max<std::size_t>(1, static_cast<std::size_t>(segment_s / kWindowSeconds));
        const double window_s = segment_s / static_cast<double>(windows);
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            if (!served[i].sent) {
                continue;
            }
            ++loop.attempted;
            if (!served[i].ok) {
                ++loop.failed;
                continue;
            }
            // Due at 0, so the latency is the answer time within the segment.
            if (served[i].latency_ms * 1e-3 < segment_s) {
                bytes_ += static_cast<double>(templates[arrivals[i].tmpl].request.body.size());
                answered_ += 1;
            }
        }
        for (std::size_t w = 0; w < windows; ++w) {
            mids_.push_back(origin + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(
                                             (static_cast<double>(w) + 0.5) * window_s)));
        }
        window_s_.push_back(window_s);
        windows_.push_back(windows);
    }

    /** GiB/s over the segments; in reference seconds when @p ref (finished)
     *  is given, as measured otherwise. */
    double gibps(const RefClock* ref) const
    {
        return bytes_ / seconds(ref) / static_cast<double>(1ULL << 30);
    }
    double rps(const RefClock* ref) const { return answered_ / seconds(ref); }

private:
    double seconds(const RefClock* ref) const
    {
        double total = 0;
        std::size_t next = 0;
        for (std::size_t segment = 0; segment < windows_.size(); ++segment) {
            for (std::size_t w = 0; w < windows_[segment]; ++w, ++next) {
                total += window_s_[segment] /
                         (ref != nullptr ? ref->slowdown_at(mids_[next]) : 1.0);
            }
        }
        return total;
    }

    double bytes_ = 0;
    double answered_ = 0;
    std::vector<Clock::time_point> mids_;
    std::vector<double> window_s_;
    std::vector<std::size_t> windows_;
};

}  // namespace

Outcome run_serve(const Options& options)
{
    Outcome out;
    Rng rng(options.seed);
    // The RSS window holds the inputs and the program's memory, and about
    // 1 MB of the benchmark's own buffers sized from the schedule below.
    RssWindow rss;
    rss.start();

    // Inputs.
    const std::size_t medium = options.smoke ? kSmallDoc * 4 : kMediumDoc;
    const std::size_t large = options.smoke ? kSmallDoc * 8 : kLargeDoc;
    const std::string bestbuy_small = descend::workloads::generate("bestbuy", kSmallDoc);
    const std::string bestbuy_medium = descend::workloads::generate("bestbuy", medium);
    const std::string bestbuy_large = descend::workloads::generate("bestbuy", large);
    const std::string twitter_small = descend::workloads::generate("twitter", kSmallDoc);
    const std::string walmart_records = ndjson_body("walmart", kNdjsonBody);
    const std::string twitter_records = ndjson_body("twitter", kNdjsonBody);
    const std::string bestbuy_set =
        "$.products.*.categoryPath.*.id\n$.products.*.sku\n"
        "$.products.*.videoChapters\n$..name";
    using serve::RequestMode;
    auto make_hot = [](Kind kind, double share, serve::Request request) {
        return Template{kind, share, std::move(request), {}, {}, 0};
    };
    // Hot shares sum to 0.92; the remaining 8% of arrivals are cold.
    std::vector<Template> templates = {
        make_hot(kSingle, 0.04,
                 make_request(RequestMode::kSingle, "$.products.*.sku", bestbuy_small)),
        make_hot(kSingle, 0.04,
                 make_request(RequestMode::kSingle, "$.*.entities.urls.*.url", twitter_small)),
        make_hot(kFused, 0.04, make_request(RequestMode::kMulti, bestbuy_set, bestbuy_small)),
        make_hot(kNdjson, 0.025, make_request(RequestMode::kNdjson, "$.name", walmart_records,
                                              serve::kWantValues)),
        make_hot(kNdjson, 0.025, make_request(RequestMode::kNdjson, "$.entities.urls.*.url",
                                              twitter_records, serve::kWantValues)),
        make_hot(kSingle, 0.48,
                 make_request(RequestMode::kSingle, "$..categoryPath..id", bestbuy_medium)),
        make_hot(kFused, 0.25, make_request(RequestMode::kMulti, bestbuy_set, bestbuy_medium)),
        make_hot(kFused, 0.02, make_request(RequestMode::kMulti, bestbuy_set, bestbuy_large)),
    };
    for (Template& t : templates) {
        t.frame = serve::encode_request(t.request);
        t.expect = answer_inproc(t.request, nullptr, nullptr, nullptr, nullptr);
    }
    const std::size_t hot_templates = templates.size();

    // Phases: kRounds rounds of a closed-loop segment and an open-loop
    // segment, spread over the run so that throughput, saturation rate and
    // latency all follow the host over the whole run. A traced run gives
    // the rounds half the open-loop time and ends with one traced
    // open-loop segment.
    const double closed_s = options.seconds * kClosedShare / kRounds;
    const double open_total_s =
        options.seconds * (1 - kClosedShare) / (options.trace ? 2 : 1);
    const double open_s = open_total_s / kRounds;
    const std::size_t closed_count =
        static_cast<std::size_t>(closed_s * kClosedRateCeiling) + kConnections;

    // Unique cold thresholds in a seeded order: quarter steps are exact in
    // binary, so every cold query text is distinct.
    const double warm_s = options.smoke ? closed_s : kWarmSeconds;
    const std::size_t warm_count =
        static_cast<std::size_t>(warm_s * kClosedRateCeiling) + kConnections;
    const std::size_t max_cold = warm_count + kRounds * closed_count +
                                 static_cast<std::size_t>(options.seconds * kOfferedRate) + 64;
    std::vector<double> cold_thresholds;
    for (std::size_t i = 0; i < max_cold; ++i) {
        cold_thresholds.push_back(1.0 + 0.25 * static_cast<double>(i));
    }
    rng.shuffle(cold_thresholds);
    Mix mix(templates, hot_templates, bestbuy_small, std::move(cold_thresholds));
    std::vector<std::vector<Arrival>> closed;
    std::vector<std::vector<Arrival>> open;
    std::size_t open_count = 0;
    const std::vector<Arrival> warm = mix.back_to_back(warm_count, rng);
    for (int r = 0; r < kRounds; ++r) {
        closed.push_back(mix.back_to_back(closed_count, rng));
        open.push_back(mix.poisson(open_s, kOfferedRate, rng));
        open_count = std::max(open_count, open.back().size());
    }
    std::vector<Arrival> traced_arrivals;
    if (options.trace) {
        traced_arrivals = mix.poisson(open_total_s, kOfferedRate, rng);
    }
    std::size_t body_bytes = 0;
    for (const Template& t : templates) {
        body_bytes += t.request.body.size();
    }
    out.header.emplace_back("input_bytes", std::to_string(body_bytes));
    out.header.emplace_back("offered_rate_per_s", std::to_string(kOfferedRate));
    out.header.emplace_back("server_workers", std::to_string(kWorkers));
    out.header.emplace_back("threads", std::to_string(kWorkers + 2));
    out.header.emplace_back("connections", std::to_string(kConnections));

    LoopResult loop;
    loop.latencies_ms.reserve(kRounds * open_count);
    loop.at_s.reserve(kRounds * open_count);
    std::vector<Served> served;
    // Sized and written here; runs reuse it.
    served.assign(std::max({warm_count, closed_count, open_count, traced_arrivals.size()}),
                  Served{});
    RefClock ref(options.seconds);

    // Set-up: server construction and start (bind, listen, spawn threads),
    // timed in bursts before the run and after each segment.
    // The first burst leaves the server under test; the later ones start
    // spare servers that serve nothing and are shut down at once.
    serve::ServerConfig config;
    config.workers = kWorkers;
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<serve::Server> spare;
    std::unique_ptr<serve::Server>* target = &server;
    auto stop = [](std::unique_ptr<serve::Server>& s) {
        if (s) {
            s->shutdown();
            s->wait();
            s.reset();
        }
    };
    SetupTimer setup(
        options.seconds,
        [&] {
            *target = std::make_unique<serve::Server>(config);
            std::string error;
            if (!(*target)->start(error)) {
                throw std::runtime_error("server start failed: " + error);
            }
        },
        [&] { stop(*target); });
    auto spare_burst = [&] {
        target = &spare;
        setup.burst();
        stop(spare);
    };
    release_free_memory();
    setup.burst();
    const std::uint16_t port = server->tcp_port();

    std::vector<Template> hot(templates.begin(),
                              templates.begin() + static_cast<std::ptrdiff_t>(hot_templates));
    out.oracle_ok = oracle_gate(port, hot, bestbuy_small, out);

    // Warm-up: every connection carries every hot request once, so client
    // and server connection buffers have their full size before timing and
    // the RSS peak does not depend on which connection drew which request.
    auto generator = std::make_unique<Generator>(port, templates);
    for (std::size_t t = 0; t < hot_templates; ++t) {
        generator->run(std::vector<Arrival>(kConnections, Arrival{0.0, t}), served, nullptr,
                       nullptr);
    }
    generator->run(warm, served, nullptr, nullptr, warm_s);

    // Each round: a closed-loop segment, in which every connection sends
    // its next request as its answer arrives, so requests queue at the
    // server and both workers stay busy; then an open-loop segment at
    // kOfferedRate, each request timed from its due time.
    serve::CacheStats cache_before = server->cache_stats();
    Saturation saturation;
    loop.ref = &ref;
    loop.started = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
        const double closed_wall_s =
            generator->run(closed[r], served, &rss, nullptr, closed_s);
        // Shorter than closed_s only if the ready requests ran out.
        saturation.add(closed[r], served, templates, generator->origin(),
                       std::min(closed_s, closed_wall_s), loop);
        spare_burst();
        generator->run(open[r], served, &rss, &ref);
        collect(open[r], served, templates, loop, nullptr, generator->origin());
        spare_burst();
    }
    normalize_latencies(loop);
    loop.closed_gibps = saturation.gibps(&ref);
    loop.raw_gibps = saturation.gibps(nullptr);
    const double saturation_rps = saturation.rps(nullptr);
    char note[160];
    std::snprintf(note, sizeof(note),
                  "saturation %.0f requests/s (closed loop); offered %.0f/s, utilization %.2f",
                  saturation_rps, kOfferedRate, kOfferedRate / saturation_rps);
    out.note(note);
    std::fprintf(stderr, "serve: %llu requests in %d rounds, %llu failed\n",
                 static_cast<unsigned long long>(loop.attempted), kRounds,
                 static_cast<unsigned long long>(loop.failed));
    if (!options.trace) {
        add_end_to_end(out, loop, setup, ref, rss.growth_mb());
        generator.reset();
        server->shutdown();
        server->wait();
        return out;
    }
    out.attempted += loop.attempted;
    out.failed += loop.failed;

    // Traced half: the same kind of schedule, each request a span with its
    // generator lateness and its wire + server time as children.
    auto tracer = std::make_unique<Tracer>(true);
    LoopResult traced;
    const double wall_s = generator->run(traced_arrivals, served, nullptr, nullptr);
    const Clock::time_point origin = generator->origin();
    serve::CacheStats cache_after = server->cache_stats();
    generator.reset();
    server->shutdown();
    server->wait();

    // In-process answers of the same requests (hot engines prebuilt, as
    // the cache holds them; cold ones compile).
    const int reps = options.smoke ? 2 : 15;
    for (Template& t : templates) {
        std::unique_ptr<descend::DescendEngine> engine;
        std::unique_ptr<descend::multi::FusedEngine> fused;
        if (t.kind != kCold && t.request.mode != RequestMode::kMulti) {
            engine = std::make_unique<descend::DescendEngine>(
                descend::DescendEngine::for_query(t.request.query));
        }
        if (t.request.mode == RequestMode::kMulti) {
            fused = descend::multi::make_fused_engine(split_lines(t.request.query));
        }
        t.inproc_ms = 1e3 * median_setup_seconds(t.kind == kCold ? 1 : reps, [&] {
            answer_inproc(t.request, nullptr, nullptr, engine.get(), fused.get());
        });
    }

    KindLatency kinds;
    traced.started = origin;
    collect(traced_arrivals, served, templates, traced, &kinds, origin);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    for (std::size_t i = 0; i < traced_arrivals.size(); ++i) {
        if (served[i].latency_ms < 0) {
            continue;
        }
        const double due = traced_arrivals[i].due_s;
        auto at = [&](double s) {
            return origin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(s));
        };
        int span = tracer->record("serve.request", at(due),
                                  at(due + served[i].latency_ms * 1e-3), -1, i);
        tracer->record("serve.late", at(due), at(due + served[i].late_ms * 1e-3), span, i);
        tracer->record("serve.wire", at(due + served[i].late_ms * 1e-3),
                       at(due + served[i].latency_ms * 1e-3), span, i);
    }

    LayerStats l;
    for (int k = 0; k < 4; ++k) {
        l.serve_latency_p50_ms[k] = median(kinds.latency_ms[k]);
        l.serve_inproc_ms[k] = median(kinds.inproc_ms[k]);
        l.serve_overhead_ms[k] = median(kinds.overhead_ms[k]);
    }
    const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses = static_cast<double>(cache_after.misses - cache_before.misses);
    l.serve_cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
    l.serve_generator_late_ms_p99 = percentile(kinds.late_ms, 0.99);
    l.serve_saturation_rps = saturation_rps;
    l.serve_utilization = saturation_rps > 0 ? kOfferedRate / saturation_rps : 0;

    std::vector<descend::PaddedView> bodies;
    std::vector<std::unique_ptr<descend::PaddedString>> padded;
    for (std::size_t i = 0; i < hot_templates; ++i) {
        padded.push_back(std::make_unique<descend::PaddedString>(templates[i].request.body));
        bodies.emplace_back(*padded.back());
    }
    l.classify_ns_per_block =
        probe_classify_ns_per_block(bodies, options.smoke ? 0.001 : 0.03);
    std::vector<std::string> cold_texts;
    for (std::size_t i = hot_templates; i < templates.size() && cold_texts.size() < 32; ++i) {
        cold_texts.push_back(templates[i].request.query);
    }
    CompileProbe compile = probe_compile(cold_texts, options.smoke ? 3 : 21);
    l.query_parse_us = compile.parse_us;
    l.automaton_compile_us = compile.compile_us;
    l.automaton_dfa_states = compile.dfa_states;
    {
        std::vector<std::string> texts = split_lines(bestbuy_set);
        auto engine = descend::multi::make_fused_engine(texts);
        bool product = engine->name().find("product") != std::string::npos;
        (product ? l.multi_sets_product : l.multi_sets_lanes) += 1;
        l.multi_compile_ms += 1e3 * median_setup_seconds(options.smoke ? 1 : 5, [&] {
            descend::multi::make_fused_engine(texts);
        });
    }

    l.trace_wall_s = wall_s;
    l.trace_spans = static_cast<double>(tracer->spans().size());
    const double untraced_p50 = percentile(loop.raw_latencies_ms, 0.5);
    const double traced_p50 = percentile(traced.latencies_ms, 0.5);
    l.trace_overhead_pct = untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0;
    const double request_s = tracer->total_seconds("serve.request");
    l.trace_additivity_error =
        request_s > 0 ? std::fabs(tracer->total_seconds("serve.late") +
                                  tracer->total_seconds("serve.wire") - request_s) /
                            request_s
                      : 0;
    add_layer_metrics(out, l);
    out.tracer = std::move(tracer);
    return out;
}

}  // namespace perfbench
