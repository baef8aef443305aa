#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <memory>
#include <thread>

#include "net/socket.h"
#include "net/wire.h"
#include "trace.h"

namespace emblookup::bench_e2e {

namespace {

// How long replies may trail the last send before the phase gives up on
// them (they then count as failed).
constexpr auto kDrainTimeout = std::chrono::seconds(10);

int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) FailRun("loadgen: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    FailRun("loadgen: cannot connect to port " + std::to_string(port));
  }
  if (!net::SetNoDelay(fd).ok() || !net::SetNonBlocking(fd).ok()) {
    FailRun("loadgen: socket options");
  }
  return fd;
}

// N wire connections plus a timer, multiplexed by one epoll set and
// driven from the calling thread only.
class Mux {
 public:
  Mux(int port, int conns) {
    if (conns < 1 || conns > kMaxConns) FailRun("loadgen: bad conn count");
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
    if (ep_ < 0 || tfd_ < 0) FailRun("loadgen: epoll/timerfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, tfd_, &ev);
    conns_.resize(static_cast<size_t>(conns));
    for (size_t i = 0; i < conns_.size(); ++i) {
      conns_[i].fd = Dial(port);
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
    }
  }
  ~Mux() {
    for (Conn& c : conns_) ::close(c.fd);
    ::close(tfd_);
    ::close(ep_);
  }
  Mux(const Mux&) = delete;
  Mux& operator=(const Mux&) = delete;

  void Send(size_t conn, uint64_t id, const std::string& query, int64_t k) {
    Conn& c = conns_[conn];
    net::AppendLookupRequest(&c.out, id, query, k, /*deadline_us=*/0);
    Flush(conn);
  }

  // Sleeps until `wake_at` or socket activity; hands every decoded reply
  // frame to `on_frame(conn, frame)`.
  template <class F>
  void Poll(Clock::time_point wake_at, F&& on_frame) {
    itimerspec spec{};
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        wake_at.time_since_epoch())
                        .count();
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;
    }
    ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &spec, nullptr);
    epoll_event evs[kMaxConns + 1];
    const int n = ::epoll_wait(ep_, evs, kMaxConns + 1, -1);
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.u64 == kTimerTag) {
        uint64_t expirations = 0;
        [[maybe_unused]] ssize_t r =
            ::read(tfd_, &expirations, sizeof(expirations));
        continue;
      }
      const size_t conn = static_cast<size_t>(evs[i].data.u64);
      if (evs[i].events & EPOLLOUT) Flush(conn);
      if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        Read(conn, on_frame);
      }
    }
  }

 private:
  static constexpr uint64_t kTimerTag = ~0ull;
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    bool want_out = false;
    std::string in;
  };

  void Flush(size_t conn) {
    Conn& c = conns_[conn];
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c.out_off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      FailRun("loadgen: connection lost while sending");
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    const bool want = !c.out.empty();
    if (want != c.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = conn;
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_out = want;
    }
  }

  template <class F>
  void Read(size_t conn, F&& on_frame) {
    Conn& c = conns_[conn];
    char buf[64 << 10];
    while (true) {
      const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
      if (r > 0) {
        c.in.append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      FailRun("loadgen: server closed a connection");
    }
    size_t off = 0;
    while (off < c.in.size()) {
      net::Frame frame;
      auto used = net::DecodeFrame(
          reinterpret_cast<const uint8_t*>(c.in.data()) + off,
          c.in.size() - off, net::kDefaultMaxPayloadBytes, &frame);
      if (!used.ok()) FailRun("loadgen: bad reply frame: " +
                              used.status().ToString());
      if (used.value() == 0) break;
      off += used.value();
      on_frame(conn, frame);
    }
    c.in.erase(0, off);
  }

  int ep_ = -1;
  int tfd_ = -1;
  std::vector<Conn> conns_;
};

// Records one reply frame into `r` at slot `i`.
void RecordReply(const net::Frame& f, size_t i, double latency_us,
                 PhaseResult* r) {
  if (f.type == net::FrameType::kLookupResponse) {
    r->latency_us[i] = latency_us;
    r->ids[i] = f.ids;
    ++r->ok;
    return;
  }
  ++r->failed;
  if (f.type == net::FrameType::kError &&
      f.error_code == StatusCode::kUnavailable) {
    ++r->shed;
  }
}

}  // namespace

PhaseResult OpenLoop(int port, int conns, const std::vector<Query>& queries,
                     const std::vector<double>& due_us, int64_t k) {
  const size_t n = due_us.size();
  PhaseResult r;
  r.latency_us.assign(n, kFailedLatencyUs);
  r.ids.resize(n);
  r.query_index.resize(n);
  Mux mux(port, conns);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](size_t i) {
    return start + std::chrono::nanoseconds(
                       static_cast<int64_t>(due_us[i] * 1000.0));
  };
  size_t next = 0;
  size_t done = 0;
  Clock::time_point drain_deadline = Clock::time_point::max();
  auto on_frame = [&](size_t, const net::Frame& f) {
    const size_t i = static_cast<size_t>(f.request_id - 1);
    if (i >= next) FailRun("loadgen: reply for a request never sent");
    const Clock::time_point now = Clock::now();
    RecordReply(f, i, MicrosBetween(due(i), now), &r);
    Tracer::Add("net.request", due(i), now, -1, f.request_id);
    ++done;
  };
  while (done < n) {
    Clock::time_point now = Clock::now();
    while (next < n && due(next) <= now) {
      const double lag = MicrosBetween(due(next), now);
      if (lag > kLateSendUs) ++r.late_sends;
      if (lag > r.max_lag_us) r.max_lag_us = lag;
      r.query_index[next] = next % queries.size();
      mux.Send(next % static_cast<size_t>(conns), next + 1,
               queries[next % queries.size()].text, k);
      ++r.sent;
      ++next;
      now = Clock::now();
    }
    if (next == n && drain_deadline == Clock::time_point::max()) {
      drain_deadline = now + kDrainTimeout;
    }
    if (now >= drain_deadline) break;
    mux.Poll(next < n ? due(next) : drain_deadline, on_frame);
  }
  r.failed += static_cast<int64_t>(n - done);  // Never answered.
  r.elapsed_s = SecondsSince(start);
  return r;
}

PhaseResult OpenLoopInProcess(serve::LookupServer* server,
                              const std::vector<Query>& queries,
                              const std::vector<double>& due_us, int64_t k) {
  const size_t n = due_us.size();
  struct Slot {
    Clock::time_point end;
    bool ok = false;
    bool shed = false;
    std::vector<int64_t> ids;
  };
  std::vector<Slot> slots(n);
  std::atomic<size_t> remaining{n};
  PhaseResult r;
  r.latency_us.assign(n, kFailedLatencyUs);
  r.ids.resize(n);
  r.query_index.resize(n);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](size_t i) {
    return start + std::chrono::nanoseconds(
                       static_cast<int64_t>(due_us[i] * 1000.0));
  };
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point at = due(i);
    Clock::time_point now = Clock::now();
    if (at - now > std::chrono::microseconds(200)) {
      std::this_thread::sleep_until(at - std::chrono::microseconds(100));
    }
    while ((now = Clock::now()) < at) {
    }
    const double lag = MicrosBetween(at, now);
    if (lag > kLateSendUs) ++r.late_sends;
    if (lag > r.max_lag_us) r.max_lag_us = lag;
    r.query_index[i] = i % queries.size();
    ++r.sent;
    server->SubmitAsync(
        queries[i % queries.size()].text, k, std::chrono::microseconds::zero(),
        [&slots, &remaining, i](Result<serve::LookupResponse> res) {
          Slot& s = slots[i];
          s.end = Clock::now();
          s.ok = res.ok();
          if (res.ok()) {
            s.ids.assign(res.value().ids.begin(), res.value().ids.end());
          } else {
            s.shed = res.status().code() == StatusCode::kUnavailable;
          }
          remaining.fetch_sub(1, std::memory_order_acq_rel);
        });
  }
  const Clock::time_point give_up = Clock::now() + kDrainTimeout;
  while (remaining.load(std::memory_order_acquire) > 0) {
    if (Clock::now() > give_up) FailRun("in-process requests never completed");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    Tracer::Add("serve.submit", due(i), s.end, -1, i + 1);
    if (s.ok) {
      r.latency_us[i] = MicrosBetween(due(i), s.end);
      r.ids[i] = s.ids;
      ++r.ok;
    } else {
      ++r.failed;
      if (s.shed) ++r.shed;
    }
  }
  r.elapsed_s = SecondsSince(start);
  return r;
}

PhaseResult ClosedLoop(int port, int callers, double seconds,
                       const std::vector<Query>& queries, size_t first,
                       int64_t k) {
  PhaseResult r;
  Mux mux(port, callers);
  std::vector<Clock::time_point> sent_at;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  size_t in_flight = 0;
  auto send = [&](size_t conn) {
    const size_t i = sent_at.size();
    sent_at.push_back(Clock::now());
    r.latency_us.push_back(kFailedLatencyUs);
    r.ids.emplace_back();
    const size_t q = (first + i) % queries.size();
    r.query_index.push_back(q);
    mux.Send(conn, i + 1, queries[q].text, k);
    ++r.sent;
    ++in_flight;
  };
  for (int c = 0; c < callers; ++c) send(static_cast<size_t>(c));
  auto on_frame = [&](size_t conn, const net::Frame& f) {
    const size_t i = static_cast<size_t>(f.request_id - 1);
    if (i >= sent_at.size()) FailRun("loadgen: reply for a request never sent");
    const Clock::time_point now = Clock::now();
    RecordReply(f, i, MicrosBetween(sent_at[i], now), &r);
    Tracer::Add("net.request", sent_at[i], now, -1, f.request_id);
    --in_flight;
    if (now < end) send(conn);
  };
  const Clock::time_point drain_deadline = end + kDrainTimeout;
  while (in_flight > 0 && Clock::now() < drain_deadline) {
    mux.Poll(Clock::now() < end ? end : drain_deadline, on_frame);
  }
  r.failed += static_cast<int64_t>(in_flight);
  r.elapsed_s = SecondsSince(start);
  return r;
}

}  // namespace emblookup::bench_e2e
