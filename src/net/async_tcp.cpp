#include "net/async_tcp.h"

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/clock.h"
#include "common/error.h"
#include "common/socket_util.h"
#include "net/net_obs.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace pisces::net {

namespace {

// Process-wide aggregates; per-peer counters are registered lazily as
// net.peer.<id>.* when a peer first exchanges traffic.
struct NetCounters {
  obs::Counter& reconnects = obs::RegisterCounter(
      "net.reconnects", "async-TCP connections re-established after loss");
  obs::Counter& heartbeat_misses = obs::RegisterCounter(
      "net.heartbeat_misses", "supervision windows a peer stayed silent");
  obs::Counter& backpressure_stalls = obs::RegisterCounter(
      "net.backpressure_stalls", "Send() calls that blocked on a full queue");
  obs::Counter& frames_sent = obs::RegisterCounter(
      "net.frames_sent", "frames fully written to peer sockets");
  obs::Counter& frames_received = obs::RegisterCounter(
      "net.frames_received", "message frames parsed off peer sockets");
  obs::Counter& bytes_sent = obs::RegisterCounter(
      "net.bytes_sent", "bytes written to peer sockets");
  obs::Counter& bytes_received = obs::RegisterCounter(
      "net.bytes_received", "bytes read from peer sockets");
  obs::Counter& frames_dropped = obs::RegisterCounter(
      "net.frames_dropped", "frames dropped after the backpressure budget");
  obs::Counter& frames_rejected = obs::RegisterCounter(
      "net.frames_rejected",
      "frames rejected before allocation (oversize prefix or parse failure)");
};

NetCounters& Counters() {
  static NetCounters c;
  return c;
}

}  // namespace

AsyncTcpEndpoint::AsyncTcpEndpoint(AsyncTcpOptions opts)
    : opts_(opts), jitter_rng_(opts.seed ^ 0x9e3779b97f4a7c15ull) {
  IgnoreSigpipe();
  Counters();  // register aggregates before the first snapshot
  listen_fd_ = ListenLoopback(opts_.listen_port);
  opts_.listen_port = LocalPort(listen_fd_);  // resolves a requested port 0
  SetNonBlocking(listen_fd_, true);
  // Pre-thread-start: the reactor is not running yet, so touching the loop
  // from this thread is safe.
  loop_.AddFd(listen_fd_, EventLoop::kReadable,
              [this](std::uint32_t) { OnListenReady(); });
  loop_.AddTimer(opts_.heartbeat_interval_ms, [this] { HeartbeatTick(); });
  loop_thread_ = std::thread([this] { LoopMain(); });
}

AsyncTcpEndpoint::~AsyncTcpEndpoint() {
  stopping_ = true;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    send_cv_.notify_all();
    recv_cv_.notify_all();
  }
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Reactor is dead; tear down fds without it.
  for (auto& [fd, in] : inbound_) CloseQuiet(fd);
  for (auto& [id, p] : peers_) {
    if (p.fd >= 0) CloseQuiet(p.fd);
  }
  if (listen_fd_ >= 0) CloseQuiet(listen_fd_);
}

void AsyncTcpEndpoint::AddPeer(std::uint32_t peer_id, std::uint16_t port) {
  std::lock_guard<std::mutex> lk(mutex_);
  peers_[peer_id].port = port;
}

std::uint64_t AsyncTcpEndpoint::NowMs() const {
  return MonotonicNanos() / 1'000'000;
}

// ---- application-thread API ------------------------------------------------

void AsyncTcpEndpoint::Send(Message msg) {
  msg.from = opts_.id;
  if (msg.to == opts_.id) {  // local delivery; no socket round-trip
    std::lock_guard<std::mutex> lk(mutex_);
    recv_queue_bytes_ += msg.WireSize();
    recv_queue_.push_back(std::move(msg));
    recv_cv_.notify_one();
    return;
  }

  const Bytes body = msg.Serialize();
  Bytes frame(4 + body.size());
  StoreLe32(static_cast<std::uint32_t>(body.size()), frame.data());
  std::copy(body.begin(), body.end(), frame.begin() + 4);
  CountSend(msg.type, msg.WireSize());

  std::unique_lock<std::mutex> lk(mutex_);
  auto it = peers_.find(msg.to);
  Require(it != peers_.end() && it->second.port != 0,
          "AsyncTcpEndpoint::Send: unknown peer");
  Peer& p = it->second;
  p.supervised = true;

  if (p.queue_bytes + frame.size() > opts_.send_queue_cap_bytes) {
    // Backpressure: stall (bounded), never buffer unboundedly.
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    Counters().backpressure_stalls.Add();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts_.backpressure_stall_ms);
    while (!stopping_ &&
           p.queue_bytes + frame.size() > opts_.send_queue_cap_bytes) {
      if (send_cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
    if (stopping_ ||
        p.queue_bytes + frame.size() > opts_.send_queue_cap_bytes) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      Counters().frames_dropped.Add();
      p.stats.frames_dropped++;
      return;  // loss, which every protocol layer already tolerates
    }
  }
  EnqueueLocked(p, std::move(frame));
  lk.unlock();
  loop_.Wakeup();  // reactor connects / drains as needed
}

void AsyncTcpEndpoint::EnqueueLocked(Peer& p, Bytes frame) {
  p.queue_bytes += frame.size();
  p.queue.push_back(std::move(frame));
}

std::optional<Message> AsyncTcpEndpoint::Receive() {
  return ReceiveWait(0);
}

std::optional<Message> AsyncTcpEndpoint::ReceiveWait(int timeout_ms) {
  std::unique_lock<std::mutex> lk(mutex_);
  if (timeout_ms > 0) {
    recv_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                      [this] { return !recv_queue_.empty() || stopping_; });
  }
  if (recv_queue_.empty()) return std::nullopt;
  Message m = std::move(recv_queue_.front());
  recv_queue_.pop_front();
  const std::size_t sz = m.WireSize();
  recv_queue_bytes_ = recv_queue_bytes_ > sz ? recv_queue_bytes_ - sz : 0;
  if (reading_paused_ && recv_queue_bytes_ < opts_.recv_queue_cap_bytes / 2) {
    lk.unlock();
    loop_.Wakeup();  // ServiceKicks resumes reading below the low-water mark
  }
  return m;
}

bool AsyncTcpEndpoint::PeerHealthy(std::uint32_t peer_id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = peers_.find(peer_id);
  if (it == peers_.end() || it->second.last_heard_ms == 0) return false;
  const std::uint64_t window = opts_.heartbeat_interval_ms *
                               static_cast<std::uint64_t>(
                                   opts_.heartbeat_miss_limit);
  return NowMs() - it->second.last_heard_ms <= window;
}

AsyncTcpEndpoint::PeerStats AsyncTcpEndpoint::StatsFor(
    std::uint32_t peer_id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = peers_.find(peer_id);
  return it == peers_.end() ? PeerStats{} : it->second.stats;
}

// ---- reactor thread --------------------------------------------------------

void AsyncTcpEndpoint::LoopMain() {
  while (!stopping_) {
    loop_.PollOnce(-1);
    if (stopping_) break;
    // Service cross-thread kicks: fresh send-queue data and read resumption.
    std::lock_guard<std::mutex> lk(mutex_);
    if (reading_paused_ &&
        recv_queue_bytes_ < opts_.recv_queue_cap_bytes / 2) {
      reading_paused_ = false;
      UpdateReadInterest();
    }
    for (auto& [id, p] : peers_) {
      if (p.queue.empty()) continue;
      if (p.state == Peer::State::kDown && p.retry_timer == 0 && p.port != 0) {
        StartConnect(id);
      } else if (p.state == Peer::State::kConnected) {
        DrainSendQueue(id);
      }
    }
  }
}

void AsyncTcpEndpoint::UpdateReadInterest() {
  const std::uint32_t interest =
      reading_paused_ ? 0u : std::uint32_t{EventLoop::kReadable};
  for (auto& [fd, in] : inbound_) {
    if (loop_.WatchesFd(fd)) loop_.UpdateFd(fd, interest);
  }
}

void AsyncTcpEndpoint::OnListenReady() {
  std::lock_guard<std::mutex> lk(mutex_);
  for (;;) {
    const int fd = AcceptRetry(listen_fd_);
    if (fd < 0) return;  // EAGAIN (or transient error): wait for next event
    SetNonBlocking(fd, true);
    SetNoDelay(fd);
    inbound_.emplace(fd, Inbound{fd, {}});
    const std::uint32_t interest =
        reading_paused_ ? 0u : std::uint32_t{EventLoop::kReadable};
    loop_.AddFd(fd, interest,
                [this, fd](std::uint32_t ev) { OnInboundReady(fd, ev); });
  }
}

void AsyncTcpEndpoint::OnInboundReady(int fd, std::uint32_t events) {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  Inbound& in = it->second;

  bool drained = false;  // read until EAGAIN
  if (events & EventLoop::kReadable) {
    std::uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t n = RecvRetry(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        Counters().bytes_received.Add(static_cast<std::uint64_t>(n));
        in.buf.insert(in.buf.end(), chunk, chunk + n);
        ParseInbound(in);
        if (in.fd < 0) {  // ParseInbound flagged a protocol violation
          CloseInbound(fd);
          return;
        }
        if (reading_paused_) {
          UpdateReadInterest();
          return;  // resume via ServiceKicks once the app drains
        }
        continue;
      }
      if (n == 0) {  // orderly EOF
        CloseInbound(fd);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        drained = true;
        break;
      }
      CloseInbound(fd);  // ECONNRESET and friends: peer died; not our death
      return;
    }
  }
  if ((events & EventLoop::kError) && drained) CloseInbound(fd);
}

void AsyncTcpEndpoint::CloseInbound(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  loop_.RemoveFd(fd);
  CloseQuiet(fd);
  inbound_.erase(it);
}

void AsyncTcpEndpoint::ParseInbound(Inbound& in) {
  std::size_t off = 0;
  while (in.buf.size() - off >= 4) {
    const std::uint32_t len = LoadLe32(in.buf.data() + off);
    if (!FrameLengthAcceptable(len)) {
      // A lying length prefix is rejected before any allocation and the
      // stream is cut: past this point framing cannot be trusted.
      Counters().frames_rejected.Add();
      in.fd = -1;  // caller closes
      break;
    }
    if (in.buf.size() - off < 4u + len) break;  // incomplete frame
    const std::uint8_t* body = in.buf.data() + off + 4;
    off += 4u + len;

    if (len == 0) continue;  // anonymous keepalive
    if (len == kHeartbeatFrameLen) {
      TouchPeerLocked(LoadLe32(body));
      continue;
    }
    if (len < kWireHeaderSize) {  // not a Message, not a control frame
      Counters().frames_rejected.Add();
      in.fd = -1;
      break;
    }
    Message m;
    try {
      m = Message::Deserialize(std::span<const std::uint8_t>(body, len));
    } catch (const ParseError&) {
      Counters().frames_rejected.Add();
      continue;  // framing is intact; drop just this message
    }
    Peer& p = TouchPeerLocked(m.from);
    p.stats.frames_received++;
    p.stats.bytes_received += 4u + len;
    Counters().frames_received.Add();
    CountReceive(m.type, m.WireSize());
    recv_queue_bytes_ += m.WireSize();
    recv_queue_.push_back(std::move(m));
    recv_cv_.notify_one();
    if (recv_queue_bytes_ > opts_.recv_queue_cap_bytes) {
      reading_paused_ = true;  // caller updates interests; TCP pushes back
    }
  }
  in.buf.erase(in.buf.begin(), in.buf.begin() + static_cast<long>(off));
}

AsyncTcpEndpoint::Peer& AsyncTcpEndpoint::TouchPeerLocked(
    std::uint32_t peer_id) {
  Peer& p = peers_[peer_id];
  p.last_heard_ms = NowMs();
  if (p.port != 0) p.supervised = true;
  return p;
}

void AsyncTcpEndpoint::StartConnect(std::uint32_t peer_id) {
  Peer& p = peers_[peer_id];
  p.retry_timer = 0;
  const int fd = ConnectLoopback(p.port, /*nonblocking=*/true);
  if (fd < 0) {
    ScheduleReconnect(peer_id);
    return;
  }
  SetNoDelay(fd);
  p.fd = fd;
  p.state = Peer::State::kConnecting;
  p.write_off = 0;
  loop_.AddFd(fd, EventLoop::kWritable, [this, peer_id](std::uint32_t ev) {
    OnOutboundReady(peer_id, ev);
  });
}

void AsyncTcpEndpoint::OnOutboundReady(std::uint32_t peer_id,
                                       std::uint32_t events) {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = peers_.find(peer_id);
  if (it == peers_.end()) return;
  Peer& p = it->second;
  if (p.state == Peer::State::kDown || p.fd < 0) return;

  if (p.state == Peer::State::kConnecting) {
    if ((events & EventLoop::kError) || SocketError(p.fd) != 0) {
      CloseOutbound(peer_id, /*reschedule=*/true);
      return;
    }
    obs::Span span(obs::SpanKind::kNetConnect, opts_.id, peer_id);
    p.state = Peer::State::kConnected;
    p.backoff_ms = 0;
    if (p.ever_connected) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      Counters().reconnects.Add();
      p.stats.reconnects++;
    }
    p.ever_connected = true;
    DrainSendQueue(peer_id);
    return;
  }
  if (events & EventLoop::kError) {
    CloseOutbound(peer_id, /*reschedule=*/true);
    return;
  }
  if (events & EventLoop::kWritable) DrainSendQueue(peer_id);
}

void AsyncTcpEndpoint::DrainSendQueue(std::uint32_t peer_id) {
  Peer& p = peers_[peer_id];
  if (p.state != Peer::State::kConnected || p.fd < 0) return;
  bool popped = false;
  while (!p.queue.empty()) {
    const Bytes& front = p.queue.front();
    const ssize_t n = SendRetry(p.fd, front.data() + p.write_off,
                                front.size() - p.write_off, 0);
    if (n > 0) {
      p.write_off += static_cast<std::size_t>(n);
      bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
      Counters().bytes_sent.Add(static_cast<std::uint64_t>(n));
      p.stats.bytes_sent += static_cast<std::uint64_t>(n);
      if (p.write_off == front.size()) {
        p.stats.frames_sent++;
        Counters().frames_sent.Add();
        p.queue_bytes -= front.size();
        p.queue.pop_front();
        p.write_off = 0;
        popped = true;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (loop_.WatchesFd(p.fd)) loop_.UpdateFd(p.fd, EventLoop::kWritable);
      if (popped) send_cv_.notify_all();
      return;
    }
    // EPIPE / ECONNRESET: the peer died mid-write. Transport error, never
    // process death -- close, keep the queue, reconnect with backoff.
    CloseOutbound(peer_id, /*reschedule=*/true);
    if (popped) send_cv_.notify_all();
    return;
  }
  if (loop_.WatchesFd(p.fd)) loop_.UpdateFd(p.fd, 0);  // RDHUP/ERR only
  if (popped) send_cv_.notify_all();
}

void AsyncTcpEndpoint::CloseOutbound(std::uint32_t peer_id, bool reschedule) {
  Peer& p = peers_[peer_id];
  if (p.fd >= 0) {
    loop_.RemoveFd(p.fd);
    CloseQuiet(p.fd);
    p.fd = -1;
  }
  p.state = Peer::State::kDown;
  p.write_off = 0;  // a cut-off partial frame is resent from its start
  if (reschedule && !stopping_ && p.port != 0 &&
      (p.supervised || !p.queue.empty())) {
    ScheduleReconnect(peer_id);
  }
}

void AsyncTcpEndpoint::ScheduleReconnect(std::uint32_t peer_id) {
  Peer& p = peers_[peer_id];
  if (p.retry_timer != 0) return;
  p.backoff_ms = p.backoff_ms == 0
                     ? opts_.backoff_min_ms
                     : std::min<std::uint64_t>(opts_.backoff_max_ms,
                                               p.backoff_ms * 2);
  const std::uint64_t jitter = jitter_rng_.Below(p.backoff_ms / 2 + 1);
  p.retry_timer = loop_.AddTimer(p.backoff_ms + jitter, [this, peer_id] {
    std::lock_guard<std::mutex> lk(mutex_);
    Peer& peer = peers_[peer_id];
    peer.retry_timer = 0;
    if (!stopping_ && peer.state == Peer::State::kDown) StartConnect(peer_id);
  });
}

void AsyncTcpEndpoint::HeartbeatTick() {
  std::lock_guard<std::mutex> lk(mutex_);
  if (stopping_) return;
  const std::uint64_t now = NowMs();
  const std::uint64_t window =
      opts_.heartbeat_interval_ms *
      static_cast<std::uint64_t>(opts_.heartbeat_miss_limit);
  for (auto& [id, p] : peers_) {
    if (!p.supervised || p.port == 0) continue;
    if (p.last_heard_ms != 0 && now - p.last_heard_ms > window &&
        now - p.last_miss_mark_ms > window) {
      p.last_miss_mark_ms = now;
      heartbeat_misses_.fetch_add(1, std::memory_order_relaxed);
      Counters().heartbeat_misses.Add();
      if (p.state == Peer::State::kConnected) {
        // Half-open connection suspected: force a reconnect cycle.
        CloseOutbound(id, /*reschedule=*/true);
      }
    }
    if (p.state == Peer::State::kConnected) {
      Bytes hb(4 + kHeartbeatFrameLen);
      StoreLe32(kHeartbeatFrameLen, hb.data());
      StoreLe32(opts_.id, hb.data() + 4);
      EnqueueLocked(p, std::move(hb));  // tiny, allowed past the cap
      DrainSendQueue(id);
    } else if (p.state == Peer::State::kDown && p.retry_timer == 0) {
      StartConnect(id);  // supervised peers keep reconnecting
    }
  }
  loop_.AddTimer(opts_.heartbeat_interval_ms, [this] { HeartbeatTick(); });
}

}  // namespace pisces::net
