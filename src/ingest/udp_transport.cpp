#include "ingest/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/binary_io.hpp"

namespace efd::ingest {

namespace {

/// One receive slot: any datagram fits (EFD-DGRAM-V1 caps well below).
constexpr std::size_t kDatagramBytes = 64 * 1024;
constexpr int kReceiveBufferBytes = 4 * 1024 * 1024;  ///< SO_RCVBUF request

}  // namespace

void encode_datagram(std::uint64_t seq, const Message& message,
                     std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  util::put_u32(out, kUdpMagic);
  util::put_u64(out, seq);
  try {
    encode_frame(message, out);
  } catch (...) {
    out.resize(start);
    throw;
  }
  if (out.size() - start > kUdpHeaderBytes + kMaxUdpPayloadBytes) {
    out.resize(start);
    throw std::invalid_argument(
        "frame too large for a UDP datagram; lower the batch size or use "
        "tcp/shm");
  }
}

bool decode_datagram(const std::uint8_t* data, std::size_t size,
                     std::uint64_t& seq, Message& out,
                     SampleBatchView* batch) {
  if (size < kUdpHeaderBytes) return false;
  util::ByteReader reader(data, size);
  std::uint32_t magic = 0;
  if (!reader.read_u32(magic) || magic != kUdpMagic) return false;
  if (!reader.read_u64(seq)) return false;
  // One datagram = exactly one EFD-WIRE-V1 frame, validated by the same
  // routine the stream decoder runs, in place: datagrams are independent
  // — corruption cannot poison a stream, only fail its own datagram.
  return decode_frame(data + kUdpHeaderBytes, size - kUdpHeaderBytes, out,
                      batch) == nullptr;
}

struct UdpServer::SharedSocket {
  std::mutex mutex;
  int fd = -1;
};

/// Best-effort datagram reply channel to one peer address. The socket is
/// the server's; the shared mutex-guarded holder keeps delivery safe
/// against (and after) server shutdown.
struct UdpServer::PeerSink final : VerdictSink {
  PeerSink(std::shared_ptr<SharedSocket> socket, sockaddr_in peer,
           std::shared_ptr<std::atomic<std::uint64_t>> failures)
      : socket(std::move(socket)),
        peer(peer),
        failures(std::move(failures)) {}

  void deliver(const Message& verdict) override {
    std::vector<std::uint8_t> datagram;
    try {
      encode_datagram(next_seq.fetch_add(1, std::memory_order_relaxed) + 1,
                      verdict, datagram);
    } catch (const std::exception&) {
      // Reply too large for a datagram (e.g. a huge stats text): lossy
      // transport, lossy reply — counted, never fatal.
      failures->fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::lock_guard lock(socket->mutex);
    if (socket->fd < 0 ||
        ::sendto(socket->fd, datagram.data(), datagram.size(), MSG_NOSIGNAL,
                 reinterpret_cast<const sockaddr*>(&peer),
                 sizeof(peer)) < 0) {
      failures->fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<SharedSocket> socket;
  sockaddr_in peer;
  std::atomic<std::uint64_t> next_seq{0};
  std::shared_ptr<std::atomic<std::uint64_t>> failures;
};

UdpServer::UdpServer(const Config& config)
    : config_(config),
      socket_(std::make_shared<SharedSocket>()),
      receive_buffer_(std::make_unique_for_overwrite<std::uint8_t[]>(
          kPollDatagramBudget * kDatagramBytes)) {
  const int fd = socket_->fd = bind_loopback(SOCK_DGRAM, config.port, port_);
  // Best-effort: the kernel clamps to rmem_max. The buffer absorbs
  // bursts between polls; what overflows it is shed by the kernel and
  // counted as gaps.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kReceiveBufferBytes,
               sizeof(kReceiveBufferBytes));
}

UdpServer::~UdpServer() { close_socket(); }

bool UdpServer::attach(const std::shared_ptr<EventLoop>& loop, SourceId id) {
  loop_ = loop;
  id_ = id;
  if (!loop_->add(socket_->fd, *this, EPOLLIN)) throw_errno("epoll_ctl");
  return true;
}

void UdpServer::close_socket() {
  // Sinks held by undelivered envelopes observe fd < 0 under the
  // shared mutex from here on.
  std::lock_guard socket_lock(socket_->mutex);
  if (loop_ != nullptr && socket_->fd >= 0) loop_->remove(socket_->fd);
  close_fd(socket_->fd);
}

void UdpServer::ready(std::uint32_t /*events*/, std::vector<Envelope>& out) {
  // Batched receive: one non-blocking recvmmsg() takes whatever the
  // kernel has queued, up to the per-round budget. Only a round that
  // finds the socket readable reuses the buffers, and the mux returns
  // after the first round that yields, so no view of a poll is
  // overwritten.
  std::array<sockaddr_in, kPollDatagramBudget> peers{};
  std::array<iovec, kPollDatagramBudget> iovs{};
  std::array<mmsghdr, kPollDatagramBudget> headers{};
  for (std::size_t i = 0; i < kPollDatagramBudget; ++i) {
    iovs[i] = iovec{receive_buffer_.get() + i * kDatagramBytes,
                    kDatagramBytes};
    headers[i].msg_hdr.msg_name = &peers[i];
    headers[i].msg_hdr.msg_namelen = sizeof(peers[i]);
    headers[i].msg_hdr.msg_iov = &iovs[i];
    headers[i].msg_hdr.msg_iovlen = 1;
  }
  const int received = ::recvmmsg(socket_->fd, headers.data(),
                                  kPollDatagramBudget, MSG_DONTWAIT, nullptr);
  // A wake whose datagrams are all shed yields nothing, which the mux
  // reads as a normal timeout.
  for (int i = 0; i < received; ++i) {
    Envelope& envelope = out.emplace_back();
    if (handle_datagram(peers[i],
                        static_cast<std::uint8_t*>(iovs[i].iov_base),
                        headers[i].msg_len, envelope)) {
      envelope.source = id_;
      ++stats_.frames;
    } else {
      out.pop_back();
    }
  }
}

bool UdpServer::handle_datagram(const sockaddr_in& peer,
                                const std::uint8_t* data, std::size_t size,
                                Envelope& envelope) {
  ++stats_.datagrams;

  std::uint64_t seq = 0;
  const Message& message = envelope.message;
  if (!decode_datagram(data, size, seq, envelope.message, &envelope.batch) ||
      seq == 0) {
    // One bad datagram fails alone: datagrams are independent, so the
    // peer's later traffic still flows (unlike a corrupted TCP stream).
    ++stats_.decode_errors;
    return false;
  }

  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t key =
      (static_cast<std::uint64_t>(peer.sin_addr.s_addr) << 16) |
      ntohs(peer.sin_port);
  PeerState& state = peers_[key];
  if (state.sink == nullptr) {
    state.sink = std::make_shared<PeerSink>(socket_, peer,
                                            verdict_send_failures_);
    // Stamp activity BEFORE the sweep: the new entry must not look
    // epoch-old and get erased out from under this reference.
    state.last_activity = now;
    sweep_idle_peers(now);
  } else if (config_.peer_ttl.count() > 0 &&
             now - state.last_activity > config_.peer_ttl) {
    // Session restart: an emitter that rebooted restarts its seq at 1.
    // After a TTL of silence its old high-water mark must not shed the
    // new session's traffic as "duplicates" for hours.
    state.last_seq = 0;
    state.control_seen.fill(ControlSeen{});
    state.control_next = 0;
  }
  state.last_activity = now;
  if (state.last_seq == 0) {
    // First datagram of a session (brand-new peer, TTL resume, or a
    // peer the idle sweep evicted and that came back): accept at face
    // value, count NO initial gap. A session's pre-contact history is
    // indistinguishable from a late start, and booking it as loss
    // would poison the very counter operators use to exclude lossy
    // sources. Within-session holes below are the reliable signal.
  } else if (seq <= state.last_seq) {
    // Duplicate or reordered-behind-delivery: re-dispatching would
    // double-count its samples, so it is shed — and counted.
    ++stats_.duplicates;
    return false;
  } else if (seq > state.last_seq + 1) {
    stats_.gaps += seq - state.last_seq - 1;
  }
  state.last_seq = seq;

  // Emitter control-frame retransmits arrive under FRESH sequence
  // numbers (so the duplicate shed above cannot catch them); absorb a
  // repeat of any recently dispatched open/close here instead of
  // re-dispatching it into the pipeline (a re-delivered kOpenJob for a
  // finished job would re-open it as a ghost). Linear scan of a small
  // ring: control frames are two per job, never the sample hot path.
  if (message.type == MessageType::kOpenJob ||
      message.type == MessageType::kCloseJob) {
    const bool close = message.type == MessageType::kCloseJob;
    for (const ControlSeen& seen : state.control_seen) {
      if (seen.job_id == message.job_id && seen.close == close) {
        ++stats_.control_retransmits;
        return false;
      }
    }
    state.control_seen[state.control_next] = ControlSeen{message.job_id, close};
    state.control_next = (state.control_next + 1) % kControlHistorySize;
  }

  envelope.reply = state.sink;
  return true;
}

void UdpServer::sweep_idle_peers(std::chrono::steady_clock::time_point now) {
  // Amortized (only when the map doubled past its post-sweep size):
  // a steady peer population never re-pays the scan, but a server
  // facing ephemeral-port replayers cannot accumulate state forever.
  if (config_.peer_ttl.count() <= 0 || peers_.size() < peers_sweep_at_) {
    return;
  }
  // An erased peer's sink stays alive via live envelopes.
  std::erase_if(peers_, [&](const auto& peer) {
    return now - peer.second.last_activity > config_.peer_ttl;
  });
  peers_sweep_at_ = std::max<std::size_t>(64, peers_.size() * 2);
}

bool UdpServer::poll(std::vector<Envelope>& /*out*/) {
  if (!stopping_.load(std::memory_order_acquire)) return true;
  close_socket();
  return false;
}

void UdpServer::stop() {
  stopping_.store(true, std::memory_order_release);
  if (loop_ != nullptr) loop_->wake();
}

UdpServer::Stats UdpServer::stats() const {
  Stats stats = stats_;
  stats.peers = peers_.size();
  stats.verdict_send_failures =
      verdict_send_failures_->load(std::memory_order_relaxed);
  return stats;
}

TransportCounters UdpServer::transport_counters() const {
  const Stats stats = this->stats();
  TransportCounters counters;
  counters.frames = stats.frames;
  counters.decode_errors = stats.decode_errors;
  counters.drops = stats.duplicates;
  counters.gaps = stats.gaps;
  counters.blocked = 0;  // lossy mode never back-pressures
  counters.retransmits = stats.control_retransmits;
  return counters;
}

UdpClient::UdpClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    close_fd(fd_);
    throw TransportError("invalid host address: " + host);
  }
  // Connected-UDP: send()/recv() without per-call addressing, and only
  // the server's replies are accepted.
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) < 0) {
    close_fd(fd_);
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
}

UdpClient::~UdpClient() { close_fd(fd_); }

void UdpClient::send(Message message) {
  std::lock_guard lock(write_mutex_);

  // Bundle every still-pending control frame ahead of this message —
  // one sendmmsg() syscall ships the retransmits AND the new frame.
  // Each copy gets a fresh sequence number: the server's duplicate shed
  // is seq-based, so a stale seq would be discarded before its content
  // could be absorbed (and would poison the gap accounting).
  std::size_t count = 0;
  const auto add_datagram = [&](const Message& m) {
    if (count == datagram_buffers_.size()) datagram_buffers_.emplace_back();
    std::vector<std::uint8_t>& buffer = datagram_buffers_[count];
    buffer.clear();
    encode_datagram(++next_seq_, m, buffer);
    ++count;
  };
  for (auto it = pending_control_.begin(); it != pending_control_.end();) {
    add_datagram(it->message);
    ++retransmits_;
    if (--it->remaining <= 0) {
      it = pending_control_.erase(it);  // budget exhausted: give up
    } else {
      ++it;
    }
  }
  add_datagram(message);

  std::vector<iovec> iovs(count);
  std::vector<mmsghdr> headers(count);
  for (std::size_t i = 0; i < count; ++i) {
    iovs[i] = iovec{datagram_buffers_[i].data(), datagram_buffers_[i].size()};
    headers[i] = mmsghdr{};
    headers[i].msg_hdr.msg_iov = &iovs[i];
    headers[i].msg_hdr.msg_iovlen = 1;
  }
  std::size_t sent = 0;
  while (sent < count) {
    const int n = ::sendmmsg(fd_, headers.data() + sent,
                             static_cast<unsigned int>(count - sent),
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("datagram send");
    }
    sent += static_cast<std::size_t>(n);
  }

  // Track the just-sent control frame AFTER shipping it, so its own
  // send() doesn't count as a retransmit. Oldest pending is dropped
  // beyond the bound — the budget caps memory, not correctness (a job
  // whose open truly vanished ends in the server's stale sweep).
  if (message.type == MessageType::kOpenJob ||
      message.type == MessageType::kCloseJob) {
    if (pending_control_.size() >= kMaxPendingControl) {
      pending_control_.erase(pending_control_.begin());
    }
    pending_control_.push_back(PendingControl{std::move(message)});
  }
}

std::uint64_t UdpClient::retransmits() const {
  std::lock_guard lock(write_mutex_);
  return retransmits_;
}

std::size_t UdpClient::pending_control() const {
  std::lock_guard lock(write_mutex_);
  return pending_control_.size();
}

bool UdpClient::receive(Message& out, std::chrono::milliseconds timeout) {
  std::uint8_t buffer[64 * 1024];
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const auto wait =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const int ready = ::poll(&pfd, 1, static_cast<int>(wait.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t received = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (received < 0 && errno == EINTR) continue;
    if (received < 0) return false;
    std::uint64_t seq = 0;
    if (decode_datagram(buffer, static_cast<std::size_t>(received), seq,
                        out)) {
      if (out.type == MessageType::kVerdict) {
        // A verdict proves the server knows this job: its control
        // frames arrived, so stop re-sending them.
        std::lock_guard lock(write_mutex_);
        std::erase_if(pending_control_, [&](const PendingControl& pending) {
          return pending.message.job_id == out.job_id;
        });
      }
      return true;
    }
    // Malformed reply datagram: skip it, keep waiting for a good one.
  }
}

}  // namespace efd::ingest
