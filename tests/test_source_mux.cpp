/// \file test_source_mux.cpp
/// \brief Multi-source ingestion tests: SourceMux fan-in semantics
/// (tagging, fairness, collective exhaustion, per-source counters,
/// cursor seeding, one wait per idle poll), the UDP transport's
/// lossy-tolerant sequencing (gaps/duplicates counted, never fatal) on
/// the mux's loop (per-round budget, cross-thread stop), the
/// cross-process-shaped
/// shared-memory ring, and the acceptance gate — the same workload
/// split across TCP+UDP+shm sources of one pipeline must produce the
/// verdict table of a single-source run. The concurrent mixed-transport
/// parity case and the cross-thread UDP stop are the TSan targets.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>

#include "core/trainer.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/ring_transport.hpp"
#include "ingest/shm_transport.hpp"
#include "ingest/source_mux.hpp"
#include "ingest/tcp_transport.hpp"
#include "ingest/transport_feed.hpp"
#include "ingest/udp_transport.hpp"
#include "thread_probe.hpp"

namespace {

using namespace efd;
using namespace efd::ingest;
using core::RecognitionService;
using core::RecognitionServiceConfig;

/// Thread-safe verdict collector usable as a transport's reply channel.
class VerdictCollector final : public VerdictSink {
 public:
  void deliver(const Message& verdict) override {
    std::lock_guard lock(mutex_);
    verdicts_[verdict.job_id] = verdict.verdict;
  }

  std::map<std::uint64_t, WireVerdict> verdicts() const {
    std::lock_guard lock(mutex_);
    return verdicts_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, WireVerdict> verdicts_;
};

core::FingerprintConfig config_of() {
  core::FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// Two-app constant-signal fixture (same shape as the ingest tests).
class SourceMuxFixture : public ::testing::Test {
 protected:
  SourceMuxFixture() : dataset_({"nr_mapped_vmstat"}) {
    add(1, "ft", 6000.0);
    add(2, "mg", 6100.0);
    dictionary_ = core::train_dictionary(dataset_, config_of());
  }

  void add(std::uint64_t id, const std::string& app, double level) {
    telemetry::ExecutionRecord record(id, {app, "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    dataset_.add(std::move(record));
  }

  RecognitionService make_service(RecognitionServiceConfig config = {}) {
    return RecognitionService(dictionary_, config);
  }

  /// Sends one full job (open, batched samples, close) through a sender.
  static void send_job(MessageSender& sender, std::uint64_t job_id,
                       double level, int ticks = 130) {
    TransportFeed feed(sender, /*batch_samples=*/64);
    feed.job_opened(job_id, 2);
    for (int t = 0; t < ticks; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        feed.publish(node, "nr_mapped_vmstat", t, level);
      }
    }
    feed.job_closed(job_id);
  }

  telemetry::Dataset dataset_;
  core::Dictionary dictionary_;
};

TEST(SourceMux, TagsEnvelopesAndRetiresSourcesIndependently) {
  SourceMux mux;
  RingTransport a(16), b(16);
  const SourceId id_a = mux.add_source("a", a);
  const SourceId id_b = mux.add_source("b", b);
  ASSERT_EQ(mux.source_count(), 2u);
  ASSERT_NE(id_a, id_b);

  a.send(make_open_job(1, 1));
  b.send(make_open_job(2, 1));
  a.close();  // source a retires after its drain; b stays live

  std::vector<Envelope> batch;
  // Drain everything (two polls at most: non-blocking sweeps).
  EXPECT_TRUE(mux.poll(batch, std::chrono::milliseconds(50)));
  if (batch.size() < 2) {
    EXPECT_TRUE(mux.poll(batch, std::chrono::milliseconds(50)));
  }
  ASSERT_EQ(batch.size(), 2u);
  std::map<std::uint64_t, SourceId> by_job;
  for (const Envelope& envelope : batch) {
    by_job[envelope.message.job_id] = envelope.source;
  }
  EXPECT_EQ(by_job.at(1), id_a);
  EXPECT_EQ(by_job.at(2), id_b);

  // a is exhausted, b alive: the mux must stay live.
  batch.clear();
  EXPECT_TRUE(mux.poll(batch, std::chrono::milliseconds(5)));
  auto stats = mux.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[id_a].exhausted);
  EXPECT_FALSE(stats[id_b].exhausted);
  EXPECT_EQ(stats[id_a].envelopes, 1u);
  EXPECT_EQ(stats[id_b].envelopes, 1u);

  // Only once EVERY source is done does the mux report exhaustion.
  b.close();
  batch.clear();
  EXPECT_FALSE(mux.poll(batch, std::chrono::milliseconds(50)));
  EXPECT_TRUE(batch.empty());
}

TEST(SourceMux, EmptyMuxIsExhaustedAndCursorSeedingIsByName) {
  SourceMux mux;
  std::vector<Envelope> batch;
  EXPECT_FALSE(mux.poll(batch, std::chrono::milliseconds(1)));

  RingTransport ring(4);
  mux.add_source("tcp:7411", ring);
  EXPECT_TRUE(mux.seed_cursor("tcp:7411", 42));
  EXPECT_FALSE(mux.seed_cursor("udp:7412", 7));  // unknown name: dropped
  const auto stats = mux.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].restored_cursor, 42u);
  EXPECT_EQ(stats[0].envelopes, 42u);  // lifetime continuity
  ring.close();
}

TEST(SourceMux, DuplicateNamesAreDisambiguatedDeterministically) {
  SourceMux mux;
  RingTransport a(4), b(4), c(4);
  mux.add_source("tcp:0", a);
  mux.add_source("tcp:0", b);
  mux.add_source("tcp:0", c);
  const auto stats = mux.stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "tcp:0");
  EXPECT_EQ(stats[1].name, "tcp:0#1");
  EXPECT_EQ(stats[2].name, "tcp:0#2");
  // Cursors land on the source they name — never the first match of a
  // shared name.
  EXPECT_TRUE(mux.seed_cursor("tcp:0#2", 9));
  EXPECT_EQ(mux.stats()[2].envelopes, 9u);
  EXPECT_EQ(mux.stats()[0].envelopes, 0u);
  a.close();
  b.close();
  c.close();
}

TEST(SourceMux, AnIdleSourceDoesNotHoldBackAnotherSourcesData) {
  // Waiting on a quiet source must not leave another source unread for
  // long: a UDP socket has no flow control, so its kernel buffer
  // overflows while the mux sleeps elsewhere.
  SourceMux mux;
  RingTransport idle(4), busy(4);
  mux.add_source("idle", idle);  // first in the first rotation
  mux.add_source("busy", busy);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    busy.send(make_open_job(1, 1));
  });
  std::vector<Envelope> batch;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(mux.poll(batch, std::chrono::seconds(1)));
  const auto waited = std::chrono::steady_clock::now() - start;
  producer.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_LT(waited, std::chrono::milliseconds(250));
  idle.close();
  busy.close();
}

TEST(SourceMux, NoteVerdictCreditsTheRightSource) {
  SourceMux mux;
  RingTransport a(4), b(4);
  mux.add_source("a", a);
  const SourceId id_b = mux.add_source("b", b);
  mux.note_verdict(id_b);
  mux.note_verdict(id_b);
  mux.note_verdict(999);  // unknown: ignored, not a crash
  const auto stats = mux.stats();
  EXPECT_EQ(stats[0].verdicts, 0u);
  EXPECT_EQ(stats[1].verdicts, 2u);
  a.close();
  b.close();
}

/// A live fd-less source that never has a message and counts its polls.
class CountingSource final : public SampleSource {
 public:
  bool poll(std::vector<Envelope>& /*out*/) override {
    ++polls;
    return live;
  }

  bool live = true;
  int polls = 0;
};

TEST(SourceMux, AnFdlessSourceIsPolledEveryRoundAtMostAMillisecondApart) {
  // The source has no fd to wait on, so the mux looks at it on every
  // loop round and caps each round's wait at 1 ms.
  CountingSource only;
  SourceMux mux;
  mux.add_source("only", only);
  std::vector<Envelope> out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(mux.poll(out, std::chrono::milliseconds(40)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(40));
  EXPECT_GE(only.polls, 5);   // ~40 rounds of at most 1 ms each
  EXPECT_LE(only.polls, 45);  // each round does wait
  EXPECT_TRUE(out.empty());

  // A zero timeout is one round, without a wait.
  const int before = only.polls;
  EXPECT_TRUE(mux.poll(out, std::chrono::milliseconds(0)));
  EXPECT_EQ(only.polls, before + 1);

  // The source's own false retires it, the mux reports exhaustion in
  // that same call, and a retired source is never polled again.
  only.live = false;
  EXPECT_FALSE(mux.poll(out, std::chrono::milliseconds(40)));
  EXPECT_EQ(only.polls, before + 2);
  const auto exhausted_at = std::chrono::steady_clock::now();
  EXPECT_FALSE(mux.poll(out, std::chrono::seconds(10)));
  EXPECT_EQ(only.polls, before + 2);
  EXPECT_LT(std::chrono::steady_clock::now() - exhausted_at,
            std::chrono::milliseconds(100));  // no wait once exhausted
}

TEST(SourceMux, ARetiredSourceIsNotPolledWhileAnotherStaysLive) {
  CountingSource retiring;
  CountingSource survivor;
  SourceMux mux;
  mux.add_source("retiring", retiring);
  mux.add_source("survivor", survivor);
  retiring.live = false;
  std::vector<Envelope> out;
  EXPECT_TRUE(mux.poll(out, std::chrono::milliseconds(3)));
  EXPECT_EQ(retiring.polls, 1);
  const int before = survivor.polls;
  EXPECT_GE(before, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(mux.poll(out, std::chrono::milliseconds(5)));
  }
  EXPECT_GT(survivor.polls, before);
  EXPECT_EQ(retiring.polls, 1);
}

TEST(SourceMux, AnIdleMuxOfTcpAndUdpSleepsInOneWait) {
  // Both servers sit on the mux's one epoll: an idle poll is one
  // epoll_wait for the whole timeout, not a round of short waits over
  // the sources.
  TcpServer tcp({});
  UdpServer udp({});
  SourceMux mux;
  mux.add_source("tcp", tcp);
  mux.add_source("udp", udp);
  std::vector<Envelope> out;
  const std::string tid = std::to_string(::syscall(SYS_gettid));
  const long before = test::voluntary_switches(tid);
  EXPECT_TRUE(mux.poll(out, std::chrono::milliseconds(500)));
  const long switches = test::voluntary_switches(tid) - before;
  EXPECT_TRUE(out.empty());
  EXPECT_GE(before, 0);
  EXPECT_LE(switches, 3);
}

TEST_F(SourceMuxFixture, ServiceShowsEverySourceTagEvenWhenOneIsIdle) {
  // Two listeners, traffic only on the first: the service must still
  // report both tags (the idle one all-zero) — a quiet listener is a
  // dashboard fact, not a reason to fall back to the legacy shape.
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);
  RingTransport busy(64), idle(64);
  auto collector = std::make_shared<VerdictCollector>();
  busy.set_verdict_sink(collector);
  SourceMux mux;
  mux.add_source("busy", busy);
  mux.add_source("idle", idle);
  IngestPipeline pipeline(service, mux);
  pipeline.start();
  send_job(busy, 1, 6000.0);
  busy.close();
  idle.close();
  pipeline.join();

  const core::RecognitionServiceStats stats = service.stats();
  ASSERT_EQ(stats.by_source.size(), 2u);
  EXPECT_EQ(stats.by_source[0].source, 0u);
  EXPECT_EQ(stats.by_source[0].jobs_opened, 1u);
  EXPECT_EQ(stats.by_source[1].source, 1u);
  EXPECT_EQ(stats.by_source[1].jobs_opened, 0u);
}

// --- UDP datagram sequencing ------------------------------------------

/// A raw datagram emitter with hand-picked sequence numbers. One socket
/// is one peer identity to the server.
class RawUdpPeer {
 public:
  explicit RawUdpPeer(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0);
  }
  ~RawUdpPeer() { ::close(fd_); }

  void send(std::uint64_t seq, const Message& message) {
    std::vector<std::uint8_t> datagram;
    encode_datagram(seq, message, datagram);
    send_bytes(datagram.data(), datagram.size());
  }
  void send_bytes(const std::uint8_t* data, std::size_t size) {
    EXPECT_GT(::send(fd_, data, size, 0), 0);
  }

 private:
  int fd_;
};

TEST(UdpTransport, CountsGapsDuplicatesAndDecodeErrorsWithoutDying) {
  UdpServer server({});
  ASSERT_GT(server.port(), 0);
  SourceMux mux;
  mux.add_source("udp", server);
  RawUdpPeer peer(server.port());

  peer.send(1, make_open_job(1, 1));
  peer.send(2, make_close_job(1));
  peer.send(2, make_close_job(1));   // duplicate: dropped, counted
  peer.send(5, make_open_job(2, 1)); // gap of 2 (seq 3, 4 lost)
  peer.send(3, make_open_job(9, 1)); // reordered behind delivery: dropped
  const std::uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  peer.send_bytes(garbage, sizeof(garbage));

  // The in-order + gapped messages arrive; the rest is counted. The
  // mux's poll does all the work on this thread, so once it has read all
  // six datagrams the counters are exact.
  std::vector<Envelope> drained;
  for (int i = 0; i < 100 && server.stats().datagrams < 6; ++i) {
    mux.poll(drained, std::chrono::milliseconds(20));
  }
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].message.type, MessageType::kOpenJob);
  EXPECT_EQ(drained[2].message.job_id, 2u);

  const UdpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.datagrams, 6u);
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.gaps, 2u);
  EXPECT_EQ(stats.duplicates, 2u);  // exact dup + the reordered seq 3
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.peers, 1u);

  const TransportCounters counters = server.transport_counters();
  EXPECT_EQ(counters.gaps, 2u);
  EXPECT_EQ(counters.drops, 2u);
  server.stop();
}

TEST(UdpTransport, PeerTtlStartsAFreshSessionAfterSilence) {
  UdpServer::Config config;
  config.peer_ttl = std::chrono::milliseconds(50);
  UdpServer server(config);
  SourceMux mux;
  mux.add_source("udp", server);
  RawUdpPeer peer(server.port());  // one peer identity across the "reboot"

  peer.send(1, make_open_job(1, 1));
  peer.send(2, make_close_job(1));
  std::vector<Envelope> drained;
  for (int i = 0; i < 100 && drained.size() < 2; ++i) {
    mux.poll(drained, std::chrono::milliseconds(20));
  }
  ASSERT_EQ(drained.size(), 2u);

  // The emitter goes quiet past the TTL, then resumes — whether a
  // reboot restarting at seq 1 or the same process marching on (seq 7
  // here). Neither may be shed against the old high-water mark as a
  // duplicate, and the idle spell must NOT be booked as packet loss.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  peer.send(7, make_open_job(2, 1));
  drained.clear();
  for (int i = 0; i < 100 && drained.empty(); ++i) {
    mux.poll(drained, std::chrono::milliseconds(20));
  }
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].message.job_id, 2u);
  const UdpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.gaps, 0u);
  server.stop();
}

TEST(UdpTransport, StopFromAnotherThreadWakesABlockedPoll) {
  UdpServer server({});
  SourceMux mux;
  mux.add_source("udp", server);
  std::vector<Envelope> drained;
  bool alive = true;
  std::chrono::steady_clock::time_point returned_at;
  std::thread poller([&] {
    alive = mux.poll(drained, std::chrono::seconds(10));
    returned_at = std::chrono::steady_clock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it block
  const auto stopped_at = std::chrono::steady_clock::now();
  server.stop();
  poller.join();
  EXPECT_LT(returned_at - stopped_at, std::chrono::milliseconds(100));
  EXPECT_FALSE(alive);
  EXPECT_TRUE(drained.empty());
  // Exhausted from here on: no wait, no datagrams.
  const auto exhausted_at = std::chrono::steady_clock::now();
  EXPECT_FALSE(mux.poll(drained, std::chrono::seconds(10)));
  EXPECT_LT(std::chrono::steady_clock::now() - exhausted_at,
            std::chrono::milliseconds(100));
  EXPECT_TRUE(drained.empty());
}

TEST(UdpTransport, OnePollReadsAtMostItsBudgetAndOtherPeersStillArrive) {
  UdpServer server({});
  SourceMux mux;
  mux.add_source("udp", server);
  RawUdpPeer flooder(server.port());
  RawUdpPeer quiet(server.port());
  constexpr std::size_t kBudget = UdpServer::kPollDatagramBudget;
  for (std::uint64_t seq = 1; seq <= 4 * kBudget; ++seq) {
    flooder.send(seq, make_open_job(seq, 1));
  }
  quiet.send(1, make_open_job(1'000'000, 1));

  // The flood is queued ahead of the quiet peer's datagram: it drains
  // across several polls, none returning more than the budget, and the
  // quiet peer's job arrives behind it.
  std::vector<Envelope> drained;
  std::size_t polls = 0;
  bool quiet_arrived = false;
  while (!quiet_arrived && polls < 100) {
    drained.clear();
    mux.poll(drained, std::chrono::milliseconds(20));
    ++polls;
    EXPECT_LE(drained.size(), kBudget);
    if (polls == 1) {
      EXPECT_EQ(drained.size(), kBudget);
    }
    for (const Envelope& envelope : drained) {
      quiet_arrived |= envelope.message.job_id == 1'000'000;
    }
  }
  EXPECT_TRUE(quiet_arrived);
  EXPECT_GE(polls, 5u);  // 4 budgets of flood + the quiet datagram
  const UdpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.frames, 4 * kBudget + 1);
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_EQ(stats.peers, 2u);
  server.stop();
}

TEST_F(SourceMuxFixture, UdpJobsFlowToVerdictsOverTheClient) {
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);

  UdpServer::Config server_config;
  UdpServer server(server_config);
  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = 2;
  IngestPipeline pipeline(service, server, pipeline_config);
  pipeline.start();

  UdpClient client("127.0.0.1", server.port());
  send_job(client, 1, 6030.0);  // -> ft
  send_job(client, 2, 6080.0);  // -> mg

  std::map<std::uint64_t, WireVerdict> verdicts;
  Message message;
  while (verdicts.size() < 2 &&
         client.receive(message, std::chrono::seconds(10))) {
    if (message.type == MessageType::kVerdict) {
      verdicts[message.job_id] = message.verdict;
    }
  }
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts.at(1).application, "ft");
  EXPECT_EQ(verdicts.at(2).application, "mg");

  pipeline.stop();
  pipeline.join();
  server.stop();
  EXPECT_EQ(server.stats().gaps, 0u);  // loopback, paced by the test
}

// --- shared-memory ring ------------------------------------------------

TEST_F(SourceMuxFixture, ShmRingRoundTripAndBackPressure) {
  ShmRingServer::Config config;
  config.inbound_bytes = 32 * 1024;  // small: force producer blocking
  ShmRingServer server("mux_test_ring", config);

  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);
  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = 2;
  IngestPipeline pipeline(service, server, pipeline_config);
  pipeline.start();

  ShmRingClient client("mux_test_ring");
  send_job(client, 1, 6030.0);
  send_job(client, 2, 6080.0);
  client.finish_sending();

  std::map<std::uint64_t, WireVerdict> verdicts;
  Message message;
  while (verdicts.size() < 2 &&
         client.receive(message, std::chrono::seconds(10))) {
    if (message.type == MessageType::kVerdict) {
      verdicts[message.job_id] = message.verdict;
    }
  }
  pipeline.join();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts.at(1).application, "ft");
  EXPECT_EQ(verdicts.at(2).application, "mg");
  EXPECT_EQ(server.stats().decode_errors, 0u);
}

TEST_F(SourceMuxFixture, ShmSessionsTurnOverLikeTcpConnections) {
  // One segment, two sequential emitters: the first finishing must NOT
  // retire the listener (the TCP-hangup analog) — the second attaches
  // to the same name and streams.
  ShmRingServer server("mux_turnover_ring");
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);
  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = 2;
  IngestPipeline pipeline(service, server, pipeline_config);
  pipeline.start();

  const auto run_session = [&](std::uint64_t job, double level,
                               const std::string& expected_app) {
    ShmRingClient client("mux_turnover_ring");
    send_job(client, job, level);
    client.finish_sending();
    Message message;
    while (client.receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        EXPECT_EQ(message.job_id, job);
        EXPECT_EQ(message.verdict.application, expected_app);
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(run_session(1, 6030.0, "ft"));
  EXPECT_TRUE(run_session(2, 6080.0, "mg"));
  pipeline.join();
}

TEST(ShmTransport, CorruptStreamRetiresTheSourceNotTheProcess) {
  ShmRingServer server("mux_corrupt_ring");
  // A hostile (or buggy) producer writes garbage with a poisoned length
  // prefix straight into the inbound ring.
  ShmRegion hostile("mux_corrupt_ring", /*create=*/false, 0, 0);
  ShmHeader& header = hostile.header();
  const std::uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD};
  const std::uint64_t head = header.in_head.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < sizeof(garbage); ++i) {
    hostile.inbound()[(head + i) % header.inbound_capacity] = garbage[i];
  }
  header.in_head.store(head + sizeof(garbage), std::memory_order_release);

  // The source retires (like a dropped TCP connection) instead of
  // crashing or spinning; the error is counted once.
  std::vector<Envelope> drained;
  EXPECT_FALSE(server.poll(drained));
  EXPECT_TRUE(drained.empty());
  EXPECT_EQ(server.stats().decode_errors, 1u);

  // The retirement also closed the consumer side, so a producer fails
  // loudly instead of blocking forever on a ring nobody drains.
  ShmRingClient producer("mux_corrupt_ring");
  EXPECT_THROW(producer.send(make_open_job(2, 1)), TransportError);
}

TEST(ShmTransport, HostileCursorRetiresTheSourceWithoutAllocating) {
  ShmRingServer server("mux_cursor_ring");
  ShmRegion hostile("mux_cursor_ring", /*create=*/false, 0, 0);
  ShmHeader& header = hostile.header();
  // A cursor pair claiming far more bytes than the ring holds must be
  // treated as corruption (retire, count) — never an allocation size or
  // a read past the mapping.
  header.in_head.store(
      header.in_tail.load(std::memory_order_relaxed) + (1ull << 40),
      std::memory_order_release);
  std::vector<Envelope> drained;
  EXPECT_FALSE(server.poll(drained));
  EXPECT_TRUE(drained.empty());
  EXPECT_EQ(server.stats().decode_errors, 1u);
}

TEST(ShmTransport, SecondServerRefusesToHijackALiveSegment) {
  ShmRingServer live("mux_hijack_ring");
  // The first server's heartbeat is fresh, so a second create must fail
  // loudly instead of unlinking the segment out from under it.
  EXPECT_THROW(ShmRingServer("mux_hijack_ring"), TransportError);
  // A client can still attach to the survivor.
  ShmRingClient client("mux_hijack_ring");
  client.send(make_open_job(1, 1));
  std::vector<Envelope> drained;
  EXPECT_TRUE(live.poll(drained));
  ASSERT_EQ(drained.size(), 1u);
}

TEST(ShmTransport, AttachToMissingSegmentTimesOut) {
  EXPECT_THROW(ShmRingClient("definitely_not_created", /*attach_timeout_ms=*/50),
               TransportError);
}

// --- mixed-transport parity (the acceptance gate, in-process) ----------

TEST_F(SourceMuxFixture, MixedTransportParityMatchesSingleSourceRun) {
  constexpr std::size_t kJobs = 24;  // 8 per transport
  const auto level_of = [](std::uint64_t job) {
    return job % 2 == 0 ? 6000.0 : 6100.0;
  };
  const auto app_of = [](std::uint64_t job) {
    return job % 2 == 0 ? "ft" : "mg";
  };

  // Baseline: every job over one ring source.
  std::map<std::uint64_t, WireVerdict> baseline;
  {
    RecognitionServiceConfig service_config;
    service_config.deferred = true;
    RecognitionService service = make_service(service_config);
    auto collector = std::make_shared<VerdictCollector>();
    RingTransport ring(256);
    ring.set_verdict_sink(collector);
    IngestPipeline pipeline(service, ring);
    pipeline.start();
    for (std::uint64_t job = 1; job <= kJobs; ++job) {
      send_job(ring, job, level_of(job));
    }
    ring.close();
    pipeline.join();
    baseline = collector->verdicts();
    ASSERT_EQ(baseline.size(), kJobs);
  }

  // Mixed: the same jobs split across TCP + UDP + shm sources of ONE
  // pipeline, streamed by three concurrent emitters.
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);

  TcpServer tcp_server({});
  UdpServer udp_server({});
  ShmRingServer shm_server("mux_parity_ring");

  SourceMux mux;
  const SourceId tcp_id = mux.add_source("tcp", tcp_server);
  const SourceId udp_id = mux.add_source("udp", udp_server);
  const SourceId shm_id = mux.add_source("shm", shm_server);

  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = kJobs;
  IngestPipeline pipeline(service, mux, pipeline_config);
  pipeline.start();

  auto tcp_collector = std::make_shared<VerdictCollector>();
  auto udp_collector = std::make_shared<VerdictCollector>();
  auto shm_collector = std::make_shared<VerdictCollector>();

  std::thread tcp_emitter([&] {
    TcpClient client("127.0.0.1", tcp_server.port());
    for (std::uint64_t job = 1; job <= kJobs; job += 3) {
      send_job(client, job, level_of(job));
    }
    client.finish_sending();
    Message message;
    while (client.receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        tcp_collector->deliver(message);
        if (tcp_collector->verdicts().size() >= 8) break;
      }
    }
  });
  std::thread udp_emitter([&] {
    UdpClient client("127.0.0.1", udp_server.port());
    for (std::uint64_t job = 2; job <= kJobs; job += 3) {
      send_job(client, job, level_of(job));
      // Loopback pacing: give the pipeline's poll a turn on tiny CI boxes.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Message message;
    while (client.receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        udp_collector->deliver(message);
        if (udp_collector->verdicts().size() >= 8) break;
      }
    }
  });
  std::thread shm_emitter([&] {
    ShmRingClient client("mux_parity_ring");
    for (std::uint64_t job = 3; job <= kJobs; job += 3) {
      send_job(client, job, level_of(job));
    }
    client.finish_sending();
    Message message;
    while (client.receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        shm_collector->deliver(message);
        if (shm_collector->verdicts().size() >= 8) break;
      }
    }
  });

  tcp_emitter.join();
  udp_emitter.join();
  shm_emitter.join();
  pipeline.join();
  tcp_server.stop();
  udp_server.stop();

  // The merged verdict table must be IDENTICAL to the baseline run.
  std::map<std::uint64_t, WireVerdict> merged;
  for (const auto& [job, verdict] : tcp_collector->verdicts()) {
    merged[job] = verdict;
  }
  for (const auto& [job, verdict] : udp_collector->verdicts()) {
    merged[job] = verdict;
  }
  for (const auto& [job, verdict] : shm_collector->verdicts()) {
    merged[job] = verdict;
  }
  ASSERT_EQ(merged.size(), kJobs);
  for (const auto& [job, verdict] : baseline) {
    ASSERT_TRUE(merged.contains(job)) << "job " << job;
    EXPECT_EQ(merged.at(job), verdict) << "job " << job;
    EXPECT_EQ(merged.at(job).application, app_of(job)) << "job " << job;
  }

  // Per-source accounting saw every leg.
  const auto stats = mux.stats();
  EXPECT_EQ(stats[tcp_id].verdicts, 8u);
  EXPECT_EQ(stats[udp_id].verdicts, 8u);
  EXPECT_EQ(stats[shm_id].verdicts, 8u);
  EXPECT_GT(stats[tcp_id].samples, 0u);
  EXPECT_GT(stats[udp_id].samples, 0u);
  EXPECT_GT(stats[shm_id].samples, 0u);

  // ...and the service's source-tagged ingress matches.
  const core::RecognitionServiceStats service_stats = service.stats();
  ASSERT_EQ(service_stats.by_source.size(), 3u);
  for (const core::SourceIngressStats& ingress : service_stats.by_source) {
    EXPECT_EQ(ingress.jobs_opened, 8u) << "source " << ingress.source;
    EXPECT_EQ(ingress.jobs_completed, 8u) << "source " << ingress.source;
  }
}

}  // namespace
