/// \file test_wire_format.cpp
/// \brief EFD-WIRE-V1 codec tests: round-trips for every message type,
/// incremental decoding across arbitrary feed boundaries, and fuzz-style
/// hostile-input tests — truncated, corrupted, and adversarial
/// length-prefixed frames must never crash, over-read, or over-allocate.

#include "ingest/wire_format.hpp"

#include <gtest/gtest.h>

#include "ingest/udp_transport.hpp"

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace {

using namespace efd::ingest;

Message sample_batch(std::uint64_t job_id, std::size_t count) {
  Message message;
  message.type = MessageType::kSampleBatch;
  message.job_id = job_id;
  for (std::size_t i = 0; i < count; ++i) {
    WireSample sample;
    sample.node_id = static_cast<std::uint32_t>(i % 4);
    sample.t = static_cast<std::int32_t>(i);
    sample.value = 6000.0 + 0.25 * static_cast<double>(i);
    sample.metric = i % 2 == 0 ? "nr_mapped_vmstat" : "MemFree_meminfo";
    message.samples.push_back(std::move(sample));
  }
  return message;
}

Message verdict_message() {
  Message message;
  message.type = MessageType::kVerdict;
  message.job_id = 99;
  message.verdict.recognized = true;
  message.verdict.matched = 3;
  message.verdict.fingerprints = 4;
  message.verdict.application = "ft";
  message.verdict.label = "ft_X";
  return message;
}

std::vector<Message> decode_all(FrameDecoder& decoder) {
  std::vector<Message> messages;
  Message message;
  while (decoder.next(message) == DecodeStatus::kMessage) {
    messages.push_back(message);
  }
  return messages;
}

TEST(WireFormat, RoundTripsEveryMessageType) {
  const std::vector<Message> originals = {
      make_open_job(42, 4),
      sample_batch(42, 7),
      make_close_job(42),
      verdict_message(),
      make_shutdown(),
      make_swap_dictionary({0x45, 0x46, 0x44, 0x0A, 0x00, 0xFF}),
      make_swap_ack(true, 7),
      make_swap_ack(false, 3, "dictionary swap disabled"),
      make_stats_request(),
      make_stats_reply("service.active_jobs 3\nretrain.cycles_promoted 1\n"),
      make_stats_reply(""),
      make_retrain_report({12, 1, 4, 0.97, 0.85, 64, 16}),
      make_subscribe({"ft", "mg"}, {0, 2}),
      make_subscribe(),  // empty filters = match everything
      make_subscribe_ack(true, 9),
      make_subscribe_ack(false, 0, "subscriptions disabled"),
      make_verdict_event(77, 1, 123456,
                         {true, 3, 4, "ft", "ft_X"}),
      make_verdict_event(78, 0, 0, {false, 0, 4, "unknown", "unknown"}),
  };

  std::vector<std::uint8_t> bytes;
  for (const Message& message : originals) encode_frame(message, bytes);

  FrameDecoder decoder;
  decoder.feed(bytes);
  const std::vector<Message> decoded = decode_all(decoder);
  ASSERT_EQ(decoded.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(decoded[i], originals[i]) << "message " << i;
  }
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.frames_decoded(), originals.size());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireFormat, StatsAndRetrainFramesDecodeDefensively) {
  {
    // A stats reply whose declared text length disagrees with the bytes
    // that actually arrived must fail, never allocate past them.
    std::vector<std::uint8_t> bytes = encode(make_stats_reply("abc"));
    // text length field offset: 4 frame len + 2 header.
    bytes[6] = 0xFF;
    bytes[7] = 0xFF;
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // A truncated retrain report (body shorter than the fixed layout).
    std::vector<std::uint8_t> bytes =
        encode(make_retrain_report({1, 2, 3, 0.5, 0.25, 8, 2}));
    bytes.resize(bytes.size() - 8);
    // Fix the frame length prefix to match the truncated body.
    const std::uint32_t payload =
        static_cast<std::uint32_t>(bytes.size() - 4);
    for (int i = 0; i < 4; ++i) {
      bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(payload >> (8 * i));
    }
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // A stats request with trailing bytes is a malformed body.
    std::vector<std::uint8_t> bytes = {3, 0, 0, 0, 1,
                                       static_cast<std::uint8_t>(8), 0};
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
}

TEST(WireFormat, SwapFramesDecodeDefensively) {
  {
    // An empty swap blob is a valid frame (the pipeline rejects it at
    // the dictionary-parse layer, not the codec).
    FrameDecoder decoder;
    decoder.feed(encode(make_swap_dictionary({})));
    Message message;
    ASSERT_EQ(decoder.next(message), DecodeStatus::kMessage);
    EXPECT_EQ(message.type, MessageType::kSwapDictionary);
    EXPECT_TRUE(message.dictionary_blob.empty());
  }
  {
    // A swap-ack whose error length overruns the body must fail cleanly.
    std::vector<std::uint8_t> bytes = encode(make_swap_ack(false, 1, "x"));
    // error length field offset: 4 len + 2 header + 1 ok + 8 epoch.
    bytes[15] = 0xFF;
    bytes[16] = 0xFF;
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // Truncated swap-ack body (shorter than the fixed fields).
    std::vector<std::uint8_t> bytes = {6, 0, 0, 0, 1,
                                       static_cast<std::uint8_t>(7), 1, 0, 0, 0};
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
}

TEST(WireFormat, PubSubFramesDecodeDefensively) {
  {
    // A subscribe whose declared application count exceeds what the
    // frame's bytes could possibly hold must fail without allocating
    // the claimed count.
    std::vector<std::uint8_t> bytes = encode(make_subscribe({"ft"}, {}));
    // app_count field offset: 4 frame len + 2 header.
    bytes[6] = 0xFF;
    bytes[7] = 0xFF;
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // Hostile source count after a valid (empty) application list.
    std::vector<std::uint8_t> bytes = encode(make_subscribe({}, {3}));
    // source_count offset: 4 len + 2 header + 4 app_count(=0).
    bytes[10] = 0xFF;
    bytes[11] = 0xFF;
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // Trailing bytes after a complete subscribe body.
    std::vector<std::uint8_t> bytes = encode(make_subscribe());
    bytes.push_back(0xAB);
    const std::uint32_t payload = static_cast<std::uint32_t>(bytes.size() - 4);
    for (int i = 0; i < 4; ++i) {
      bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(payload >> (8 * i));
    }
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // Truncated verdict event (body shorter than the fixed layout).
    std::vector<std::uint8_t> bytes =
        encode(make_verdict_event(1, 0, 99, {true, 2, 2, "ft", "ft_X"}));
    bytes.resize(bytes.size() - 12);
    const std::uint32_t payload = static_cast<std::uint32_t>(bytes.size() - 4);
    for (int i = 0; i < 4; ++i) {
      bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(payload >> (8 * i));
    }
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // The encoder refuses filter lists beyond the wire cap — peer bugs
    // fail at the sender, not as a giant frame at every subscriber host.
    Message subscribe = make_subscribe();
    subscribe.subscribe.sources.assign(kMaxSubscribeFilters + 1, 0);
    std::vector<std::uint8_t> out;
    EXPECT_THROW(encode_frame(subscribe, out), std::invalid_argument);
  }
}

TEST(WireFormat, RoundTripsSpecialDoubleValues) {
  Message message = sample_batch(1, 0);
  const double values[] = {0.0, -0.0, 1e-308, 1.7976931348623157e308,
                           -123456.789};
  for (double value : values) {
    WireSample sample;
    sample.metric = "m";
    sample.value = value;
    message.samples.push_back(sample);
  }
  FrameDecoder decoder;
  decoder.feed(encode(message));
  Message out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::kMessage);
  EXPECT_EQ(out, message);
}

TEST(WireFormat, DecodesAcrossArbitraryFeedBoundaries) {
  std::vector<std::uint8_t> bytes;
  encode_frame(make_open_job(7, 2), bytes);
  encode_frame(sample_batch(7, 25), bytes);
  encode_frame(make_close_job(7), bytes);

  // Feed one byte at a time — the worst TCP fragmentation case.
  FrameDecoder decoder;
  std::vector<Message> decoded;
  Message message;
  for (const std::uint8_t byte : bytes) {
    decoder.feed(&byte, 1);
    while (decoder.next(message) == DecodeStatus::kMessage) {
      decoded.push_back(message);
    }
  }
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].type, MessageType::kOpenJob);
  ASSERT_EQ(decoded[1].samples.size(), 25u);
  EXPECT_EQ(decoded[1].samples[24].t, 24);
  EXPECT_EQ(decoded[2].type, MessageType::kCloseJob);
  EXPECT_FALSE(decoder.failed());
}

TEST(WireFormat, EmptyAndPartialInputNeedsMore) {
  FrameDecoder decoder;
  Message message;
  EXPECT_EQ(decoder.next(message), DecodeStatus::kNeedMore);

  const std::vector<std::uint8_t> frame = encode(make_open_job(1, 1));
  decoder.feed(frame.data(), frame.size() - 1);  // one byte short
  EXPECT_EQ(decoder.next(message), DecodeStatus::kNeedMore);
  decoder.feed(frame.data() + frame.size() - 1, 1);
  EXPECT_EQ(decoder.next(message), DecodeStatus::kMessage);
  EXPECT_EQ(message.job_id, 1u);
}

TEST(WireFormat, RejectsOversizedLengthPrefixWithoutAllocating) {
  // A hostile 0xFFFFFFFF length prefix must be rejected from the 4-byte
  // prefix alone — not buffered, not allocated.
  FrameDecoder decoder;
  const std::vector<std::uint8_t> hostile = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2};
  decoder.feed(hostile);
  Message message;
  EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("size limit"), std::string::npos);
  // Dead decoders stay dead.
  decoder.feed(encode(make_shutdown()));
  EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
}

TEST(WireFormat, RejectsHostileSampleCount) {
  // count = 2^31 with a tiny body: must error before any reserve.
  Message batch = sample_batch(5, 1);
  std::vector<std::uint8_t> bytes = encode(batch);
  // Patch the count field (offset: 4 len + 2 header + 8 job_id).
  bytes[14] = 0x00;
  bytes[15] = 0x00;
  bytes[16] = 0x00;
  bytes[17] = 0x80;
  FrameDecoder decoder;
  decoder.feed(bytes);
  Message message;
  EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  EXPECT_NE(decoder.error().find("inconsistent"), std::string::npos);
}

TEST(WireFormat, RejectsMetricLengthOverrunningBody) {
  Message batch = sample_batch(5, 1);
  std::vector<std::uint8_t> bytes = encode(batch);
  // Patch the metric length field (offset: 4 + 2 + 8 + 4 + 4 + 4 + 8).
  bytes[34] = 0xFF;
  bytes[35] = 0xFF;
  FrameDecoder decoder;
  decoder.feed(bytes);
  Message message;
  EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
}

TEST(WireFormat, RejectsBadVersionTypeAndShortFrames) {
  {
    std::vector<std::uint8_t> bytes = encode(make_open_job(1, 1));
    bytes[4] = 9;  // version
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
    EXPECT_NE(decoder.error().find("version"), std::string::npos);
  }
  {
    std::vector<std::uint8_t> bytes = encode(make_open_job(1, 1));
    bytes[5] = 200;  // type
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
    EXPECT_NE(decoder.error().find("type"), std::string::npos);
  }
  {
    // payload_len = 1: shorter than the version+type header.
    const std::vector<std::uint8_t> bytes = {1, 0, 0, 0, 1};
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // Truncated body: open-job frame claiming only 6 body bytes.
    std::vector<std::uint8_t> bytes = encode(make_open_job(1, 1));
    bytes[0] = 8;  // was 14 (2 header + 12 body)
    bytes.resize(4 + 8);
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
}

TEST(WireFormat, EncodeRejectsOversizedBatch) {
  Message batch = sample_batch(1, 1);
  batch.samples.resize(kMaxSamplesPerBatch + 1, batch.samples[0]);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(encode_frame(batch, out), std::invalid_argument);
  EXPECT_TRUE(out.empty());  // nothing half-written
}

TEST(WireFormat, FuzzTruncationNeverCrashesOrOverAllocates) {
  // Every strict prefix of a valid multi-frame stream either decodes a
  // frame prefix cleanly or reports kNeedMore — never an error, never a
  // crash, and buffered bytes never exceed what was fed.
  std::vector<std::uint8_t> bytes;
  encode_frame(make_open_job(3, 8), bytes);
  encode_frame(sample_batch(3, 10), bytes);
  encode_frame(verdict_message(), bytes);
  encode_frame(make_close_job(3), bytes);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(bytes.data(), cut);
    Message message;
    DecodeStatus status;
    std::size_t decoded = 0;
    while ((status = decoder.next(message)) == DecodeStatus::kMessage) {
      ++decoded;
    }
    EXPECT_EQ(status, DecodeStatus::kNeedMore) << "cut=" << cut;
    EXPECT_LE(decoder.buffered_bytes(), cut);
    EXPECT_LE(decoded, 4u);
  }
}

TEST(WireFormat, FuzzRandomCorruptionNeverCrashes) {
  // Deterministic corruption fuzzing: flip bytes of a valid stream and
  // random garbage streams; the decoder must always terminate with
  // kNeedMore or kError, and decoded sample vectors must stay bounded by
  // the bytes that actually arrived.
  std::vector<std::uint8_t> valid;
  encode_frame(make_open_job(11, 2), valid);
  encode_frame(sample_batch(11, 30), valid);
  encode_frame(make_close_job(11), valid);

  std::mt19937 rng(2021);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);

  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupted = valid;
    const int flips = 1 + round % 8;
    for (int f = 0; f < flips; ++f) {
      corrupted[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    FrameDecoder decoder;
    decoder.feed(corrupted);
    Message message;
    int guard = 0;
    DecodeStatus status;
    while ((status = decoder.next(message)) == DecodeStatus::kMessage) {
      EXPECT_LE(message.samples.size(), corrupted.size() / 18)
          << "decoded more samples than the stream could encode";
      ASSERT_LT(++guard, 1000) << "decoder failed to terminate";
    }
    EXPECT_TRUE(status == DecodeStatus::kNeedMore ||
                status == DecodeStatus::kError);
  }

  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(1 + round % 256);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(byte(rng));
    FrameDecoder decoder;
    decoder.feed(garbage);
    Message message;
    int guard = 0;
    while (decoder.next(message) == DecodeStatus::kMessage) {
      ASSERT_LT(++guard, 1000);
    }
  }
}

// --- Replication frames: kSnapBase/kSnapDelta/kSnapAck/kFollowRequest/
// kPromote/kPromoteAck (the warm-standby path) --------------------------

TEST(WireFormat, RoundTripsReplicationFrames) {
  std::vector<std::uint8_t> capture = {'E', 'F', 'D', 'S', 'N', 'A', 'P', '2'};
  capture.resize(128, 0xAB);
  const std::vector<Message> originals = {
      make_snap_capture(true, 1, 0, capture),
      make_snap_capture(false, 9, 8, {0x01, 0x02, 0x03}),
      // An empty blob is codec-valid (the follower rejects it at the
      // envelope-check layer, like empty swap dictionaries).
      make_snap_capture(false, 2, 1, {}),
      make_snap_ack(true, 9),
      make_snap_ack(false, 10, "chain validation failed"),
      make_follow_request(0),
      make_follow_request(12345678901234ull),
      make_promote(),
      make_promote_ack(true, 9),
      make_promote_ack(false, 0, "no restorable local base"),
  };

  std::vector<std::uint8_t> bytes;
  for (const Message& message : originals) encode_frame(message, bytes);

  FrameDecoder decoder;
  decoder.feed(bytes);
  const std::vector<Message> decoded = decode_all(decoder);
  ASSERT_EQ(decoded.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(decoded[i], originals[i]) << "message " << i;
  }
  EXPECT_FALSE(decoder.failed());
}

TEST(WireFormat, ReplicationFramesDecodeDefensively) {
  {
    // A base capture claiming a nonzero parent contradicts the chain
    // invariant; the codec rejects it before the pipeline ever sees it.
    std::vector<std::uint8_t> bytes =
        encode(make_snap_capture(false, 7, 5, {0xAA}));
    bytes[5] = static_cast<std::uint8_t>(MessageType::kSnapBase);
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
    EXPECT_NE(decoder.error().find("parent"), std::string::npos);
  }
  {
    // Snap capture body shorter than its two fixed ids.
    std::vector<std::uint8_t> bytes = {12, 0, 0, 0, 1,
                                       static_cast<std::uint8_t>(12)};
    bytes.resize(4 + 12, 0);  // 10 body bytes < 16
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // A snap-ack whose error length overruns the body must fail, never
    // allocate past the bytes that arrived.
    std::vector<std::uint8_t> bytes = encode(make_snap_ack(false, 1, "x"));
    // error length field offset: 4 len + 2 header + 1 ok + 8 capture_id.
    bytes[15] = 0xFF;
    bytes[16] = 0xFF;
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // A follow request with trailing bytes is a malformed body.
    std::vector<std::uint8_t> bytes = encode(make_follow_request(3));
    bytes.push_back(0x00);
    const std::uint32_t payload = static_cast<std::uint32_t>(bytes.size() - 4);
    for (int i = 0; i < 4; ++i) {
      bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(payload >> (8 * i));
    }
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
  {
    // Promote carries no body; a byte after the header is garbage.
    std::vector<std::uint8_t> bytes = {3, 0, 0, 0, 1,
                                       static_cast<std::uint8_t>(15), 0};
    FrameDecoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
}

TEST(WireFormat, FuzzReplicationFrameCorruptionNeverCrashes) {
  std::vector<std::uint8_t> valid;
  std::vector<std::uint8_t> capture(64, 0x5A);
  encode_frame(make_follow_request(4), valid);
  encode_frame(make_snap_capture(true, 5, 0, capture), valid);
  encode_frame(make_snap_capture(false, 6, 5, capture), valid);
  encode_frame(make_snap_ack(true, 6), valid);
  encode_frame(make_promote(), valid);
  encode_frame(make_promote_ack(false, 6, "still syncing"), valid);

  std::mt19937 rng(4242);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupted = valid;
    const int flips = 1 + round % 8;
    for (int f = 0; f < flips; ++f) {
      corrupted[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    FrameDecoder decoder;
    decoder.feed(corrupted);
    Message message;
    int guard = 0;
    DecodeStatus status;
    while ((status = decoder.next(message)) == DecodeStatus::kMessage) {
      // A surviving snapshot blob stays bounded by what actually arrived.
      EXPECT_LE(message.snapshot_blob.size(), corrupted.size());
      ASSERT_LT(++guard, 1000) << "decoder failed to terminate";
    }
    EXPECT_TRUE(status == DecodeStatus::kNeedMore ||
                status == DecodeStatus::kError);
  }
}

// --- EFD-DGRAM-V1: the UDP datagram wrapper (udp_transport.hpp) --------

TEST(UdpDatagram, RoundTripsHeaderAndFrame) {
  const Message original = sample_batch(7, 12);
  std::vector<std::uint8_t> datagram;
  encode_datagram(41, original, datagram);

  std::uint64_t seq = 0;
  Message decoded;
  ASSERT_TRUE(decode_datagram(datagram.data(), datagram.size(), seq,
                              decoded));
  EXPECT_EQ(seq, 41u);
  EXPECT_EQ(decoded, original);
}

TEST(UdpDatagram, FuzzTruncationNeverDecodesAndNeverCrashes) {
  // A datagram is all-or-nothing: EVERY strict prefix must fail cleanly
  // (unlike the stream decoder, there is no "need more" — a truncated
  // datagram is a lost tail, not a pending one).
  std::vector<std::uint8_t> datagram;
  encode_datagram(3, sample_batch(5, 20), datagram);
  for (std::size_t cut = 0; cut < datagram.size(); ++cut) {
    std::uint64_t seq = 0;
    Message message;
    EXPECT_FALSE(decode_datagram(datagram.data(), cut, seq, message))
        << "cut=" << cut;
  }
}

TEST(UdpDatagram, FuzzRandomCorruptionNeverCrashes) {
  std::vector<std::uint8_t> valid;
  encode_datagram(9, sample_batch(2, 16), valid);

  std::mt19937 rng(1337);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupted = valid;
    const int flips = 1 + round % 8;
    for (int f = 0; f < flips; ++f) {
      corrupted[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    std::uint64_t seq = 0;
    Message message;
    if (decode_datagram(corrupted.data(), corrupted.size(), seq, message)) {
      // A surviving decode (flips confined to payload values) stays
      // bounded by the bytes that arrived.
      EXPECT_LE(message.samples.size(), corrupted.size() / 18);
    }
  }
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(round % 128);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(byte(rng));
    std::uint64_t seq = 0;
    Message message;
    decode_datagram(garbage.data(), garbage.size(), seq, message);
  }
}

TEST(UdpDatagram, RejectsBadMagicTrailingBytesAndConcatenatedFrames) {
  std::vector<std::uint8_t> datagram;
  encode_datagram(1, make_open_job(1, 2), datagram);
  {
    std::vector<std::uint8_t> bad = datagram;
    bad[0] ^= 0xFF;  // magic
    std::uint64_t seq = 0;
    Message message;
    EXPECT_FALSE(decode_datagram(bad.data(), bad.size(), seq, message));
  }
  {
    std::vector<std::uint8_t> trailing = datagram;
    trailing.push_back(0x00);
    std::uint64_t seq = 0;
    Message message;
    EXPECT_FALSE(
        decode_datagram(trailing.data(), trailing.size(), seq, message));
  }
  {
    // Exactly one frame per datagram: a second complete frame after the
    // first is trailing garbage, not a bonus message (duplicated-frame
    // smuggling would bypass the per-datagram sequence accounting).
    std::vector<std::uint8_t> doubled = datagram;
    encode_frame(make_close_job(1), doubled);
    std::uint64_t seq = 0;
    Message message;
    EXPECT_FALSE(
        decode_datagram(doubled.data(), doubled.size(), seq, message));
  }
}

TEST(UdpDatagram, EncodeRejectsFramesTooLargeForADatagram) {
  Message big = sample_batch(1, 1);
  WireSample sample = big.samples[0];
  sample.metric.assign(60000, 'm');  // one ~60 KB sample
  big.samples.assign(2, sample);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(encode_datagram(1, big, out), std::invalid_argument);
  EXPECT_TRUE(out.empty());  // nothing half-written
}

// --- Owned vs view decode parity (FrameDecoder::next's two outputs) -----

/// The samples a view reads back, as WireSamples.
std::vector<WireSample> read_back(const SampleBatchView& batch) {
  std::vector<WireSample> samples;
  for_each_sample(batch, [&samples](const SampleRef& sample) {
    samples.push_back({sample.node_id, sample.t, sample.value,
                       std::string(sample.metric)});
  });
  return samples;
}

/// One frame decoded both ways must be the same message: a batch view
/// reads back the owned samples, and every other type decodes equal.
void expect_same_decode(const Message& owned, const Message& viewed,
                        const SampleBatchView& batch) {
  ASSERT_EQ(owned.type, viewed.type);
  if (owned.type != MessageType::kSampleBatch) {
    EXPECT_EQ(owned, viewed);
    EXPECT_EQ(batch.data, nullptr);
    return;
  }
  EXPECT_EQ(owned.job_id, viewed.job_id);
  EXPECT_TRUE(viewed.samples.empty());
  ASSERT_NE(batch.data, nullptr);
  EXPECT_EQ(batch.count, owned.samples.size());
  EXPECT_EQ(read_back(batch), owned.samples);
}

/// Feeds \p bytes in \p chunk-byte pieces to two decoders, one asked for
/// owned batches and one for views; after every feed both must report
/// the same DecodeStatus and error() frame by frame. Returns the frames
/// decoded.
std::size_t expect_decoder_parity(const std::vector<std::uint8_t>& bytes,
                                  std::size_t chunk = SIZE_MAX) {
  FrameDecoder owned;
  FrameDecoder viewed;
  Message owned_out;
  Message view_out;
  SampleBatchView batch;
  std::size_t frames = 0;
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    const std::size_t size = std::min(chunk, bytes.size() - at);
    owned.feed(bytes.data() + at, size);
    viewed.feed(bytes.data() + at, size);
    for (;;) {
      const DecodeStatus owned_status = owned.next(owned_out);
      const DecodeStatus view_status = viewed.next(view_out, batch);
      EXPECT_EQ(owned_status, view_status) << "frame " << frames;
      EXPECT_EQ(owned.error(), viewed.error()) << "frame " << frames;
      if (owned_status != DecodeStatus::kMessage ||
          view_status != DecodeStatus::kMessage) {
        break;
      }
      expect_same_decode(owned_out, view_out, batch);
      ++frames;
    }
  }
  EXPECT_EQ(owned.failed(), viewed.failed());
  return frames;
}

/// decode_datagram's two outputs on \p size bytes: the same verdict, the
/// same frame error text, and the same message when it decodes.
void expect_datagram_parity(const std::uint8_t* data, std::size_t size) {
  std::uint64_t owned_seq = 0;
  std::uint64_t view_seq = 0;
  Message owned;
  Message viewed;
  SampleBatchView batch;
  const bool owned_ok = decode_datagram(data, size, owned_seq, owned);
  const bool view_ok = decode_datagram(data, size, view_seq, viewed, &batch);
  ASSERT_EQ(owned_ok, view_ok) << "size=" << size;
  if (size >= kUdpHeaderBytes) {
    Message frame_owned;
    Message frame_viewed;
    SampleBatchView frame_batch;
    const char* owned_error = decode_frame(data + kUdpHeaderBytes,
                                           size - kUdpHeaderBytes,
                                           frame_owned);
    const char* view_error =
        decode_frame(data + kUdpHeaderBytes, size - kUdpHeaderBytes,
                     frame_viewed, &frame_batch);
    EXPECT_EQ(std::string(owned_error != nullptr ? owned_error : ""),
              std::string(view_error != nullptr ? view_error : ""));
  }
  if (!owned_ok) return;
  EXPECT_EQ(owned_seq, view_seq);
  expect_same_decode(owned, viewed, batch);
}

/// Rewrites the u32 length prefix of a single-frame buffer to match it.
void fix_length_prefix(std::vector<std::uint8_t>& bytes) {
  const auto payload = static_cast<std::uint32_t>(bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
}

TEST(WireFormatParity, HostileBatchFramesFailTheSameWayInBothOutputs) {
  std::vector<std::vector<std::uint8_t>> cases;
  {
    // RejectsHostileSampleCount: count = 2^31 with a tiny body.
    std::vector<std::uint8_t> bytes = encode(sample_batch(5, 1));
    bytes[14] = 0x00;
    bytes[15] = 0x00;
    bytes[16] = 0x00;
    bytes[17] = 0x80;
    cases.push_back(bytes);
  }
  {
    // RejectsMetricLengthOverrunningBody.
    std::vector<std::uint8_t> bytes = encode(sample_batch(5, 1));
    bytes[34] = 0xFF;
    bytes[35] = 0xFF;
    cases.push_back(bytes);
  }
  {
    // RejectsBadVersionTypeAndShortFrames, on batch frames: version,
    // type, a payload shorter than the header, a truncated body.
    std::vector<std::uint8_t> version = encode(sample_batch(1, 3));
    version[4] = 9;
    cases.push_back(version);
    std::vector<std::uint8_t> type = encode(sample_batch(1, 3));
    type[5] = 200;
    cases.push_back(type);
    cases.push_back({1, 0, 0, 0, 1});
    std::vector<std::uint8_t> truncated = encode(sample_batch(1, 3));
    truncated.resize(truncated.size() - 7);
    fix_length_prefix(truncated);
    cases.push_back(truncated);
    std::vector<std::uint8_t> short_prefix = encode(sample_batch(1, 0));
    short_prefix.resize(4 + 2 + 10);
    fix_length_prefix(short_prefix);
    cases.push_back(short_prefix);
    std::vector<std::uint8_t> trailing = encode(sample_batch(1, 2));
    trailing.push_back(0x00);
    fix_length_prefix(trailing);
    cases.push_back(trailing);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_EQ(expect_decoder_parity(cases[i]), 0u);
    FrameDecoder decoder;
    decoder.feed(cases[i]);
    Message message;
    EXPECT_EQ(decoder.next(message), DecodeStatus::kError);
  }
}

TEST(WireFormatParity, ValidStreamsReadBackTheSameSamples) {
  // DecodesAcrossArbitraryFeedBoundaries' stream, one byte per feed and
  // whole, plus batches of every shape (empty, long metric names).
  std::vector<std::uint8_t> bytes;
  encode_frame(make_open_job(7, 2), bytes);
  encode_frame(sample_batch(7, 25), bytes);
  encode_frame(make_close_job(7), bytes);
  EXPECT_EQ(expect_decoder_parity(bytes, 1), 3u);
  EXPECT_EQ(expect_decoder_parity(bytes), 3u);

  Message wide = sample_batch(9, 3);
  wide.samples[1].metric.assign(300, 'm');
  wide.samples[2].metric.clear();
  wide.samples[2].t = -5;
  wide.samples[2].value = -0.0;
  std::vector<std::uint8_t> shapes;
  encode_frame(sample_batch(8, 0), shapes);
  encode_frame(wide, shapes);
  encode_frame(verdict_message(), shapes);
  EXPECT_EQ(expect_decoder_parity(shapes), 3u);
  EXPECT_EQ(expect_decoder_parity(shapes, 7), 3u);
}

TEST(WireFormatParity, StreamFuzzLoopsAgreeInBothOutputs) {
  // FuzzTruncationNeverCrashesOrOverAllocates' prefixes.
  std::vector<std::uint8_t> bytes;
  encode_frame(make_open_job(3, 8), bytes);
  encode_frame(sample_batch(3, 10), bytes);
  encode_frame(verdict_message(), bytes);
  encode_frame(make_close_job(3), bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    expect_decoder_parity(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut));
  }

  // FuzzRandomCorruptionNeverCrashes' flipped streams and garbage.
  std::vector<std::uint8_t> valid;
  encode_frame(make_open_job(11, 2), valid);
  encode_frame(sample_batch(11, 30), valid);
  encode_frame(make_close_job(11), valid);
  std::mt19937 rng(2021);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupted = valid;
    const int flips = 1 + round % 8;
    for (int f = 0; f < flips; ++f) {
      corrupted[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    SCOPED_TRACE("round " + std::to_string(round));
    expect_decoder_parity(corrupted);
  }
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(1 + round % 256);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(byte(rng));
    expect_decoder_parity(garbage);
  }
}

TEST(WireFormatParity, DatagramFuzzLoopsAgreeInBothOutputs) {
  // UdpDatagram.FuzzTruncationNeverDecodesAndNeverCrashes' prefixes.
  std::vector<std::uint8_t> datagram;
  encode_datagram(3, sample_batch(5, 20), datagram);
  for (std::size_t cut = 0; cut <= datagram.size(); ++cut) {
    expect_datagram_parity(datagram.data(), cut);
  }

  // UdpDatagram.FuzzRandomCorruptionNeverCrashes' flips and garbage.
  std::vector<std::uint8_t> valid;
  encode_datagram(9, sample_batch(2, 16), valid);
  std::mt19937 rng(1337);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupted = valid;
    const int flips = 1 + round % 8;
    for (int f = 0; f < flips; ++f) {
      corrupted[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    expect_datagram_parity(corrupted.data(), corrupted.size());
  }
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(round % 128);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(byte(rng));
    expect_datagram_parity(garbage.data(), garbage.size());
  }
}

}  // namespace
