// Wire-protocol test suite: EVWP packet encode/decode round trips, the
// CRC-32 known-answer vector, framer resynchronization on hostile byte
// streams, 32-bit timestamp-wrap edge cases (mid-packet, across a
// reconnect resume, E2SF windows straddling a wrap), zero-length
// packets, both transports (TCP loopback, shared-memory ring), the
// go-back-N session layer under every NetFaultProxy fault type, the
// seeded network-fault plan's reproducibility, the recorder/replayer
// harness, the crash-consistent fault journal, and the run_wire
// serving path's bitwise parity with run_serial.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/e2sf.hpp"
#include "events/density_profile.hpp"
#include "events/event_stream.hpp"
#include "events/event_synth.hpp"
#include "nn/zoo.hpp"
#include "serve/journal.hpp"
#include "serve/serving_runtime.hpp"
#include "wire/crc32.hpp"
#include "wire/net_fault_proxy.hpp"
#include "wire/packet.hpp"
#include "wire/recorder.hpp"
#include "wire/session.hpp"
#include "wire/transport.hpp"

namespace ec = evedge::core;
namespace ee = evedge::events;
namespace en = evedge::nn;
namespace es = evedge::sparse;
namespace ev = evedge::serve;
namespace ew = evedge::wire;

using namespace std::chrono_literals;

namespace {

/// Deterministic synthetic stream at a small geometry.
ee::EventStream small_stream(ee::TimeUs t0, ee::TimeUs duration,
                             std::uint64_t seed, int w = 64, int h = 48) {
  ee::SynthConfig cfg;
  cfg.geometry = ee::SensorGeometry{w, h};
  cfg.seed = seed;
  cfg.blob_count = 3;
  ee::DensityProfile profile("wire-test", 30.0, {}, 8.0, 0.4);
  return ee::PoissonEventSynthesizer(profile, cfg).generate(t0,
                                                            t0 + duration);
}

/// Hand-built stream: evenly spaced alternating-polarity events walking
/// the diagonal, starting at `t0` with `gap_us` spacing.
ee::EventStream ramp_stream(ee::TimeUs t0, std::size_t n,
                            ee::TimeUs gap_us, int w = 64, int h = 48) {
  std::vector<ee::Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ee::Event e;
    e.x = static_cast<std::uint16_t>(i % static_cast<std::size_t>(w));
    e.y = static_cast<std::uint16_t>(i % static_cast<std::size_t>(h));
    e.t = t0 + static_cast<ee::TimeUs>(i) * gap_us;
    e.p = (i % 2 == 0) ? ee::Polarity::kPositive : ee::Polarity::kNegative;
    events.push_back(e);
  }
  return ee::EventStream(ee::SensorGeometry{w, h}, std::move(events));
}

/// Collects everything a receiver accepts.
struct CollectingSink {
  ew::StreamHeader header{};
  bool saw_hello = false;
  bool saw_eos = false;
  std::int64_t eos_t = 0;
  std::vector<ee::Event> events;
  std::vector<ew::PacketError> rejections;

  ew::WireSink sink() {
    ew::WireSink s;
    s.hello = [this](const ew::StreamHeader& h) {
      header = h;
      saw_hello = true;
    };
    s.events = [this](std::span<const ee::Event> batch, std::uint32_t) {
      events.insert(events.end(), batch.begin(), batch.end());
    };
    s.eos = [this](std::int64_t t) {
      saw_eos = true;
      eos_t = t;
    };
    s.rejected = [this](ew::PacketError e) { rejections.push_back(e); };
    return s;
  }
};

/// Wraps each transport the receiver accepts (identity when empty).
using AcceptWrap =
    std::function<std::unique_ptr<ew::Transport>(std::unique_ptr<ew::Transport>)>;

/// Runs a sender (on its own thread, connecting through `factory`) into
/// a receiver accepting from `listener` until the sender returns: a
/// sender that reconnects after end-of-stream (its final ack lost) is
/// still accepted and answered. Returns sender stats.
ew::WireSendStats pump_session(const ee::EventStream& stream,
                               ew::WireSenderConfig sender_cfg,
                               ew::TransportFactory factory,
                               ew::TcpListener& listener,
                               ew::WireReceiver& receiver,
                               const AcceptWrap& wrap = {}) {
  ew::WireSender sender(stream, std::move(sender_cfg), std::move(factory));
  ew::WireSendStats stats;
  std::atomic<bool> sender_done{false};
  std::thread tx([&] {
    stats = sender.run();
    sender_done = true;
  });
  while (!sender_done) {
    std::unique_ptr<ew::Transport> t = listener.accept(20ms);
    if (!t) continue;
    if (wrap) t = wrap(std::move(t));
    if (receiver.serve(*t) == ew::ServeOutcome::kEndOfStream) {
      (void)receiver.linger(*t);  // as the serving ingress does
    }
    t->close();
  }
  tx.join();
  receiver.finish();
  return stats;
}

std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "evedge_wire_" + tag + "_" +
         std::to_string(::getpid());
}

}  // namespace

// ------------------------------------------------------------- CRC-32

TEST(WireCrc, KnownAnswerVector) {
  // The canonical CRC-32 (reflected, poly 0xEDB88320) check value.
  const char* s = "123456789";
  EXPECT_EQ(ew::crc32(s, 9), 0xCBF43926u);
}

TEST(WireCrc, ChainingMatchesOneShot) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::uint32_t whole = ew::crc32(bytes.data(), bytes.size());
  const std::uint32_t head = ew::crc32(bytes.data(), 4);
  EXPECT_EQ(ew::crc32(bytes.data() + 4, bytes.size() - 4, head), whole);
  EXPECT_NE(whole, ew::crc32(bytes.data(), bytes.size() - 1));
}

// ------------------------------------------------- encode/decode/frame

TEST(WirePacket, HelloDataEosRoundTrip) {
  const ee::EventStream stream = ramp_stream(1'000'000, 100, 50);
  ew::StreamHeader header;
  header.width = 64;
  header.height = 48;
  header.epoch_us = stream.t_begin();
  header.t_end_us = stream.t_end();
  header.data_packets = 1;

  std::vector<std::uint8_t> bytes;
  ew::encode_hello(7, header, bytes);
  ew::encode_data(7, 0, stream.events(), bytes);
  ew::encode_eos(7, 1, stream.t_end(), bytes);

  ew::PacketFramer framer;
  framer.feed(bytes.data(), bytes.size());

  auto hello = framer.next();
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->error, ew::PacketError::kNone);
  EXPECT_EQ(hello->header.type, ew::PacketType::kHello);
  EXPECT_EQ(hello->header.session_id, 7u);
  ew::StreamHeader decoded_header;
  ASSERT_TRUE(ew::decode_hello(hello->payload, decoded_header));
  EXPECT_EQ(decoded_header, header);

  auto data = framer.next();
  ASSERT_TRUE(data.has_value());
  ASSERT_EQ(data->error, ew::PacketError::kNone);
  EXPECT_EQ(data->header.type, ew::PacketType::kData);
  EXPECT_EQ(data->header.event_count, 100u);
  ew::TimestampUnwrapper unwrapper(header.epoch_us);
  std::vector<ee::Event> events;
  ASSERT_EQ(ew::decode_events(data->payload, data->header.event_count,
                              unwrapper.unwrap(data->header.t_base),
                              header.epoch_us, header.width, header.height,
                              events),
            ew::PacketError::kNone);
  ASSERT_EQ(events.size(), stream.events().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i], stream.events()[i]) << "event " << i;
  }

  auto eos = framer.next();
  ASSERT_TRUE(eos.has_value());
  ASSERT_EQ(eos->error, ew::PacketError::kNone);
  EXPECT_EQ(eos->header.type, ew::PacketType::kEndOfStream);
  EXPECT_EQ(eos->header.seq, 1u);
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(WirePacket, EncodeDataRejectsUnencodable) {
  std::vector<std::uint8_t> out;
  std::vector<ee::Event> too_many(ew::kMaxEventsPerPacket + 1);
  EXPECT_THROW(ew::encode_data(1, 0, too_many, out), std::invalid_argument);

  std::vector<ee::Event> bad_y(1);
  bad_y[0].y = 0x8000;  // collides with the polarity bit
  EXPECT_THROW(ew::encode_data(1, 0, bad_y, out), std::invalid_argument);

  std::vector<ee::Event> non_monotone(2);
  non_monotone[0].t = 100;
  non_monotone[1].t = 99;
  EXPECT_THROW(ew::encode_data(1, 0, non_monotone, out),
               std::invalid_argument);
}

TEST(WirePacket, ZeroLengthDataPacketIsLegal) {
  std::vector<std::uint8_t> bytes;
  ew::encode_data(3, 5, {}, bytes);
  EXPECT_EQ(bytes.size(), ew::kHeaderBytes);
  ew::PacketFramer framer;
  framer.feed(bytes.data(), bytes.size());
  auto framed = framer.next();
  ASSERT_TRUE(framed.has_value());
  EXPECT_EQ(framed->error, ew::PacketError::kNone);
  EXPECT_EQ(framed->header.event_count, 0u);
  EXPECT_EQ(framed->header.seq, 5u);
  EXPECT_TRUE(framed->payload.empty());
}

TEST(WireFramer, ResyncsPastGarbageWithOneRejectionPerRun) {
  std::vector<std::uint8_t> packet;
  ew::encode_heartbeat(1, ew::kNoneAcked, 0, packet);

  // garbage ++ packet ++ garbage ++ packet
  std::vector<std::uint8_t> bytes(37, 0x5A);
  bytes.insert(bytes.end(), packet.begin(), packet.end());
  for (int i = 0; i < 64; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(i * 7 + 1));
  }
  bytes.insert(bytes.end(), packet.begin(), packet.end());

  ew::PacketFramer framer;
  framer.feed(bytes.data(), bytes.size());
  std::size_t ok = 0;
  std::size_t bad_magic = 0;
  while (auto framed = framer.next()) {
    if (framed->error == ew::PacketError::kNone) {
      ++ok;
      EXPECT_EQ(framed->header.type, ew::PacketType::kHeartbeat);
    } else {
      EXPECT_EQ(framed->error, ew::PacketError::kBadMagic);
      ++bad_magic;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(bad_magic, 2u);  // one rejection per contiguous garbage run
}

TEST(WireFramer, CrcFlipRejectsAndRecovers) {
  std::vector<std::uint8_t> bytes;
  ew::encode_data(1, 0, ramp_stream(0, 8, 10).events(), bytes);
  const std::size_t first_len = bytes.size();
  ew::encode_data(1, 1, ramp_stream(1000, 8, 10).events(), bytes);
  bytes[ew::kHeaderBytes + 3] ^= 0xFF;  // corrupt the first payload

  ew::PacketFramer framer;
  framer.feed(bytes.data(), bytes.size());
  std::size_t crc_fail = 0;
  std::size_t ok = 0;
  while (auto framed = framer.next()) {
    if (framed->error == ew::PacketError::kBadCrc) {
      ++crc_fail;
    } else if (framed->error == ew::PacketError::kNone) {
      ++ok;
      EXPECT_EQ(framed->header.seq, 1u);
    }
  }
  EXPECT_EQ(crc_fail, 1u);
  EXPECT_EQ(ok, 1u);
  (void)first_len;
}

TEST(WireFramer, TruncatedTailWaitsForMoreBytes) {
  std::vector<std::uint8_t> bytes;
  ew::encode_data(1, 0, ramp_stream(0, 16, 10).events(), bytes);
  ew::PacketFramer framer;
  // Feed all but the last 5 bytes: no packet yet, no rejection.
  framer.feed(bytes.data(), bytes.size() - 5);
  EXPECT_FALSE(framer.next().has_value());
  framer.feed(bytes.data() + bytes.size() - 5, 5);
  auto framed = framer.next();
  ASSERT_TRUE(framed.has_value());
  EXPECT_EQ(framed->error, ew::PacketError::kNone);
}

// -------------------------------------------------- timestamp wrapping

TEST(WireTimestamp, UnwrapperCrossesWrapBoundary) {
  const std::int64_t wrap = std::int64_t{1} << 32;
  ew::TimestampUnwrapper u(wrap - 100);
  EXPECT_EQ(u.unwrap(static_cast<std::uint32_t>(wrap - 50)), wrap - 50);
  // Low 32 bits wrapped to a small value: unwrap lands past the boundary.
  EXPECT_EQ(u.unwrap(static_cast<std::uint32_t>(wrap + 30)), wrap + 30);
  EXPECT_EQ(u.unwrap(7), wrap + 30 + (7 - 30 + (std::int64_t{1} << 32)) %
                             (std::int64_t{1} << 32));
}

TEST(WireTimestamp, WrapMidPacketDecodesExactly) {
  // Events straddle the 2^32 us boundary INSIDE one packet: t_base is
  // pre-wrap, dt offsets carry the events across.
  const std::int64_t wrap = std::int64_t{1} << 32;
  const ee::EventStream stream = ramp_stream(wrap - 200, 40, 10);
  ASSERT_LT(stream.t_begin(), wrap);
  ASSERT_GT(stream.t_end(), wrap);

  std::vector<std::uint8_t> bytes;
  ew::encode_data(1, 0, stream.events(), bytes);
  ew::PacketFramer framer;
  framer.feed(bytes.data(), bytes.size());
  auto framed = framer.next();
  ASSERT_TRUE(framed.has_value());
  ASSERT_EQ(framed->error, ew::PacketError::kNone);

  ew::TimestampUnwrapper unwrapper(stream.t_begin());
  std::vector<ee::Event> events;
  ASSERT_EQ(ew::decode_events(framed->payload, framed->header.event_count,
                              unwrapper.unwrap(framed->header.t_base),
                              stream.t_begin(), 64, 48, events),
            ew::PacketError::kNone);
  ASSERT_EQ(events.size(), stream.events().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t, stream.events()[i].t) << "event " << i;
  }
}

TEST(WireTimestamp, WrapAcrossPacketsThroughSession) {
  // Consecutive packets on opposite sides of the wrap: the receiver's
  // unwrapper must carry the 64-bit timeline across the seam. Exercised
  // through the full session layer over a shm ring.
  const std::int64_t wrap = std::int64_t{1} << 32;
  const ee::EventStream stream = ramp_stream(wrap - 5000, 300, 40);
  ASSERT_GT(stream.t_end(), wrap);

  auto [tx_end, rx_end] = ew::ShmRingTransport::make_pair();
  CollectingSink collect;
  ew::WireReceiver receiver(ew::WireReceiverConfig{}, collect.sink());

  std::shared_ptr<ew::Transport> sender_side = std::move(tx_end);
  ew::WireSenderConfig cfg;
  cfg.events_per_packet = 32;  // force many packets across the seam
  ew::WireSender sender(stream, cfg, [sender_side] {
    struct Borrow : ew::Transport {
      std::shared_ptr<ew::Transport> inner;
      explicit Borrow(std::shared_ptr<ew::Transport> t)
          : inner(std::move(t)) {}
      bool send(const void* d, std::size_t n) override {
        return inner->send(d, n);
      }
      std::ptrdiff_t recv_some(void* d, std::size_t n,
                               std::chrono::milliseconds t) override {
        return inner->recv_some(d, n, t);
      }
      void close() override {}
      bool closed() const override { return inner->closed(); }
    };
    return std::make_unique<Borrow>(sender_side);
  });

  ew::WireSendStats stats;
  std::thread tx([&] { stats = sender.run(); });
  while (!receiver.eos()) {
    const ew::ServeOutcome outcome = receiver.serve(*rx_end);
    if (outcome != ew::ServeOutcome::kEndOfStream) break;
  }
  tx.join();

  EXPECT_TRUE(stats.completed);
  ASSERT_TRUE(collect.saw_eos);
  ASSERT_EQ(collect.events.size(), stream.events().size());
  for (std::size_t i = 0; i < collect.events.size(); ++i) {
    ASSERT_EQ(collect.events[i], stream.events()[i]) << "event " << i;
  }
  EXPECT_TRUE(receiver.stats().accounting_ok());
}

TEST(WireTimestamp, E2sfWindowStraddlingWrapMatchesInProcess) {
  // The acid test for satellite 4: an E2SF framing window that straddles
  // the 32-bit wrap must produce identical sparse frames whether the
  // events arrived in-process or were decoded off the wire.
  const std::int64_t wrap = std::int64_t{1} << 32;
  const ee::EventStream stream = ramp_stream(wrap - 20'000, 800, 50);
  ASSERT_GT(stream.t_end(), wrap);

  // Wire round trip through the recorder (encode -> frame -> decode).
  const std::string path = temp_path("wrap");
  ew::record_stream(stream, path, 64);
  ew::StreamReplayer replayer(path);
  const ee::EventStream decoded = replayer.decode();
  std::remove(path.c_str());

  ASSERT_EQ(decoded.events().size(), stream.events().size());
  for (std::size_t i = 0; i < decoded.events().size(); ++i) {
    ASSERT_EQ(decoded.events()[i], stream.events()[i]) << "event " << i;
  }

  // Same E2SF conversion on both sides of a window containing the wrap.
  const ec::E2sfConfig cfg;
  const ec::Event2SparseFrame e2sf(stream.geometry(), cfg);
  const ee::TimeUs t0 = wrap - 10'000;
  const ee::TimeUs t1 = wrap + 10'000;
  const auto direct = e2sf.convert(stream.slice(t0, t1), t0, t1);
  const auto wired = e2sf.convert(decoded.slice(t0, t1), t0, t1);
  ASSERT_EQ(direct.size(), wired.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(es::max_abs_diff(direct[i].to_dense(), wired[i].to_dense()),
              0.0f)
        << "bin " << i;
  }
}

// ----------------------------------------------------------- transports

TEST(WireTransport, TcpLoopbackRoundTrip) {
  ew::TcpListener listener;
  ASSERT_NE(listener.port(), 0);
  std::unique_ptr<ew::Transport> client;
  std::thread dial([&] {
    client = ew::TcpTransport::connect(listener.port(), 2000ms);
  });
  std::unique_ptr<ew::Transport> server = listener.accept(2000ms);
  dial.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  ASSERT_TRUE(client->send(msg.data(), msg.size()));
  std::vector<std::uint8_t> got(msg.size());
  std::size_t read = 0;
  while (read < got.size()) {
    const std::ptrdiff_t n =
        server->recv_some(got.data() + read, got.size() - read, 1000ms);
    ASSERT_GT(n, 0);
    read += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(got, msg);

  // Orderly shutdown surfaces as EOF, not an error or a hang.
  client->close();
  std::uint8_t buf;
  EXPECT_EQ(server->recv_some(&buf, 1, 1000ms), -1);
}

TEST(WireTransport, ShmRingDrainsBufferedBytesBeforeEof) {
  auto [a, b] = ew::ShmRingTransport::make_pair(1 << 12);
  const std::vector<std::uint8_t> msg{9, 8, 7};
  ASSERT_TRUE(a->send(msg.data(), msg.size()));
  a->close();  // bytes written BEFORE close must still be readable
  std::vector<std::uint8_t> got(msg.size());
  EXPECT_EQ(b->recv_some(got.data(), got.size(), 100ms),
            static_cast<std::ptrdiff_t>(msg.size()));
  EXPECT_EQ(got, msg);
  std::uint8_t buf;
  EXPECT_EQ(b->recv_some(&buf, 1, 10ms), -1);
}

TEST(WireTransport, RecvTimeoutReturnsZeroWhileLinkUp) {
  auto [a, b] = ew::ShmRingTransport::make_pair();
  std::uint8_t buf;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(b->recv_some(&buf, 1, 30ms), 0);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, 25ms);
  (void)a;
}

// ------------------------------------------------------ session + ARQ

TEST(WireSession, FaultFreeTcpSessionDeliversEverythingOnce) {
  // 1000 events at 64/packet -> 16 data packets.
  const ee::EventStream stream = ramp_stream(0, 1000, 100);
  ew::TcpListener listener;
  CollectingSink collect;
  ew::WireReceiver receiver(ew::WireReceiverConfig{}, collect.sink());

  ew::WireSenderConfig cfg;
  cfg.events_per_packet = 64;
  const std::uint16_t port = listener.port();
  const ew::WireSendStats stats = pump_session(
      stream, cfg, [port] { return ew::TcpTransport::connect(port, 2000ms); },
      listener, receiver);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.reconnects, 0u);
  ASSERT_TRUE(collect.saw_hello);
  ASSERT_TRUE(collect.saw_eos);
  EXPECT_EQ(collect.header.epoch_us, stream.t_begin());
  EXPECT_EQ(collect.header.t_end_us, stream.t_end());
  ASSERT_EQ(collect.events.size(), stream.events().size());
  for (std::size_t i = 0; i < collect.events.size(); ++i) {
    ASSERT_EQ(collect.events[i], stream.events()[i]) << "event " << i;
  }
  const ew::WireRecvStats& rs = receiver.stats();
  EXPECT_TRUE(rs.accounting_ok());
  EXPECT_EQ(rs.rejected_packets, 0u);
  EXPECT_EQ(rs.duplicate_packets, 0u);
}

class WireFaultSession : public ::testing::TestWithParam<ew::NetFaultType> {};

TEST_P(WireFaultSession, SessionRecoversLosslesslyUnderFault) {
  const ew::NetFaultType type = GetParam();
  // 1000 events at 64/packet -> 16 data packets, so every fault site
  // drawn from [0, 8) exists and fires.
  const ee::EventStream stream = ramp_stream(0, 1000, 100);

  ew::NetFaultPlanOptions opts;
  opts.session_id = 1;
  opts.packets_hint = 8;  // faults land on packets that really exist
  switch (type) {
    case ew::NetFaultType::kDrop: opts.drops = 2; break;
    case ew::NetFaultType::kCorrupt: opts.corrupts = 2; break;
    case ew::NetFaultType::kTruncate: opts.truncates = 2; break;
    case ew::NetFaultType::kReorder: opts.reorders = 2; break;
    case ew::NetFaultType::kDelay: opts.delays = 2; break;
    case ew::NetFaultType::kDisconnect: opts.disconnects = 1; break;
  }
  const auto injector = std::make_shared<ew::NetFaultInjector>(
      ew::NetFaultPlan::seeded(99, opts));

  ew::TcpListener listener;
  CollectingSink collect;
  ew::WireReceiverConfig rcfg;
  rcfg.stall_timeout = 2000ms;
  ew::WireReceiver receiver(rcfg, collect.sink());

  ew::WireSenderConfig cfg;
  cfg.events_per_packet = 64;  // ~12+ data packets for this stream
  const std::uint16_t port = listener.port();
  const ew::WireSendStats stats = pump_session(
      stream, cfg,
      [port, injector]() -> std::unique_ptr<ew::Transport> {
        auto inner = ew::TcpTransport::connect(port, 2000ms);
        if (!inner) return nullptr;
        return std::make_unique<ew::NetFaultProxy>(std::move(inner),
                                                   injector);
      },
      listener, receiver);

  // Whatever the fault type, the ARQ layer delivers the byte-exact
  // stream: zero frames lost, zero duplicated into the sink.
  EXPECT_TRUE(stats.completed) << ew::to_string(type);
  ASSERT_TRUE(collect.saw_eos) << ew::to_string(type);
  ASSERT_EQ(collect.events.size(), stream.events().size());
  for (std::size_t i = 0; i < collect.events.size(); ++i) {
    ASSERT_EQ(collect.events[i], stream.events()[i]) << "event " << i;
  }
  EXPECT_TRUE(receiver.stats().accounting_ok());
  EXPECT_GT(injector->counts().total(), 0u) << "fault never fired";
  if (type == ew::NetFaultType::kCorrupt ||
      type == ew::NetFaultType::kTruncate) {
    EXPECT_GT(receiver.stats().rejected_packets, 0u);
  }
  if (type == ew::NetFaultType::kDisconnect) {
    EXPECT_GE(stats.reconnects, 1u);
    EXPECT_GE(receiver.stats().resumes_served, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultTypes, WireFaultSession,
    ::testing::Values(ew::NetFaultType::kDrop, ew::NetFaultType::kCorrupt,
                      ew::NetFaultType::kTruncate,
                      ew::NetFaultType::kReorder, ew::NetFaultType::kDelay,
                      ew::NetFaultType::kDisconnect),
    [](const ::testing::TestParamInfo<ew::NetFaultType>& info) {
      const char* name = ew::to_string(info.param);
      std::string out;
      for (const char* p = name; *p != '\0'; ++p) {
        if (*p != '-') out.push_back(*p);
      }
      return out;
    });

// The receiver's link loses its first final ack and drops, as a reset
// connection discards an ack in flight. The sender reconnects; past
// end-of-stream the receiver answers its hello and resume with the
// final ack, so the session completes with no wall-clock window
// deciding it.
TEST(WireSession, LostFinalAckIsAnsweredAfterReconnect) {
  struct LoseFirstFinalAck final : ew::Transport {
    LoseFirstFinalAck(std::unique_ptr<ew::Transport> t,
                      const ew::WireReceiver& r, bool& l)
        : inner(std::move(t)), receiver(r), lost(l) {}
    bool send(const void* d, std::size_t n) override {
      if (!lost && receiver.eos()) {
        lost = true;
        inner->close();
        return false;
      }
      return inner->send(d, n);
    }
    std::ptrdiff_t recv_some(void* d, std::size_t n,
                             std::chrono::milliseconds t) override {
      return inner->recv_some(d, n, t);
    }
    void close() override { inner->close(); }
    bool closed() const override { return inner->closed(); }
    std::unique_ptr<ew::Transport> inner;
    const ew::WireReceiver& receiver;
    bool& lost;
  };

  const ee::EventStream stream = ramp_stream(0, 1000, 100);
  ew::TcpListener listener;
  CollectingSink collect;
  ew::WireReceiver receiver(ew::WireReceiverConfig{}, collect.sink());
  ew::WireSenderConfig cfg;
  cfg.events_per_packet = 64;
  const std::uint16_t port = listener.port();
  bool lost = false;
  const ew::WireSendStats stats = pump_session(
      stream, cfg, [port] { return ew::TcpTransport::connect(port, 2000ms); },
      listener, receiver, [&](std::unique_ptr<ew::Transport> t) {
        return std::make_unique<LoseFirstFinalAck>(std::move(t), receiver,
                                                   lost);
      });

  EXPECT_TRUE(lost);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_GE(receiver.stats().resumes_served, 1u);
  ASSERT_TRUE(collect.saw_eos);
  ASSERT_EQ(collect.events.size(), stream.events().size());
  for (std::size_t i = 0; i < collect.events.size(); ++i) {
    ASSERT_EQ(collect.events[i], stream.events()[i]) << "event " << i;
  }
  EXPECT_TRUE(receiver.stats().accounting_ok());
}

TEST(WireSession, ReconnectResumeAcrossWrapLosesNothing) {
  // Disconnect mid-stream while the timestamps cross the 32-bit wrap:
  // the resume handshake must restart cleanly AND the unwrapper state
  // must carry the 64-bit timeline across the reconnect.
  const std::int64_t wrap = std::int64_t{1} << 32;
  const ee::EventStream stream = ramp_stream(wrap - 6000, 400, 30);
  ASSERT_GT(stream.t_end(), wrap);

  ew::NetFaultPlan plan;
  plan.add({ew::NetFaultType::kDisconnect, 1, 5, 0.0});
  const auto injector = std::make_shared<ew::NetFaultInjector>(plan);

  ew::TcpListener listener;
  CollectingSink collect;
  ew::WireReceiverConfig rcfg;
  rcfg.stall_timeout = 2000ms;
  ew::WireReceiver receiver(rcfg, collect.sink());

  ew::WireSenderConfig cfg;
  cfg.events_per_packet = 32;  // disconnect site seq=5 exists
  const std::uint16_t port = listener.port();
  const ew::WireSendStats stats = pump_session(
      stream, cfg,
      [port, injector]() -> std::unique_ptr<ew::Transport> {
        auto inner = ew::TcpTransport::connect(port, 2000ms);
        if (!inner) return nullptr;
        return std::make_unique<ew::NetFaultProxy>(std::move(inner),
                                                   injector);
      },
      listener, receiver);

  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(injector->counts().disconnects, 1u);
  ASSERT_TRUE(collect.saw_eos);
  ASSERT_EQ(collect.events.size(), stream.events().size());
  for (std::size_t i = 0; i < collect.events.size(); ++i) {
    ASSERT_EQ(collect.events[i], stream.events()[i]) << "event " << i;
  }
  EXPECT_TRUE(receiver.stats().accounting_ok());
}

TEST(WireSession, StalledPeerDetectedByStallTimeout) {
  auto [a, b] = ew::ShmRingTransport::make_pair();
  CollectingSink collect;
  ew::WireReceiverConfig rcfg;
  rcfg.stall_timeout = 60ms;
  ew::WireReceiver receiver(rcfg, collect.sink());
  // Peer sends nothing at all: serve() must return kStalled, not hang.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(receiver.serve(*b), ew::ServeOutcome::kStalled);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  (void)a;
}

// ----------------------------------------------------- seeded net plan

TEST(NetFaultPlan, SeededIsReproducibleAndWellShaped) {
  ew::NetFaultPlanOptions opts;
  opts.packets_hint = 32;
  opts.drops = 3;
  opts.corrupts = 2;
  opts.truncates = 2;
  opts.reorders = 2;
  opts.delays = 2;
  opts.disconnects = 1;

  const ew::NetFaultPlan a = ew::NetFaultPlan::seeded(42, opts);
  const ew::NetFaultPlan b = ew::NetFaultPlan::seeded(42, opts);
  const ew::NetFaultPlan c = ew::NetFaultPlan::seeded(43, opts);

  ASSERT_EQ(a.specs.size(), 12u);
  ASSERT_EQ(a.specs.size(), b.specs.size());
  bool identical = true;
  for (std::size_t i = 0; i < a.specs.size(); ++i) {
    EXPECT_EQ(a.specs[i].type, b.specs[i].type);
    EXPECT_EQ(a.specs[i].seq, b.specs[i].seq);
    if (i < c.specs.size() && (a.specs[i].seq != c.specs[i].seq ||
                               a.specs[i].type != c.specs[i].type)) {
      identical = false;
    }
  }
  EXPECT_FALSE(identical) << "different seeds produced identical plans";

  // Sites are drawn without replacement: seqs are unique.
  std::vector<std::uint32_t> seqs;
  for (const ew::NetFaultSpec& s : a.specs) {
    EXPECT_LT(s.seq, opts.packets_hint);
    seqs.push_back(s.seq);
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::unique(seqs.begin(), seqs.end()), seqs.end());

  // Over-subscribed plans are an error, not a silent truncation.
  ew::NetFaultPlanOptions over = opts;
  over.packets_hint = 4;
  EXPECT_THROW(ew::NetFaultPlan::seeded(1, over), std::invalid_argument);
}

TEST(NetFaultInjector, SitesFireExactlyOnce) {
  ew::NetFaultPlan plan;
  plan.add({ew::NetFaultType::kDrop, 1, 3, 0.0});
  ew::NetFaultInjector injector(plan);
  EXPECT_EQ(injector.take(1, 3).size(), 1u);
  EXPECT_TRUE(injector.take(1, 3).empty());  // retransmission passes
  EXPECT_TRUE(injector.take(1, 4).empty());
  EXPECT_TRUE(injector.take(2, 3).empty());  // other session untouched
}

// ------------------------------------------------- recorder / replayer

TEST(WireRecorder, RecordDecodeRoundTripIsExact) {
  const ee::EventStream stream = small_stream(500'000, 150'000, 31);
  const std::string path = temp_path("rec");
  ew::record_stream(stream, path, 100);

  ew::StreamReplayer replayer(path);
  EXPECT_EQ(replayer.header().epoch_us, stream.t_begin());
  EXPECT_EQ(replayer.header().t_end_us, stream.t_end());
  EXPECT_EQ(replayer.data_packets(),
            (stream.events().size() + 99) / 100);

  const ee::EventStream decoded = replayer.decode();
  EXPECT_EQ(decoded.geometry(), stream.geometry());
  ASSERT_EQ(decoded.events().size(), stream.events().size());
  for (std::size_t i = 0; i < decoded.events().size(); ++i) {
    ASSERT_EQ(decoded.events()[i], stream.events()[i]) << "event " << i;
  }
  std::remove(path.c_str());
}

TEST(WireRecorder, ReplayerRejectsCorruptRecording) {
  const ee::EventStream stream = small_stream(0, 60'000, 5);
  const std::string path = temp_path("corrupt");
  ew::record_stream(stream, path, 64);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff off =
        static_cast<std::streamoff>(ew::kHeaderBytes + 40);
    f.seekg(off);
    char x = 0;
    f.read(&x, 1);
    x = static_cast<char>(x ^ 0x7F);  // guaranteed different
    f.seekp(off);
    f.write(&x, 1);
  }
  EXPECT_THROW(ew::StreamReplayer{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(WireRecorder, PacedReplayHoldsTheTargetRate) {
  // 100 ms of sensor time at 20x -> ~5 ms wall. Replay into a live
  // receiver and check pacing + byte-exact delivery.
  const ee::EventStream stream = ramp_stream(0, 500, 200);  // 100 ms span
  const std::string path = temp_path("paced");
  ew::record_stream(stream, path, 50);
  ew::StreamReplayer replayer(path);

  auto [tx_end, rx_end] = ew::ShmRingTransport::make_pair(1 << 20);
  CollectingSink collect;
  ew::WireReceiver receiver(ew::WireReceiverConfig{}, collect.sink());
  std::thread rx([&] {
    while (!receiver.eos()) {
      if (receiver.serve(*rx_end) != ew::ServeOutcome::kEndOfStream) break;
    }
  });
  const ew::ReplayStats stats = replayer.replay(*tx_end, 20.0);
  tx_end->close();
  rx.join();
  receiver.finish();

  EXPECT_EQ(stats.packets_sent, replayer.data_packets() + 1);  // + eos
  EXPECT_NEAR(stats.target_ms, 5.0, 0.5);
  EXPECT_GE(stats.wall_ms, stats.target_ms * 0.8);
  ASSERT_EQ(collect.events.size(), stream.events().size());
  EXPECT_TRUE(receiver.stats().accounting_ok());
  std::remove(path.c_str());
}

// -------------------------------------------------------- fault journal

TEST(FaultJournal, AppendReadRoundTrip) {
  const std::string path = temp_path("journal");
  {
    ev::FaultJournal journal(path);
    journal.append("inject", "stream=0 seq=3 action=stall");
    journal.append("quarantine", "stream=1 seq=9 fault=bad action=reject");
    journal.append("weird\nkind", "multi\tline\rdetail");
    EXPECT_EQ(journal.entries_written(), 3u);
  }
  const auto entries = ev::FaultJournal::read(path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].kind, "inject");
  EXPECT_EQ(entries[0].detail, "stream=0 seq=3 action=stall");
  EXPECT_EQ(entries[1].kind, "quarantine");
  EXPECT_GE(entries[1].t_ms, entries[0].t_ms);
  // Sanitization keeps one incident on one line.
  EXPECT_EQ(entries[2].kind, "weird kind");
  EXPECT_EQ(entries[2].detail, "multi line detail");
  std::remove(path.c_str());
}

TEST(FaultJournal, TornFinalLineIsSkippedNotFatal) {
  const std::string path = temp_path("torn");
  {
    ev::FaultJournal journal(path);
    journal.append("run", "phase=start");
    journal.append("run", "phase=end");
  }
  {  // tear the last line: strip its trailing newline and some bytes
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() - 4);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto entries = ev::FaultJournal::read(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].detail, "phase=start");
  std::remove(path.c_str());
}

// -------------------------------------------- wire serving (run_wire)

TEST(WireServing, RunWireBitMatchesRunSerial) {
  // End-to-end: streams sent through real TCP sessions into the
  // serving runtime must produce outputs bitwise identical to serial
  // in-process execution of the same frames.
  const en::ZooConfig scale{32, 32, 8, 4, 2.0f};
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, scale);

  ev::ServeConfig config;
  config.n_workers = 2;
  config.queue_capacity = 64;
  config.overflow = ev::OverflowPolicy::kBlock;
  config.capture_outputs = true;
  ev::ServingRuntime runtime(spec, 7, config);

  constexpr int kStreams = 2;
  std::vector<ee::EventStream> streams;
  std::vector<std::vector<es::SparseFrame>> frames;
  for (int s = 0; s < kStreams; ++s) {
    streams.push_back(small_stream(0, 200'000, 60 + s, 32, 32));
    frames.push_back(
        ev::ServingRuntime::ingest(streams.back(), config.ingress));
    ASSERT_FALSE(frames.back().empty());
  }

  std::vector<std::unique_ptr<ew::TcpListener>> listeners;
  std::vector<ev::TransportAcceptor> acceptors;
  for (int s = 0; s < kStreams; ++s) {
    listeners.push_back(std::make_unique<ew::TcpListener>());
    ew::TcpListener* l = listeners.back().get();
    acceptors.push_back(
        [l](std::chrono::milliseconds timeout) { return l->accept(timeout); });
  }

  std::vector<std::thread> senders;
  std::vector<ew::WireSendStats> send_stats(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    const std::uint16_t port = listeners[static_cast<std::size_t>(s)]->port();
    senders.emplace_back([&, s, port] {
      ew::WireSenderConfig cfg;
      cfg.session_id = static_cast<std::uint32_t>(s + 1);
      cfg.events_per_packet = 128;
      ew::WireSender sender(streams[static_cast<std::size_t>(s)], cfg, [port] {
        return ew::TcpTransport::connect(port, 2000ms);
      });
      send_stats[static_cast<std::size_t>(s)] = sender.run();
    });
  }

  const ev::ServeReport report = runtime.run_wire(acceptors);
  for (std::thread& t : senders) t.join();

  for (int s = 0; s < kStreams; ++s) {
    EXPECT_TRUE(send_stats[static_cast<std::size_t>(s)].completed)
        << "stream " << s;
  }
  EXPECT_TRUE(report.accounting_ok());
  EXPECT_EQ(report.frames_failed, 0u);
  EXPECT_EQ(report.frames_dropped, 0u);

  const auto serial = runtime.run_serial(frames, true);
  std::size_t expected = 0;
  for (const auto& f : frames) expected += f.size();
  ASSERT_EQ(report.frames_completed, expected);
  for (int s = 0; s < kStreams; ++s) {
    const auto& per_stream = frames[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < per_stream.size(); ++i) {
      const es::DenseTensor* served =
          runtime.output(s, static_cast<std::int64_t>(i));
      ASSERT_NE(served, nullptr) << "stream " << s << " seq " << i;
      EXPECT_EQ(es::max_abs_diff(*served,
                                 serial.outputs[static_cast<std::size_t>(s)]
                                               [i]),
                0.0f)
          << "stream " << s << " seq " << i;
    }
  }
}

TEST(WireServing, ReportSumsEveryWireLaneAcrossStreams) {
  // A mid-stream disconnect through run_wire: every aggregate wire lane
  // of the report is the sum of its per-stream lanes, including the
  // session-health ones. Timeouts are generous so a loaded host slows
  // the reconnect down without failing it.
  const en::ZooConfig scale{32, 32, 8, 4, 2.0f};
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, scale);

  ev::ServeConfig config;
  config.n_workers = 1;
  config.queue_capacity = 64;
  config.overflow = ev::OverflowPolicy::kBlock;
  ev::ServingRuntime runtime(spec, 7, config);

  const ee::EventStream stream = small_stream(0, 150'000, 81, 32, 32);
  // ~8 data packets, so the disconnect site (seq 3) exists.
  const std::size_t per_packet = std::min(
      ew::kMaxEventsPerPacket,
      std::max<std::size_t>(1, stream.events().size() / 8));
  ew::NetFaultPlan plan;
  plan.add({ew::NetFaultType::kDisconnect, 1, 3, 0.0});
  const auto injector = std::make_shared<ew::NetFaultInjector>(plan);

  ew::TcpListener listener;
  ew::TcpListener* l = &listener;
  const ev::TransportAcceptor acceptor =
      [l](std::chrono::milliseconds timeout) { return l->accept(timeout); };

  const std::uint16_t port = listener.port();
  ew::WireSendStats send_stats;
  std::thread tx([&] {
    ew::WireSenderConfig cfg;
    cfg.events_per_packet = per_packet;
    cfg.resume_timeout = 5000ms;
    ew::WireSender sender(stream, cfg,
                          [port, injector]() -> std::unique_ptr<ew::Transport> {
                            auto inner =
                                ew::TcpTransport::connect(port, 5000ms);
                            if (!inner) return nullptr;
                            return std::make_unique<ew::NetFaultProxy>(
                                std::move(inner), injector);
                          });
    send_stats = sender.run();
  });

  ev::WireIngressConfig wire_config;
  wire_config.accept_timeout = 5000ms;
  wire_config.receiver.stall_timeout = 5000ms;
  const ev::ServeReport report = runtime.run_wire(
      std::span<const ev::TransportAcceptor>(&acceptor, 1), wire_config);
  tx.join();

  EXPECT_TRUE(send_stats.completed);
  EXPECT_EQ(injector->counts().disconnects, 1u);
  EXPECT_TRUE(report.accounting_ok());
  ev::StreamServeStats sum;
  for (const ev::StreamServeStats& s : report.streams) {
    sum.rejected_packets += s.rejected_packets;
    sum.duplicate_packets += s.duplicate_packets;
    sum.wire_resumes += s.wire_resumes;
    sum.wire_heartbeats += s.wire_heartbeats;
    sum.wire_rewinds += s.wire_rewinds;
    sum.wire_resyncs += s.wire_resyncs;
    sum.wire_reconnects += s.wire_reconnects;
  }
  EXPECT_EQ(report.rejected_packets, sum.rejected_packets);
  EXPECT_EQ(report.duplicate_packets, sum.duplicate_packets);
  EXPECT_EQ(report.wire_resumes, sum.wire_resumes);
  EXPECT_EQ(report.wire_heartbeats, sum.wire_heartbeats);
  EXPECT_EQ(report.wire_rewinds, sum.wire_rewinds);
  EXPECT_EQ(report.wire_resyncs, sum.wire_resyncs);
  EXPECT_EQ(report.wire_reconnects, sum.wire_reconnects);
  EXPECT_GE(report.wire_reconnects, 1u);
}

/// Receiver-side transport whose first send after the sender's
/// end-of-stream packet fails and takes the link down: the final ack
/// never reaches the sender. The end-of-stream packet is spotted by
/// framing the bytes recv_some returns.
class FinalAckLossTransport final : public ew::Transport {
 public:
  explicit FinalAckLossTransport(std::unique_ptr<ew::Transport> inner)
      : inner_(std::move(inner)) {}

  bool send(const void* data, std::size_t n) override {
    if (eos_seen_ && !failed_) {
      failed_ = true;
      inner_->close();
      return false;
    }
    return inner_->send(data, n);
  }

  std::ptrdiff_t recv_some(void* data, std::size_t n,
                           std::chrono::milliseconds timeout) override {
    const std::ptrdiff_t got = inner_->recv_some(data, n, timeout);
    if (got > 0) {
      framer_.feed(data, static_cast<std::size_t>(got));
      while (const auto framed = framer_.next()) {
        if (framed->error == ew::PacketError::kNone &&
            framed->header.type == ew::PacketType::kEndOfStream) {
          eos_seen_ = true;
        }
      }
    }
    return got;
  }

  void close() override { inner_->close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }

 private:
  std::unique_ptr<ew::Transport> inner_;
  ew::PacketFramer framer_;
  bool eos_seen_ = false;
  bool failed_ = false;
};

TEST(WireServing, ReconnectPastEndOfStreamGetsFinalAck) {
  // The final ack is lost with the link: the sender reconnects past
  // end-of-stream, and the ingress must still be accepting to answer
  // it. Timeouts are generous so a loaded host slows the reconnect down
  // without failing it.
  const en::ZooConfig scale{32, 32, 8, 4, 2.0f};
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, scale);

  ev::ServeConfig config;
  config.n_workers = 1;
  config.queue_capacity = 64;
  config.overflow = ev::OverflowPolicy::kBlock;
  config.capture_outputs = true;
  ev::ServingRuntime runtime(spec, 7, config);

  const ee::EventStream stream = small_stream(0, 150'000, 91, 32, 32);
  const std::vector<std::vector<es::SparseFrame>> frames{
      ev::ServingRuntime::ingest(stream, config.ingress)};
  ASSERT_FALSE(frames.front().empty());

  ew::TcpListener listener;
  ew::TcpListener* l = &listener;
  bool first = true;
  const ev::TransportAcceptor acceptor =
      [l, &first](std::chrono::milliseconds timeout)
      -> std::unique_ptr<ew::Transport> {
    std::unique_ptr<ew::Transport> t = l->accept(timeout);
    if (t && first) {
      first = false;
      return std::make_unique<FinalAckLossTransport>(std::move(t));
    }
    return t;
  };

  const std::uint16_t port = listener.port();
  ew::WireSendStats send_stats;
  std::thread tx([&] {
    ew::WireSenderConfig cfg;
    cfg.resume_timeout = 5000ms;
    cfg.max_reconnects = 2;
    ew::WireSender sender(stream, cfg, [port] {
      return ew::TcpTransport::connect(port, 5000ms);
    });
    send_stats = sender.run();
  });

  ev::WireIngressConfig wire_config;
  wire_config.accept_timeout = 5000ms;
  wire_config.receiver.stall_timeout = 5000ms;
  const ev::ServeReport report = runtime.run_wire(
      std::span<const ev::TransportAcceptor>(&acceptor, 1), wire_config);
  tx.join();

  EXPECT_TRUE(send_stats.completed);
  EXPECT_EQ(send_stats.reconnects, 1u);
  EXPECT_EQ(report.wire_reconnects, 1u);
  EXPECT_TRUE(report.accounting_ok());
  EXPECT_EQ(report.frames_failed, 0u);
  EXPECT_EQ(report.frames_dropped, 0u);

  const auto serial = runtime.run_serial(frames, true);
  ASSERT_EQ(report.frames_completed, frames.front().size());
  for (std::size_t i = 0; i < frames.front().size(); ++i) {
    const es::DenseTensor* served =
        runtime.output(0, static_cast<std::int64_t>(i));
    ASSERT_NE(served, nullptr) << "seq " << i;
    EXPECT_EQ(es::max_abs_diff(*served, serial.outputs.front()[i]), 0.0f)
        << "seq " << i;
  }
}

TEST(WireServing, JournalRecordsWireRejections) {
  // A corrupt packet through run_wire lands in the journal and in the
  // rejected_packets lane, with the packet partition still exact.
  const en::ZooConfig scale{32, 32, 8, 4, 2.0f};
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, scale);

  const std::string journal_path = temp_path("wire_journal");
  ev::ServeConfig config;
  config.n_workers = 1;
  config.queue_capacity = 64;
  config.journal_path = journal_path;
  ev::ServingRuntime runtime(spec, 7, config);

  const ee::EventStream stream = small_stream(0, 150'000, 77, 32, 32);
  // Pack ~8 data packets regardless of the synthesized event count so
  // the seeded corrupt site (seq < 4) is guaranteed to exist.
  const std::size_t per_packet = std::min(
      ew::kMaxEventsPerPacket,
      std::max<std::size_t>(1, stream.events().size() / 8));

  ew::NetFaultPlanOptions opts;
  opts.packets_hint = 4;
  opts.corrupts = 1;
  const auto injector = std::make_shared<ew::NetFaultInjector>(
      ew::NetFaultPlan::seeded(5, opts));

  ew::TcpListener listener;
  ew::TcpListener* l = &listener;
  const ev::TransportAcceptor acceptor =
      [l](std::chrono::milliseconds timeout) { return l->accept(timeout); };

  const std::uint16_t port = listener.port();
  std::thread tx([&] {
    ew::WireSenderConfig cfg;
    cfg.events_per_packet = per_packet;
    ew::WireSender sender(stream, cfg,
                          [port, injector]() -> std::unique_ptr<ew::Transport> {
                            auto inner =
                                ew::TcpTransport::connect(port, 2000ms);
                            if (!inner) return nullptr;
                            return std::make_unique<ew::NetFaultProxy>(
                                std::move(inner), injector);
                          });
    (void)sender.run();
  });

  const ev::ServeReport report =
      runtime.run_wire(std::span<const ev::TransportAcceptor>(&acceptor, 1));
  tx.join();

  EXPECT_TRUE(report.accounting_ok());
  EXPECT_GE(report.rejected_packets, 1u);
  const auto entries = ev::FaultJournal::read(journal_path);
  bool saw_wire_reject = false;
  for (const auto& e : entries) {
    if (e.kind == "wire-reject") saw_wire_reject = true;
  }
  EXPECT_TRUE(saw_wire_reject);
  std::remove(journal_path.c_str());
}
