// Transport subsystem unit + hostile-input tests: framing, handshake,
// wire codec, channel accounting, dealer protocol.  Malformed or hostile
// peer behaviour must raise typed net:: errors — never hang, never UB
// (this suite runs under the ASan/UBSan leg).

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "net/dealer.hpp"
#include "net/party_session.hpp"
#include "net/transport_channel.hpp"
#include "net/wire.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace net = pasnet::net;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace nn = pasnet::nn;
namespace proto = pasnet::proto;

namespace {

constexpr auto kShortTimeout = std::chrono::milliseconds(2000);

net::TransportOptions short_opts() {
  net::TransportOptions o;
  o.connect_timeout = kShortTimeout;
  o.io_timeout = kShortTimeout;
  return o;
}

/// A connected (party0, party1) transport pair over localhost TCP.
std::pair<std::unique_ptr<net::TcpTransport>, std::unique_ptr<net::TcpTransport>>
transport_pair() {
  net::Listener listener(0);
  auto accepted = std::async(std::launch::async, [&] {
    return net::TcpTransport::accept(listener, 1, net::SessionKind::party_channel, short_opts());
  });
  auto c0 = net::TcpTransport::connect("127.0.0.1", listener.port(), 0,
                                       net::SessionKind::party_channel, short_opts());
  return {std::move(c0), accepted.get()};
}

/// Raw peer that speaks just enough protocol by hand: a length-prefixed
/// frame with arbitrary payload bytes.
void send_raw_frame(net::Socket& s, const std::vector<std::uint8_t>& payload) {
  std::uint8_t header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(payload.size() >> (8 * i));
  }
  s.send_all(header, 4, kShortTimeout);
  if (!payload.empty()) s.send_all(payload.data(), payload.size(), kShortTimeout);
}

/// Handcrafted v2 hello payload (magic/version/party/kind/trace id),
/// corruptible.  The default trace id is an arbitrary nonzero value — the
/// connector must never present zero.
std::vector<std::uint8_t> raw_hello(std::uint32_t magic, std::uint16_t version, std::uint8_t party,
                                    std::uint8_t kind, std::uint64_t id_hi = 0xAB,
                                    std::uint64_t id_lo = 0xCD) {
  std::vector<std::uint8_t> h(net::kHelloBytes);
  for (int i = 0; i < 4; ++i) {
    h[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(magic >> (8 * i));
  }
  h[4] = static_cast<std::uint8_t>(version & 0xFF);
  h[5] = static_cast<std::uint8_t>(version >> 8);
  h[6] = party;
  h[7] = kind;
  for (int i = 0; i < 8; ++i) {
    h[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(id_hi >> (8 * i));
    h[static_cast<std::size_t>(16 + i)] = static_cast<std::uint8_t>(id_lo >> (8 * i));
  }
  return h;
}

/// The victim's hello on the wire: 4-byte frame header + 24-byte payload.
constexpr std::size_t kWireHelloBytes = 4 + net::kHelloBytes;

/// Completes the connector side of the post-hello clock sync by hand:
/// kClockSyncRounds ping/echo exchanges, then the 16-byte offset frame.
void raw_clock_sync(net::Socket& raw) {
  for (int k = 0; k < net::kClockSyncRounds; ++k) {
    send_raw_frame(raw, std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(k + 1)));
    std::uint8_t echo[12];  // 4-byte header + u64 peer timestamp
    ASSERT_TRUE(raw.recv_all(echo, sizeof(echo), kShortTimeout));
  }
  send_raw_frame(raw, std::vector<std::uint8_t>(16, 0));  // offset 0, rtt 0
}

/// Runs the victim handshake against a raw scripted peer; returns what the
/// victim threw (or nothing).
template <typename RawPeer>
void expect_handshake_error(RawPeer&& peer_script) {
  net::Listener listener(0);
  auto victim = std::async(std::launch::async, [&] {
    return net::TcpTransport::accept(listener, 1, net::SessionKind::party_channel, short_opts());
  });
  net::Socket raw = net::connect_tcp("127.0.0.1", listener.port(), kShortTimeout);
  peer_script(raw);
  EXPECT_THROW((void)victim.get(), net::HandshakeError);
}

/// Same, but also pins a substring of the typed error's message — hostile
/// peers must get the RIGHT diagnosis, not just some rejection.
template <typename RawPeer>
void expect_handshake_error_containing(const char* needle, RawPeer&& peer_script) {
  net::Listener listener(0);
  auto victim = std::async(std::launch::async, [&] {
    return net::TcpTransport::accept(listener, 1, net::SessionKind::party_channel, short_opts());
  });
  net::Socket raw = net::connect_tcp("127.0.0.1", listener.port(), kShortTimeout);
  peer_script(raw);
  try {
    (void)victim.get();
    ADD_FAILURE() << "handshake unexpectedly succeeded";
  } catch (const net::HandshakeError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(Wire, RoundTripsPrimitives) {
  net::WireWriter w;
  w.put_u8(7);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_string("hello");
  w.put_ring_vec({1, 2, 3});
  const auto bytes = w.bytes();
  net::WireReader r(bytes);
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_ring_vec(), (pc::RingVec{1, 2, 3}));
  r.expect_end();
}

TEST(Wire, TruncatedAndOversizedFieldsRaiseTypedErrors) {
  const std::vector<std::uint8_t> tiny{1, 2, 3};
  {
    net::WireReader r(tiny);
    EXPECT_THROW((void)r.get_u64(), net::WireError);  // truncated primitive
  }
  {
    // A length field promising more than the payload holds must not turn
    // into a giant allocation.
    net::WireWriter w;
    w.put_u64(1ULL << 60);
    const auto bytes = w.bytes();
    net::WireReader r(bytes);
    EXPECT_THROW((void)r.get_bytes(), net::WireError);
  }
  {
    net::WireWriter w;
    w.put_u8(1);
    w.put_u8(2);
    const auto bytes = w.bytes();
    net::WireReader r(bytes);
    (void)r.get_u8();
    EXPECT_THROW(r.expect_end(), net::WireError);  // trailing bytes
  }
}

// ---------------------------------------------------------------------------
// Framing and handshake
// ---------------------------------------------------------------------------

TEST(Transport, FramesRoundTripBothDirections) {
  auto [c0, c1] = transport_pair();
  EXPECT_EQ(c0->peer_party(), 1);
  EXPECT_EQ(c1->peer_party(), 0);
  const std::vector<std::uint8_t> a{1, 2, 3, 4, 5};
  c0->send_frame(a);
  EXPECT_EQ(c1->recv_frame(), a);
  c1->send_frame({});
  EXPECT_TRUE(c0->recv_frame().empty());
}

TEST(Transport, OversizedLengthPrefixRaisesFrameErrorWithoutAllocating) {
  net::Listener listener(0);
  auto victim = std::async(std::launch::async, [&] {
    auto t = net::TcpTransport::accept(listener, 1, net::SessionKind::party_channel, short_opts());
    return t->recv_frame();  // must throw FrameError on the hostile prefix
  });
  net::Socket raw = net::connect_tcp("127.0.0.1", listener.port(), kShortTimeout);
  send_raw_frame(raw, raw_hello(net::kMagic, net::kProtocolVersion, 0, 0));
  // Consume the victim's hello, then play the connector's clock-sync role
  // so the victim reaches its frame loop.
  std::uint8_t sink[kWireHelloBytes];
  ASSERT_TRUE(raw.recv_all(sink, sizeof(sink), kShortTimeout));
  raw_clock_sync(raw);
  // Hostile length prefix: 0xFFFFFFFF, no payload.
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  raw.send_all(huge, 4, kShortTimeout);
  EXPECT_THROW((void)victim.get(), net::FrameError);
}

TEST(Transport, ShortReadMidFrameRaisesFrameError) {
  net::Listener listener(0);
  auto victim = std::async(std::launch::async, [&] {
    auto t = net::TcpTransport::accept(listener, 1, net::SessionKind::party_channel, short_opts());
    return t->recv_frame();
  });
  net::Socket raw = net::connect_tcp("127.0.0.1", listener.port(), kShortTimeout);
  send_raw_frame(raw, raw_hello(net::kMagic, net::kProtocolVersion, 0, 0));
  std::uint8_t sink[kWireHelloBytes];
  ASSERT_TRUE(raw.recv_all(sink, sizeof(sink), kShortTimeout));
  raw_clock_sync(raw);
  // Promise 100 bytes, deliver 3, hang up.
  const std::uint8_t header[4] = {100, 0, 0, 0};
  raw.send_all(header, 4, kShortTimeout);
  const std::uint8_t partial[3] = {9, 9, 9};
  raw.send_all(partial, 3, kShortTimeout);
  raw.close();
  EXPECT_THROW((void)victim.get(), net::FrameError);
}

TEST(Transport, SilentPeerRaisesSocketTimeout) {
  net::Listener listener(0);
  auto victim = std::async(std::launch::async, [&] {
    net::TransportOptions o;
    o.connect_timeout = kShortTimeout;
    o.io_timeout = std::chrono::milliseconds(200);
    auto t = net::TcpTransport::accept(listener, 1, net::SessionKind::party_channel, o);
    return t->recv_frame();
  });
  net::Socket raw = net::connect_tcp("127.0.0.1", listener.port(), kShortTimeout);
  send_raw_frame(raw, raw_hello(net::kMagic, net::kProtocolVersion, 0, 0));
  std::uint8_t sink[kWireHelloBytes];
  ASSERT_TRUE(raw.recv_all(sink, sizeof(sink), kShortTimeout));
  raw_clock_sync(raw);
  // ... then say nothing.
  EXPECT_THROW((void)victim.get(), net::SocketTimeout);
}

TEST(Handshake, RejectsBadMagic) {
  expect_handshake_error([](net::Socket& raw) {
    send_raw_frame(raw, raw_hello(0x46554E4BU, net::kProtocolVersion, 0, 0));
  });
}

TEST(Handshake, RejectsWrongPartyId) {
  // The victim accepts as party 1 and expects party 0 on the other end.
  expect_handshake_error([](net::Socket& raw) {
    send_raw_frame(raw, raw_hello(net::kMagic, net::kProtocolVersion, /*party=*/1, 0));
  });
}

TEST(Handshake, RejectsVersionSkew) {
  expect_handshake_error([](net::Socket& raw) {
    send_raw_frame(raw, raw_hello(net::kMagic, net::kProtocolVersion + 7, 0, 0));
  });
}

TEST(Handshake, RejectsSessionKindMismatch) {
  // A dealer client dialing a party port fails at the kind byte.
  expect_handshake_error([](net::Socket& raw) {
    send_raw_frame(raw, raw_hello(net::kMagic, net::kProtocolVersion, 0,
                                  static_cast<std::uint8_t>(net::SessionKind::dealer)));
  });
}

TEST(Handshake, RejectsLegacyV1HelloAsVersionSkew) {
  // An old 8-byte v1 hello clears the size floor and the magic check, so
  // the peer must be told about the version skew — the actionable
  // diagnosis — not handed a generic framing error.
  expect_handshake_error_containing("version skew", [](net::Socket& raw) {
    std::vector<std::uint8_t> v1 = raw_hello(net::kMagic, /*version=*/1, 0, 0);
    v1.resize(8);
    send_raw_frame(raw, v1);
  });
}

TEST(Handshake, RejectsTruncatedTraceIdHello) {
  // Right magic, right version, but the trace id is cut short: a v2 hello
  // is exactly 24 bytes and anything else is malformed.
  expect_handshake_error_containing("truncated trace id", [](net::Socket& raw) {
    std::vector<std::uint8_t> cut = raw_hello(net::kMagic, net::kProtocolVersion, 0, 0);
    cut.resize(16);
    send_raw_frame(raw, cut);
  });
}

TEST(Handshake, RejectsZeroTraceIdFromConnector) {
  // The connector mints the run's trace id; presenting zero would leave
  // every downstream event uncorrelatable, so the acceptor refuses.
  expect_handshake_error_containing("zero trace id", [](net::Socket& raw) {
    send_raw_frame(raw,
                   raw_hello(net::kMagic, net::kProtocolVersion, 0, 0, /*id_hi=*/0, /*id_lo=*/0));
  });
}

TEST(Handshake, ConnectorMintsTraceIdAcceptorAdopts) {
  auto [c0, c1] = transport_pair();
  EXPECT_FALSE(c0->trace_id().is_zero());
  EXPECT_EQ(c0->trace_id(), c1->trace_id());
  // The connector dialed with offset 0, so it stays the clock reference.
  EXPECT_EQ(c0->clock_offset_us(), 0);
  // Both clocks share the process (same steady epoch): the acceptor's
  // estimated offset must be small — bounded by scheduling noise.
  EXPECT_LT(std::llabs(c1->clock_offset_us()), 100000);
}

TEST(Handshake, CallerSuppliedTraceIdAndOffsetChainThrough) {
  // A party dialing the dealer after its party-channel handshake passes
  // along the id it already adopted plus its learned clock offset.
  net::TransportOptions o = short_opts();
  o.trace_id = pasnet::obs::TraceId{0x1111, 0x2222};
  o.local_clock_offset_us = 5000;
  net::Listener listener(0);
  auto accepted = std::async(std::launch::async, [&] {
    return net::TcpTransport::accept(listener, 1, net::SessionKind::party_channel, short_opts());
  });
  auto c0 = net::TcpTransport::connect("127.0.0.1", listener.port(), 0,
                                       net::SessionKind::party_channel, o);
  auto c1 = accepted.get();
  EXPECT_EQ(c1->trace_id(), (pasnet::obs::TraceId{0x1111, 0x2222}));
  EXPECT_EQ(c0->trace_id(), c1->trace_id());
  // The connector keeps its own offset; the acceptor's estimate is chained
  // onto it, so the acceptor lands near 5000us (within scheduling noise).
  EXPECT_EQ(c0->clock_offset_us(), 5000);
  EXPECT_LT(std::llabs(c1->clock_offset_us() - 5000), 100000);
}

// ---------------------------------------------------------------------------
// TransportChannel accounting
// ---------------------------------------------------------------------------

TEST(TransportChannel, MetersMatchTheSimulatedPair) {
  // Replay the same message pattern over an in-process pair and over TCP;
  // the meters must agree byte for byte and round for round.
  auto [l0, l1] = pc::Channel::make_pair(pc::ChannelMode::lockstep);
  auto [t0r, t1r] = transport_pair();
  net::TransportChannel t0(std::move(t0r), 0);
  net::TransportChannel t1(std::move(t1r), 1);

  const auto drive = [](pc::Channel& c0, pc::Channel& c1) {
    // Asymmetric flow (an OT-like dance)...
    c0.send_bytes({1, 2, 3});
    (void)c1.recv_bytes();
    c1.send_ring({4, 5}, /*wire_bytes_per_elem=*/4);
    (void)c0.recv_ring(2, 4);
    // ...then a bracketed symmetric exchange.
    c0.begin_round();
    c1.begin_round();
    c0.send_u64(7);
    c1.send_u64(9);
    (void)c0.recv_u64();
    (void)c1.recv_u64();
    c0.end_round();
    c1.end_round();
  };
  drive(*l0, *l1);
  std::thread peer([&] {
    (void)t1.recv_bytes();
    t1.send_ring({4, 5}, 4);
    t1.begin_round();
    t1.send_u64(9);
    (void)t1.recv_u64();
    t1.end_round();
  });
  t0.send_bytes({1, 2, 3});
  (void)t0.recv_ring(2, 4);
  t0.begin_round();
  t0.send_u64(7);
  (void)t0.recv_u64();
  t0.end_round();
  peer.join();

  const pc::TrafficStats sim = l0->stats();
  const pc::TrafficStats tcp0 = t0.stats();
  const pc::TrafficStats tcp1 = t1.stats();
  EXPECT_EQ(tcp0.bytes_p0_to_p1, sim.bytes_p0_to_p1);
  EXPECT_EQ(tcp0.bytes_p1_to_p0, sim.bytes_p1_to_p0);
  EXPECT_EQ(tcp0.messages, sim.messages);
  EXPECT_EQ(tcp0.rounds, sim.rounds);
  EXPECT_EQ(tcp1.bytes_p0_to_p1, sim.bytes_p0_to_p1);
  EXPECT_EQ(tcp1.bytes_p1_to_p0, sim.bytes_p1_to_p0);
  EXPECT_EQ(tcp1.messages, sim.messages);
  EXPECT_EQ(tcp1.rounds, sim.rounds);
}

TEST(TransportChannel, LargeSymmetricExchangeDoesNotDeadlockOnFullSocketBuffers) {
  // Both endpoints send a frame far beyond any socket buffer, THEN recv —
  // the sequential remote-exchange pattern.  Without the duplex pump in
  // TcpTransport::send_frame both sides would wedge in send until the
  // watchdog; with it, each drains the peer's inbound frame while waiting
  // for writability.
  auto [t0r, t1r] = transport_pair();
  net::TransportChannel c0(std::move(t0r), 0);
  net::TransportChannel c1(std::move(t1r), 1);
  const std::vector<std::uint8_t> big(8u << 20, 0xAB);  // 8 MiB each way
  std::thread peer([&] {
    c1.begin_round();
    c1.send_bytes(big);
    const auto got = c1.recv_bytes();
    c1.end_round();
    ASSERT_EQ(got.size(), big.size());
  });
  c0.begin_round();
  c0.send_bytes(big);
  const auto got = c0.recv_bytes();
  c0.end_round();
  peer.join();
  ASSERT_EQ(got.size(), big.size());
  EXPECT_EQ(got, big);
  EXPECT_EQ(c0.stats().rounds, 1u);
  EXPECT_EQ(c0.stats().total_bytes(), 2 * big.size());
}

TEST(TransportChannel, ImplausibleWireAccountingSubHeaderIsRejected) {
  auto [t0, t1] = transport_pair();
  net::TransportChannel victim(std::move(t1), 1);
  // A hand-built channel frame claiming absurd accounted bytes for a
  // 1-byte message: [u64 wire_bytes = 2^40][payload byte].
  std::vector<std::uint8_t> frame(9, 0);
  frame[5] = 1;  // 2^40 little-endian
  frame[8] = 42;
  t0->send_frame(frame);
  EXPECT_THROW((void)victim.recv_bytes(), net::FrameError);
}

// ---------------------------------------------------------------------------
// Dealer protocol
// ---------------------------------------------------------------------------

namespace {

/// A one-query store for a tiny model, plus its fingerprint.
struct DealerFixture {
  off::TripleStore store;
  std::uint64_t fingerprint;

  explicit DealerFixture(std::size_t queries = 2) {
    const nn::ModelDescriptor md =
        pasnet::testing::tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool);
    pc::Prng wprng(31);
    std::vector<int> node_of_layer;
    auto g = nn::build_graph(md, wprng, &node_of_layer);
    pasnet::testing::warm_up(*g, 2, 8, 32);
    pc::TwoPartyContext ctx;
    proto::SecureNetwork snet(md, *g, node_of_layer, ctx);
    store = proto::Workload(snet).preprocess(queries);
    fingerprint = store.plan_fingerprint();
  }
};

}  // namespace

TEST(Dealer, RefusesFingerprintMismatch) {
  DealerFixture f;
  net::DealerServer server(std::move(f.store));
  net::Listener listener(0);
  std::thread serve([&] { server.serve(listener, 1, short_opts()); });
  EXPECT_THROW(net::DealerClient("127.0.0.1", listener.port(), 0, f.fingerprint ^ 1,
                                 short_opts()),
               net::DealerError);
  serve.join();
}

TEST(Dealer, ServesAtomicPartySlicedClaimsAndRefusesDoubleClaims) {
  DealerFixture f(2);
  const off::QueryBundle reference = off::slice_bundle_for_party(f.store.bundle(0), 0);
  net::DealerServer server(std::move(f.store));
  net::Listener listener(0);
  std::thread serve([&] { server.serve(listener, 2, short_opts()); });
  {
    net::DealerClient c0("127.0.0.1", listener.port(), 0, f.fingerprint, short_opts());
    EXPECT_EQ(c0.info().num_queries, 2u);
    const off::QueryBundle bundle = c0.claim(0);
    ASSERT_EQ(bundle.bilinear.size(), reference.bilinear.size());
    ASSERT_FALSE(bundle.bilinear.empty());
    EXPECT_EQ(bundle.bilinear[0].spec, reference.bilinear[0].spec);
    EXPECT_EQ(bundle.bilinear[0].a.s0, reference.bilinear[0].a.s0);
    for (const auto v : bundle.bilinear[0].a.s1) EXPECT_EQ(v, 0u);  // peer half withheld
    EXPECT_THROW((void)c0.claim(0), net::DealerError);              // atomic per (party, index)
    // Exhaustion is the store's typed error.
    EXPECT_THROW((void)c0.claim(7), off::TripleStoreExhausted);
  }
  {
    // The other party may still claim the same index — its own half.
    net::DealerClient c1("127.0.0.1", listener.port(), 1, f.fingerprint, short_opts());
    const off::QueryBundle bundle = c1.claim(0);
    for (const auto v : bundle.bilinear[0].a.s0) EXPECT_EQ(v, 0u);
  }
  serve.join();
}

TEST(Dealer, MalformedBundleClaimFailsWithWireError) {
  // A store whose n = 64 hadamard triple, n = 64 square pair or conv2d
  // triple (2×4×4 input, 3 outputs, 3×3 kernel, pad 1) carries a
  // one-element z side: the client's bundle decoder refuses each claim as
  // a typed wire error before any protocol could recombine with it.
  DealerFixture f(3);
  pc::TripleDealer dealer(pc::RingConfig{}, 7);
  pc::BilinearSpec conv;
  conv.in_ch = 2;
  conv.in_h = conv.in_w = 4;
  conv.out_ch = 3;
  conv.kernel = 3;
  conv.pad = 1;
  off::QueryBundle bundles[3];
  bundles[0].bilinear.push_back(dealer.bilinear_triple(pc::BilinearSpec::hadamard(64)));
  bundles[1].square.push_back(dealer.square_pair(64));
  bundles[2].bilinear.push_back(dealer.bilinear_triple(conv));
  for (int q = 0; q < 3; ++q) {
    pc::Shared& z = q == 1 ? bundles[q].square[0].z : bundles[q].bilinear[0].z;
    z.s0.resize(1);
    z.s1.resize(1);
    f.store.bundle(static_cast<std::size_t>(q)) = bundles[q];
  }
  net::DealerServer server(std::move(f.store));
  net::Listener listener(0);
  std::thread serve([&] { server.serve(listener, 1, short_opts()); });
  {
    net::DealerClient c0("127.0.0.1", listener.port(), 0, f.fingerprint, short_opts());
    for (std::size_t q = 0; q < 3; ++q) EXPECT_THROW((void)c0.claim(q), net::WireError) << q;
  }
  serve.join();
}

TEST(Dealer, BothHalvesClaimsAreRefusedByDefault) {
  // A network client's party id is self-declared; a party-2 hello (both
  // share halves) must be refused.
  DealerFixture f(1);
  net::DealerServer server(std::move(f.store));
  net::Listener listener(0);
  std::thread serve([&] { server.serve(listener, 1, short_opts()); });
  EXPECT_THROW(net::DealerClient("127.0.0.1", listener.port(), 2, f.fingerprint, short_opts()),
               net::DealerError);
  serve.join();
}
