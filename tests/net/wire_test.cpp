// Wire-format gates: parse(format(f)) == f for every frame type with
// bit-exact doubles, malformed-input rejection (truncations, bad
// version/type, oversize lengths, trailing bytes, random corruption), and
// FrameAssembler reassembly across arbitrary split boundaries.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace bdps {
namespace {

Message sample_message() {
  return Message(/*id=*/42, /*publisher=*/3, /*publish_time=*/1234.5625,
                 /*size_kb=*/50.0,
                 {{"A1", Value(0.1)}, {"A2", Value(-7.25)},
                  {"symbol", Value(std::string("ACME"))}},
                 /*deadline=*/9876.5);
}

/// One of every frame type, with awkward payload values, in type-number
/// order.
std::vector<Frame> sample_frames() {
  std::vector<Frame> frames;
  frames.push_back(Frame{HelloFrame{7, 12, PeerRole::kController}});
  frames.push_back(Frame{ForwardFrame{0xDEADBEEFCAFEull, 19, sample_message()}});
  frames.push_back(Frame{AckFrame{0xFFFFFFFFFFFFFFFFull}});
  frames.push_back(Frame{ConfigFrame{"seed=7\ntopology=ring\n%%faults\n"}});
  frames.push_back(Frame{PortsFrame{{49152, 49153, 0, 65535}}});
  frames.push_back(Frame{PortReplyFrame{3, 49154}});
  frames.push_back(Frame{StartFrame{}});
  frames.push_back(Frame{StatusFrame{}});
  StatusReplyFrame status;
  status.shard = 2;
  status.outstanding = 17;
  status.forwards_sent = 1000;
  status.forwards_received = 999;
  status.receptions = 123456789;
  status.deliveries = 42;
  status.purged = 7;
  status.lost = 1;
  status.published = 30;
  status.driver_done = true;
  frames.push_back(Frame{status});
  frames.push_back(Frame{DumpFrame{}});
  frames.push_back(Frame{DeliveryFrame{11, 22, 333.375, true, 2.0}});
  SummaryFrame summary;
  summary.shard = 1;
  summary.delivery_count = 100;
  summary.earning = 250.125;
  frames.push_back(Frame{summary});
  frames.push_back(Frame{ShutdownFrame{}});
  frames.push_back(Frame{ErrorFrame{"bind: address in use \"quoted\"\n"}});
  return frames;
}

TEST(Wire, EveryFrameTypeRoundTrips) {
  for (const Frame& frame : sample_frames()) {
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    ASSERT_GE(bytes.size(), kWireHeaderBytes);
    const Frame back = parse_frame(bytes.data(), bytes.size());
    EXPECT_EQ(back.type(), frame.type());
    EXPECT_EQ(back, frame) << "frame type "
                           << static_cast<int>(frame.type());
  }
}

TEST(Wire, FrameTypeNumbersNeverMove) {
  // The header's type byte is the protocol: retiring 4-6 moved no frame.
  const std::uint8_t numbers[] = {1, 2, 3, 7, 8, 9, 10, 11, 12, 13, 14,
                                  15, 16, 17};
  const std::vector<Frame> frames = sample_frames();
  ASSERT_EQ(frames.size(), std::size(numbers));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(encode_frame(frames[i])[5], numbers[i]) << "frame " << i;
    EXPECT_EQ(static_cast<std::uint8_t>(frames[i].type()), numbers[i]);
  }
}

TEST(Wire, DoublesAreBitExactIncludingEdgeCases) {
  // The differential gates compare delivery sets computed from these
  // numbers; any decimal detour would already be drift.  kNoDeadline
  // (infinity), negative zero, denormals and an exactly-representable
  // decimal all must survive as the same bit pattern.
  const double cases[] = {kNoDeadline,
                          -std::numeric_limits<double>::infinity(),
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          0.30000000000000004,
                          1.0 / 3.0};
  for (const double value : cases) {
    const Frame frame{DeliveryFrame{1, 2, value, false, value}};
    const auto bytes = encode_frame(frame);
    const Frame back = parse_frame(bytes.data(), bytes.size());
    const auto& d = back.as<DeliveryFrame>();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.delay),
              std::bit_cast<std::uint64_t>(value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.price),
              std::bit_cast<std::uint64_t>(value));
  }
}

TEST(Wire, MessagePayloadRoundTripsExactly) {
  const Message original = sample_message();
  const Frame frame{ForwardFrame{5, 2, original}};
  const auto bytes = encode_frame(frame);
  const Frame parsed = parse_frame(bytes.data(), bytes.size());
  const Message& m = parsed.as<ForwardFrame>().message;
  EXPECT_EQ(m.id(), original.id());
  EXPECT_EQ(m.publisher(), original.publisher());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.publish_time()),
            std::bit_cast<std::uint64_t>(original.publish_time()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.size_kb()),
            std::bit_cast<std::uint64_t>(original.size_kb()));
}

TEST(Wire, EveryTruncationIsRejectedNotOverread) {
  for (const Frame& frame : sample_frames()) {
    const auto bytes = encode_frame(frame);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_THROW(parse_frame(bytes.data(), cut), WireError)
          << "cut at " << cut << " of " << bytes.size();
    }
  }
}

TEST(Wire, TrailingBytesAreRejected) {
  auto bytes = encode_frame(Frame{AckFrame{9}});
  bytes.push_back(0);
  EXPECT_THROW(parse_frame(bytes.data(), bytes.size()), WireError);
}

TEST(Wire, BadVersionAndTypeAreRejected) {
  auto bytes = encode_frame(Frame{StartFrame{}});
  auto bad_version = bytes;
  bad_version[4] = kWireVersion + 1;
  EXPECT_THROW(parse_frame(bad_version.data(), bad_version.size()),
               WireError);
  auto bad_type = bytes;
  bad_type[5] = 0;  // Below the FrameType range.
  EXPECT_THROW(parse_frame(bad_type.data(), bad_type.size()), WireError);
  bad_type[5] = 200;  // Above it.
  EXPECT_THROW(parse_frame(bad_type.data(), bad_type.size()), WireError);
  // The retired numbers 4-6 (subscribe, link state, broker state), each
  // with an all-zero payload of the size its old decoder accepted.
  for (const auto& [type, payload_bytes] :
       {std::pair<std::uint8_t, std::uint8_t>{4, 26}, {5, 5}, {6, 5}}) {
    std::vector<std::uint8_t> retired = {payload_bytes, 0, 0, 0,
                                         kWireVersion, type, 0, 0};
    retired.resize(kWireHeaderBytes + payload_bytes, 0);
    EXPECT_THROW(parse_frame(retired.data(), retired.size()), WireError)
        << "type " << static_cast<int>(type);
  }
  auto bad_reserved = bytes;
  bad_reserved[6] = 1;
  EXPECT_THROW(parse_frame(bad_reserved.data(), bad_reserved.size()),
               WireError);
}

TEST(Wire, OversizedLengthCannotAskForGigabytes) {
  auto bytes = encode_frame(Frame{ErrorFrame{"x"}});
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(bytes.data(), &huge, sizeof(huge));
  EXPECT_THROW(parse_frame(bytes.data(), bytes.size()), WireError);

  // Same via the assembler: the poisoning must happen at header time,
  // before any giant allocation.
  FrameAssembler assembler;
  assembler.feed(bytes.data(), bytes.size());
  EXPECT_THROW(assembler.next(), WireError);
  EXPECT_THROW(assembler.next(), WireError);  // Poisoned: rethrows.
}

TEST(Wire, RandomCorruptionNeverCrashesTheParser) {
  // Deterministic fuzz: flip bytes in valid encodings and assert the
  // parser either round-trips a (possibly different) valid frame or
  // throws WireError — never crashes, never overreads (ASan run covers
  // this suite).
  std::mt19937_64 rng(20260808);
  const std::vector<Frame> frames = sample_frames();
  for (int round = 0; round < 2000; ++round) {
    auto bytes = encode_frame(frames[round % frames.size()]);
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    try {
      const Frame parsed = parse_frame(bytes.data(), bytes.size());
      const auto re = encode_frame(parsed);  // Whatever parsed, re-encodes.
      EXPECT_FALSE(re.empty());
    } catch (const WireError&) {
      // Expected for most corruptions.
    }
  }
}

TEST(WireAssembler, ReassemblesAcrossEverySplitBoundary) {
  // Concatenate all sample frames, then feed the stream split at every
  // single byte position k (two feeds: [0,k) and [k,end)) and assert the
  // full frame sequence comes back.
  const std::vector<Frame> frames = sample_frames();
  std::vector<std::uint8_t> stream;
  for (const Frame& f : frames) encode_frame(f, stream);

  for (std::size_t split = 0; split <= stream.size(); split += 7) {
    FrameAssembler assembler;
    assembler.feed(stream.data(), split);
    std::vector<Frame> got;
    while (auto f = assembler.next()) got.push_back(std::move(*f));
    assembler.feed(stream.data() + split, stream.size() - split);
    while (auto f = assembler.next()) got.push_back(std::move(*f));
    ASSERT_EQ(got.size(), frames.size()) << "split at " << split;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i], frames[i]) << "split " << split << " frame " << i;
    }
    EXPECT_EQ(assembler.buffered(), 0u);
  }
}

TEST(WireAssembler, ReassemblesFromRandomChunkSizes) {
  // Socket reads return arbitrary chunk lengths; 1-byte dribble and random
  // chunking must both produce the identical frame sequence.
  const std::vector<Frame> frames = sample_frames();
  std::vector<std::uint8_t> stream;
  for (const Frame& f : frames) encode_frame(f, stream);

  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    FrameAssembler assembler;
    std::vector<Frame> got;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t chunk = round == 0
                                    ? 1  // Pure byte dribble.
                                    : 1 + rng() % 97;
      const std::size_t take = std::min(chunk, stream.size() - offset);
      assembler.feed(stream.data() + offset, take);
      offset += take;
      while (auto f = assembler.next()) got.push_back(std::move(*f));
    }
    ASSERT_EQ(got.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i], frames[i]);
    }
  }
}

TEST(WireAssembler, EmptyStringsAndListsSurvive) {
  const Frame empty_error{ErrorFrame{""}};
  const Frame empty_config{ConfigFrame{""}};
  const Frame no_ports{PortsFrame{{}}};
  for (const Frame& f : {empty_error, empty_config, no_ports}) {
    const auto bytes = encode_frame(f);
    EXPECT_EQ(parse_frame(bytes.data(), bytes.size()), f);
  }
}

}  // namespace
}  // namespace bdps
