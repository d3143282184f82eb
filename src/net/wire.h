// Wire format for the distributed broker overlay.
//
// Every frame is an 8-byte little-endian header followed by a bounded
// payload:
//
//   offset  size  field
//   0       4     payload length (bytes after the header)
//   4       1     protocol version (kWireVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be zero
//
// Payload encoding is fixed-width little-endian integers plus
// length-prefixed strings.  Doubles travel as their raw IEEE-754 bit
// pattern (std::bit_cast), so scores, deadlines and publish instants are
// *bit-exact* across processes — the cross-process differential gates
// compare delivery sets produced from these numbers, and a shortest
// round-trip-decimal detour would already be unacceptable drift.
// kNoDeadline (infinity) survives unchanged for the same reason.
//
// The vocabulary covers the two planes of tools/brokerd:
//   * data      — kForward (a publication copy crossing a cut edge, with a
//                 per-trunk sequence number), kAck (cumulative receipt);
//   * control   — kHello, kConfig, kPorts/kPortReply, kStart,
//                 kStatus/kStatusReply, kDump/kDelivery/kSummary,
//                 kShutdown, kError.
// Type numbers are the protocol and never move: 4-6 belonged to frames no
// process sent (subscribe, link state, broker state) and stay unassigned,
// so a peer that sends one gets a WireError.
//
// parse_frame(encode_frame(f)) == f for every well-formed frame (the fuzz
// suite in tests/net/wire_test.cpp feeds truncations, oversizes, bad
// versions and arbitrary split points); malformed input throws WireError,
// never reads out of bounds, and never allocates more than kMaxFrameBytes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common/types.h"
#include "message/message.h"

namespace bdps {

inline constexpr std::uint8_t kWireVersion = 1;
/// Header size in bytes.
inline constexpr std::size_t kWireHeaderBytes = 8;
/// Upper bound on a frame payload: large enough for any config/fault-plan
/// text or message head this system generates, small enough that a
/// corrupted length field cannot ask for gigabytes.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
/// Caps on repeated substructures (validated before allocation).
inline constexpr std::size_t kMaxAttributes = 4096;
inline constexpr std::size_t kMaxPorts = 4096;

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class FrameType : std::uint8_t {
  kHello = 1,
  kForward = 2,
  kAck = 3,
  kConfig = 7,
  kPorts = 8,
  kPortReply = 9,
  kStart = 10,
  kStatus = 11,
  kStatusReply = 12,
  kDump = 13,
  kDelivery = 14,
  kSummary = 15,
  kShutdown = 16,
  kError = 17,
};

/// Who is on the other end of an accepted connection.
enum class PeerRole : std::uint8_t { kPeer = 0, kController = 1 };

struct HelloFrame {
  static constexpr FrameType kType = FrameType::kHello;
  std::uint32_t shard = 0;
  std::uint32_t shard_count = 1;
  PeerRole role = PeerRole::kPeer;
  bool operator==(const HelloFrame&) const = default;
};

/// One publication copy crossing a trunk.  `seq` is the per-trunk
/// monotonic sequence number (starting at 1) the ack/resend protocol runs
/// on; `target` is the downstream broker the copy is deposited at.
struct ForwardFrame {
  static constexpr FrameType kType = FrameType::kForward;
  std::uint64_t seq = 0;
  BrokerId target = kNoBroker;
  Message message;
  bool operator==(const ForwardFrame& other) const;
};

/// Cumulative receipt: every kForward with seq <= `seq` has been deposited.
struct AckFrame {
  static constexpr FrameType kType = FrameType::kAck;
  std::uint64_t seq = 0;
  bool operator==(const AckFrame&) const = default;
};

/// The serialized run description (experiment/live.h format_live_config).
struct ConfigFrame {
  static constexpr FrameType kType = FrameType::kConfig;
  std::string text;
  bool operator==(const ConfigFrame&) const = default;
};

/// Trunk listen ports of every shard, indexed by shard id.
struct PortsFrame {
  static constexpr FrameType kType = FrameType::kPorts;
  std::vector<std::uint16_t> ports;
  bool operator==(const PortsFrame&) const = default;
};

struct PortReplyFrame {
  static constexpr FrameType kType = FrameType::kPortReply;
  std::uint32_t shard = 0;
  std::uint16_t port = 0;
  bool operator==(const PortReplyFrame&) const = default;
};

struct StartFrame {
  static constexpr FrameType kType = FrameType::kStart;
  bool operator==(const StartFrame&) const = default;
};

struct StatusFrame {
  static constexpr FrameType kType = FrameType::kStatus;
  bool operator==(const StatusFrame&) const = default;
};

/// One shard's liveness sample: the controller declares the cluster
/// quiescent when every shard reports driver_done and outstanding == 0
/// across two stable polls.
struct StatusReplyFrame {
  static constexpr FrameType kType = FrameType::kStatusReply;
  std::uint32_t shard = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t forwards_sent = 0;
  std::uint64_t forwards_received = 0;
  std::uint64_t receptions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t purged = 0;
  std::uint64_t lost = 0;
  std::uint64_t published = 0;
  bool driver_done = false;
  bool operator==(const StatusReplyFrame&) const = default;
};

struct DumpFrame {
  static constexpr FrameType kType = FrameType::kDump;
  bool operator==(const DumpFrame&) const = default;
};

/// One delivery record streamed in response to kDump.
struct DeliveryFrame {
  static constexpr FrameType kType = FrameType::kDelivery;
  SubscriberId subscriber = 0;
  MessageId message = 0;
  TimeMs delay = 0.0;
  bool valid = false;
  double price = 0.0;
  bool operator==(const DeliveryFrame& other) const;
};

/// Terminates a kDump stream; `delivery_count` must equal the number of
/// kDelivery frames that preceded it.
struct SummaryFrame {
  static constexpr FrameType kType = FrameType::kSummary;
  std::uint32_t shard = 0;
  std::uint64_t delivery_count = 0;
  std::uint64_t receptions = 0;
  std::uint64_t purged = 0;
  std::uint64_t lost = 0;
  std::uint64_t published = 0;
  double earning = 0.0;
  bool operator==(const SummaryFrame&) const = default;
};

struct ShutdownFrame {
  static constexpr FrameType kType = FrameType::kShutdown;
  bool operator==(const ShutdownFrame&) const = default;
};

struct ErrorFrame {
  static constexpr FrameType kType = FrameType::kError;
  std::string what;
  bool operator==(const ErrorFrame&) const = default;
};

/// Each alternative names its wire number as `kType`.
using FramePayload =
    std::variant<HelloFrame, ForwardFrame, AckFrame, ConfigFrame, PortsFrame,
                 PortReplyFrame, StartFrame, StatusFrame, StatusReplyFrame,
                 DumpFrame, DeliveryFrame, SummaryFrame, ShutdownFrame,
                 ErrorFrame>;

struct Frame {
  FramePayload payload;
  FrameType type() const;
  bool operator==(const Frame&) const = default;

  template <typename T>
  const T& as() const {
    const T* p = std::get_if<T>(&payload);
    if (p == nullptr) throw WireError("wire: unexpected frame type");
    return *p;
  }
  template <typename T>
  bool is() const {
    return std::holds_alternative<T>(payload);
  }
};

/// Appends the framed encoding (header + payload) to `out`.
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);

/// Appends one kForward frame straight from a shared message — the
/// trunk's hot path, which never copies the message into a ForwardFrame.
/// Bytes are identical to encode_frame(Frame{ForwardFrame{seq, target,
/// message}}).
void encode_forward(std::uint64_t seq, BrokerId target, const Message& message,
                    std::vector<std::uint8_t>& out);

/// Convenience: encode into a fresh buffer.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Parses exactly one frame from `data` (header included).  Throws
/// WireError on truncation, trailing bytes, bad version/type, or any
/// malformed payload.
Frame parse_frame(const std::uint8_t* data, std::size_t size);

/// Incremental frame reassembly over an arbitrary byte stream: feed
/// whatever a socket read returned, then drain complete frames with
/// next().  Malformed input (bad version, oversized length, payload that
/// fails to parse) throws WireError from next(); the assembler is then
/// poisoned and every later call rethrows — a transport must drop the
/// connection, there is no way to resynchronise a corrupt length-prefixed
/// stream.
class FrameAssembler {
 public:
  void feed(const std::uint8_t* data, std::size_t size);

  /// Returns the next complete frame, or nullopt when more bytes are
  /// needed.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  bool poisoned_ = false;
};

}  // namespace bdps
