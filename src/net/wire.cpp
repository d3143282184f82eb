#include "net/wire.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace bdps {

namespace {

// ---- Primitive encoding ----------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

// Raw IEEE-754 bits: bit-exact across processes, infinity (kNoDeadline)
// and negative zero included.
void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_bool(std::vector<std::uint8_t>& out, bool v) {
  put_u8(out, v ? 1 : 0);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  if (s.size() > kMaxFrameBytes) throw WireError("wire: string too long");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked sequential reader over one frame payload.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw WireError("wire: bool out of range");
    return v == 1;
  }
  std::string string() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }
  void expect_done() const {
    if (pos_ != size_) throw WireError("wire: trailing payload bytes");
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw WireError("wire: truncated payload");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- Value / message -------------------------------------------------------

enum class ValueTag : std::uint8_t { kDouble = 0, kInt = 1, kString = 2 };

void put_value(std::vector<std::uint8_t>& out, const Value& v) {
  if (v.is_string()) {
    put_u8(out, static_cast<std::uint8_t>(ValueTag::kString));
    put_string(out, v.as_string());
  } else if (v.is_int()) {
    put_u8(out, static_cast<std::uint8_t>(ValueTag::kInt));
    put_i64(out, v.as_int());
  } else {
    put_u8(out, static_cast<std::uint8_t>(ValueTag::kDouble));
    put_f64(out, v.as_double());
  }
}

Value read_value(Reader& r) {
  switch (static_cast<ValueTag>(r.u8())) {
    case ValueTag::kDouble:
      return Value(r.f64());
    case ValueTag::kInt:
      return Value(r.i64());
    case ValueTag::kString:
      return Value(r.string());
  }
  throw WireError("wire: bad value tag");
}

void put_message(std::vector<std::uint8_t>& out, const Message& m) {
  if (m.head().size() > kMaxAttributes) {
    throw WireError("wire: message head too large");
  }
  put_i64(out, m.id());
  put_i32(out, m.publisher());
  put_f64(out, m.publish_time());
  put_f64(out, m.size_kb());
  put_f64(out, m.allowed_delay());
  put_u16(out, static_cast<std::uint16_t>(m.head().size()));
  for (const Attribute& attr : m.head()) {
    put_string(out, attr.name);
    put_value(out, attr.value);
  }
}

Message read_message(Reader& r) {
  const MessageId id = r.i64();
  const PublisherId publisher = r.i32();
  const TimeMs publish_time = r.f64();
  const double size_kb = r.f64();
  const TimeMs allowed_delay = r.f64();
  const std::uint16_t attrs = r.u16();
  if (attrs > kMaxAttributes) throw WireError("wire: message head too large");
  std::vector<Attribute> head;
  head.reserve(attrs);
  for (std::uint16_t i = 0; i < attrs; ++i) {
    Attribute attr;
    attr.name = r.string();
    attr.value = read_value(r);
    head.push_back(std::move(attr));
  }
  // Decoded heads feed the matching engines, whose equivalence contract
  // requires unique attribute names (message/message.h).
  assert(head_has_unique_attribute_names(head));
  return Message(id, publisher, publish_time, size_kb, std::move(head),
                 allowed_delay);
}

// ---- Bit-exact comparisons (operator== backing) ----------------------------

bool f64_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool value_equal(const Value& a, const Value& b) {
  if (a.is_string() != b.is_string() || a.is_int() != b.is_int()) {
    return false;
  }
  if (a.is_string()) return a.as_string() == b.as_string();
  if (a.is_int()) return a.as_int() == b.as_int();
  return f64_equal(a.as_double(), b.as_double());
}

bool message_equal(const Message& a, const Message& b) {
  if (a.id() != b.id() || a.publisher() != b.publisher() ||
      !f64_equal(a.publish_time(), b.publish_time()) ||
      !f64_equal(a.size_kb(), b.size_kb()) ||
      !f64_equal(a.allowed_delay(), b.allowed_delay()) ||
      a.head().size() != b.head().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.head().size(); ++i) {
    if (a.head()[i].name != b.head()[i].name ||
        !value_equal(a.head()[i].value, b.head()[i].value)) {
      return false;
    }
  }
  return true;
}

// ---- Per-frame payload codecs ----------------------------------------------

void encode_payload(const Frame& frame, std::vector<std::uint8_t>& out) {
  std::visit(
      [&out](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, HelloFrame>) {
          put_u32(out, f.shard);
          put_u32(out, f.shard_count);
          put_u8(out, static_cast<std::uint8_t>(f.role));
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          put_u64(out, f.seq);
        } else if constexpr (std::is_same_v<T, ConfigFrame>) {
          put_string(out, f.text);
        } else if constexpr (std::is_same_v<T, PortsFrame>) {
          if (f.ports.size() > kMaxPorts) {
            throw WireError("wire: too many ports");
          }
          put_u32(out, static_cast<std::uint32_t>(f.ports.size()));
          for (const std::uint16_t port : f.ports) put_u16(out, port);
        } else if constexpr (std::is_same_v<T, PortReplyFrame>) {
          put_u32(out, f.shard);
          put_u16(out, f.port);
        } else if constexpr (std::is_same_v<T, StatusReplyFrame>) {
          put_u32(out, f.shard);
          put_u64(out, f.outstanding);
          put_u64(out, f.forwards_sent);
          put_u64(out, f.forwards_received);
          put_u64(out, f.receptions);
          put_u64(out, f.deliveries);
          put_u64(out, f.purged);
          put_u64(out, f.lost);
          put_u64(out, f.published);
          put_bool(out, f.driver_done);
        } else if constexpr (std::is_same_v<T, DeliveryFrame>) {
          put_i32(out, f.subscriber);
          put_i64(out, f.message);
          put_f64(out, f.delay);
          put_bool(out, f.valid);
          put_f64(out, f.price);
        } else if constexpr (std::is_same_v<T, SummaryFrame>) {
          put_u32(out, f.shard);
          put_u64(out, f.delivery_count);
          put_u64(out, f.receptions);
          put_u64(out, f.purged);
          put_u64(out, f.lost);
          put_u64(out, f.published);
          put_f64(out, f.earning);
        } else if constexpr (std::is_same_v<T, ErrorFrame>) {
          put_string(out, f.what);
        } else {
          // kStart / kStatus / kDump / kShutdown: empty payloads (kForward
          // never gets here: encode_frame hands it to encode_forward).
          static_assert(std::is_same_v<T, ForwardFrame> ||
                        std::is_same_v<T, StartFrame> ||
                        std::is_same_v<T, StatusFrame> ||
                        std::is_same_v<T, DumpFrame> ||
                        std::is_same_v<T, ShutdownFrame>);
        }
      },
      frame.payload);
}

FramePayload parse_payload(FrameType type, Reader& r) {
  switch (type) {
    case FrameType::kHello: {
      HelloFrame f;
      f.shard = r.u32();
      f.shard_count = r.u32();
      const std::uint8_t role = r.u8();
      if (role > static_cast<std::uint8_t>(PeerRole::kController)) {
        throw WireError("wire: bad hello role");
      }
      f.role = static_cast<PeerRole>(role);
      return f;
    }
    case FrameType::kForward: {
      ForwardFrame f;
      f.seq = r.u64();
      f.target = r.i32();
      f.message = read_message(r);
      return f;
    }
    case FrameType::kAck:
      return AckFrame{r.u64()};
    case FrameType::kConfig:
      return ConfigFrame{r.string()};
    case FrameType::kPorts: {
      const std::uint32_t count = r.u32();
      if (count > kMaxPorts) throw WireError("wire: too many ports");
      PortsFrame f;
      f.ports.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) f.ports.push_back(r.u16());
      return f;
    }
    case FrameType::kPortReply: {
      PortReplyFrame f;
      f.shard = r.u32();
      f.port = r.u16();
      return f;
    }
    case FrameType::kStart:
      return StartFrame{};
    case FrameType::kStatus:
      return StatusFrame{};
    case FrameType::kStatusReply: {
      StatusReplyFrame f;
      f.shard = r.u32();
      f.outstanding = r.u64();
      f.forwards_sent = r.u64();
      f.forwards_received = r.u64();
      f.receptions = r.u64();
      f.deliveries = r.u64();
      f.purged = r.u64();
      f.lost = r.u64();
      f.published = r.u64();
      f.driver_done = r.boolean();
      return f;
    }
    case FrameType::kDump:
      return DumpFrame{};
    case FrameType::kDelivery: {
      DeliveryFrame f;
      f.subscriber = r.i32();
      f.message = r.i64();
      f.delay = r.f64();
      f.valid = r.boolean();
      f.price = r.f64();
      return f;
    }
    case FrameType::kSummary: {
      SummaryFrame f;
      f.shard = r.u32();
      f.delivery_count = r.u64();
      f.receptions = r.u64();
      f.purged = r.u64();
      f.lost = r.u64();
      f.published = r.u64();
      f.earning = r.f64();
      return f;
    }
    case FrameType::kShutdown:
      return ShutdownFrame{};
    case FrameType::kError:
      return ErrorFrame{r.string()};
  }
  // The retired numbers 4-6 land here too.
  throw WireError("wire: unknown frame type");
}

// ---- Framing ---------------------------------------------------------------

/// Reserves the header; returns its offset for finish_frame.
std::size_t begin_frame(std::vector<std::uint8_t>& out) {
  const std::size_t header_at = out.size();
  out.resize(out.size() + kWireHeaderBytes);
  return header_at;
}

/// Fills in the header reserved at `header_at` once the payload follows it.
void finish_frame(std::vector<std::uint8_t>& out, std::size_t header_at,
                  FrameType type) {
  const std::size_t payload_len = out.size() - header_at - kWireHeaderBytes;
  if (payload_len > kMaxFrameBytes) throw WireError("wire: frame too large");
  std::uint8_t* h = out.data() + header_at;
  const std::uint32_t len = static_cast<std::uint32_t>(payload_len);
  for (int i = 0; i < 4; ++i) h[i] = static_cast<std::uint8_t>(len >> (8 * i));
  h[4] = kWireVersion;
  h[5] = static_cast<std::uint8_t>(type);
  h[6] = 0;
  h[7] = 0;
}

}  // namespace

bool ForwardFrame::operator==(const ForwardFrame& other) const {
  return seq == other.seq && target == other.target &&
         message_equal(message, other.message);
}

bool DeliveryFrame::operator==(const DeliveryFrame& other) const {
  return subscriber == other.subscriber && message == other.message &&
         f64_equal(delay, other.delay) && valid == other.valid &&
         f64_equal(price, other.price);
}

FrameType Frame::type() const {
  return std::visit(
      [](const auto& f) { return std::decay_t<decltype(f)>::kType; },
      payload);
}

void encode_forward(std::uint64_t seq, BrokerId target, const Message& message,
                    std::vector<std::uint8_t>& out) {
  const std::size_t header_at = begin_frame(out);
  put_u64(out, seq);
  put_i32(out, target);
  put_message(out, message);
  finish_frame(out, header_at, FrameType::kForward);
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  if (const ForwardFrame* f = std::get_if<ForwardFrame>(&frame.payload)) {
    encode_forward(f->seq, f->target, f->message, out);
    return;
  }
  const std::size_t header_at = begin_frame(out);
  encode_payload(frame, out);
  finish_frame(out, header_at, frame.type());
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame(frame, out);
  return out;
}

Frame parse_frame(const std::uint8_t* data, std::size_t size) {
  if (size < kWireHeaderBytes) throw WireError("wire: truncated header");
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  }
  if (len > kMaxFrameBytes) throw WireError("wire: frame too large");
  if (data[4] != kWireVersion) throw WireError("wire: bad version");
  if (data[6] != 0 || data[7] != 0) throw WireError("wire: bad reserved");
  const std::uint8_t type = data[5];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kError)) {
    throw WireError("wire: unknown frame type");
  }
  if (size != kWireHeaderBytes + len) {
    throw WireError(size < kWireHeaderBytes + len ? "wire: truncated payload"
                                                  : "wire: trailing bytes");
  }
  Reader r(data + kWireHeaderBytes, len);
  Frame frame{parse_payload(static_cast<FrameType>(type), r)};
  r.expect_done();
  return frame;
}

void FrameAssembler::feed(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameAssembler::next() {
  if (poisoned_) throw WireError("wire: assembler poisoned");
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kWireHeaderBytes) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(head[i]) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    poisoned_ = true;
    throw WireError("wire: frame too large");
  }
  if (avail < kWireHeaderBytes + len) return std::nullopt;
  try {
    Frame frame = parse_frame(head, kWireHeaderBytes + len);
    consumed_ += kWireHeaderBytes + len;
    return frame;
  } catch (const WireError&) {
    poisoned_ = true;
    throw;
  }
}

}  // namespace bdps
