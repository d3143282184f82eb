// Published messages.
//
// A message carries a head of named attributes (the content that filters
// match on), a payload size in kilobytes (the delay model charges
// size * TR per link, §3.2), and optionally a publisher-specified delivery
// deadline (the PSD scenario, §4.1).
//
// It also carries a match stamp: the set of subscriptions its head
// matches, computed once when the message enters an overlay
// (RoutingFabric::stamp) and read at every broker it then visits, so each
// message is matched once per overlay instead of once per hop.  Whether a
// table row matches depends only on its subscription's filter, so a broker
// selects its rows from the stamp without matching again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "message/value.h"

namespace bdps {

/// One named attribute in a message head.
struct Attribute {
  std::string name;
  Value value;
};

/// True when every attribute name occurs at most once in `head`.  Heads
/// with repeated names are legal messages, but they sit outside the
/// counting index's equivalence contract (message/index.h: Message::find
/// consults only the first occurrence while the counting pass sees every
/// occurrence) — construction paths that feed the matching engine assert
/// this in debug builds, and tests/message/index_boundary_test.cpp pins
/// the documented divergence.
bool head_has_unique_attribute_names(const std::vector<Attribute>& head);

/// A message's match against one subscription set: bit i of word i/64 is
/// set iff subscription i's filter (or any of its or_filters) matches the
/// head.  `owner` names the set that made it (a RoutingFabric's id); 0
/// means unstamped.  A stamp is a pure function of the head and the set,
/// so it stays valid however the set's routing tables change.
struct MatchStamp {
  std::uint64_t owner = 0;
  std::vector<std::uint64_t> bits;
};

class Message {
 public:
  Message() = default;
  Message(MessageId id, PublisherId publisher, TimeMs publish_time,
          double size_kb, std::vector<Attribute> head,
          TimeMs allowed_delay = kNoDeadline)
      : id_(id),
        publisher_(publisher),
        publish_time_(publish_time),
        size_kb_(size_kb),
        allowed_delay_(allowed_delay),
        head_(std::move(head)) {}

  MessageId id() const { return id_; }
  PublisherId publisher() const { return publisher_; }
  TimeMs publish_time() const { return publish_time_; }
  double size_kb() const { return size_kb_; }
  const std::vector<Attribute>& head() const { return head_; }

  /// Publisher-specified allowed delay (PSD); kNoDeadline when unset.
  TimeMs allowed_delay() const { return allowed_delay_; }
  bool has_allowed_delay() const { return allowed_delay_ != kNoDeadline; }

  /// Looks up an attribute by name; nullptr when absent.
  const Value* find(const std::string& name) const {
    for (const auto& attr : head_) {
      if (attr.name == name) return &attr.value;
    }
    return nullptr;
  }

  /// hdl(m) from §5.1: the delay already incurred by the message.
  TimeMs elapsed(TimeMs now) const { return now - publish_time_; }

  const MatchStamp& stamp() const { return stamp_; }

  /// The stamp, for the one writer that makes it: the overlay entry point
  /// (publish, trunk receipt), before the message is shared with any other
  /// thread.  Mutable through const because engines pass messages as
  /// shared_ptr<const Message>; the stamp is a cache of a pure function of
  /// the head, so writing it never changes what the message means.  One
  /// message object must not be stamped by two overlays concurrently.
  MatchStamp& stamp_slot() const { return stamp_; }

 private:
  MessageId id_ = 0;
  PublisherId publisher_ = 0;
  TimeMs publish_time_ = 0.0;
  double size_kb_ = 0.0;
  TimeMs allowed_delay_ = kNoDeadline;
  std::vector<Attribute> head_;
  mutable MatchStamp stamp_;
};

}  // namespace bdps
