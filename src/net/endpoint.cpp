#include "net/endpoint.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace bdps {

namespace {

// Poller keys: kind in the high 32 bits, peer / pending id in the low 32.
// Kind 0 is kOwnerKey's.
constexpr std::uint64_t kKeyListener = 1;
constexpr std::uint64_t kKeyDial = 2;
constexpr std::uint64_t kKeyIn = 3;
constexpr std::uint64_t kKeyPending = 4;

constexpr std::uint64_t make_key(std::uint64_t kind, std::uint64_t index) {
  return (kind << 32) | index;
}

// Listener indices under kKeyListener.
constexpr std::uint32_t kTcpListener = 0;
constexpr std::uint32_t kLocalListener = 1;

}  // namespace

NetEndpoint::NetEndpoint(const NetEndpointOptions& options,
                         ForwardHandler on_forward, AckHandler on_acked,
                         PeerStateHandler on_peer_state)
    : options_(options),
      on_forward_(std::move(on_forward)),
      on_acked_(std::move(on_acked)),
      on_peer_state_(std::move(on_peer_state)),
      listener_(0, options.bind_host) {
  static_assert(make_key(kKeyListener, 0) != kOwnerKey);
  peers_.resize(static_cast<std::size_t>(options_.shard_count));
  poller_.add(listener_.fd(), make_key(kKeyListener, kTcpListener), true,
              false);
  if (accepts_loopback(options_.bind_host)) {
    local_listener_.emplace(listener_.port());
    poller_.add(local_listener_->fd(), make_key(kKeyListener, kLocalListener),
                true, false);
  }
}

NetEndpoint::~NetEndpoint() { stop(); }

void NetEndpoint::connect(const std::vector<std::uint16_t>& ports) {
  const auto now = std::chrono::steady_clock::now();
  for (int peer = 0; peer < options_.shard_count; ++peer) {
    if (peer == options_.shard) continue;
    Peer& p = peers_[static_cast<std::size_t>(peer)];
    p.dial_port = peer < static_cast<int>(ports.size())
                      ? ports[static_cast<std::size_t>(peer)]
                      : 0;
    p.dial_host = peer < static_cast<int>(options_.peer_hosts.size())
                      ? options_.peer_hosts[static_cast<std::size_t>(peer)]
                      : std::string{};
    p.reconnect_pending = true;
    p.reconnect_at = now;
  }
}

bool NetEndpoint::wait_connected(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const int want = options_.shard_count - 1;
  while (connected_count_.load(std::memory_order_acquire) < want) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void NetEndpoint::handle(const Poller::Event& event) {
  if (stopped_) return;
  const std::uint64_t kind = event.key >> 32;
  const std::uint32_t index = static_cast<std::uint32_t>(event.key);
  switch (kind) {
    case kKeyListener:
      accept_ready(index);
      break;
    case kKeyDial:
      handle_dial_event(static_cast<int>(index), event);
      break;
    case kKeyIn:
      handle_in_event(static_cast<int>(index));
      break;
    case kKeyPending:
      handle_pending_event(index);
      break;
    default:
      break;
  }
}

void NetEndpoint::service() {
  if (stopped_) return;
  std::optional<std::chrono::steady_clock::time_point> now;
  for (int peer = 0; peer < options_.shard_count; ++peer) {
    Peer& p = peers_[static_cast<std::size_t>(peer)];
    if (!p.reconnect_pending) continue;
    if (!now) now = std::chrono::steady_clock::now();
    if (*now >= p.reconnect_at) {
      p.reconnect_pending = false;
      start_dial(peer);
    }
  }
  // One send per trunk per pass: this pass's forwards and acks together.
  for (int peer = 0; peer < options_.shard_count; ++peer) {
    const Peer& p = peers_[static_cast<std::size_t>(peer)];
    if (p.dial.open() &&
        (p.dial.buffered_bytes() > 0 || p.dial_write_interest)) {
      flush_peer(peer);
    }
  }
}

std::optional<std::chrono::steady_clock::time_point>
NetEndpoint::next_deadline() const {
  std::optional<std::chrono::steady_clock::time_point> earliest;
  if (stopped_) return earliest;
  for (const Peer& p : peers_) {
    if (p.reconnect_pending && (!earliest || p.reconnect_at < *earliest)) {
      earliest = p.reconnect_at;
    }
  }
  return earliest;
}

bool NetEndpoint::forward_remote(int peer, BrokerId target,
                                 std::shared_ptr<const Message> message) {
  if (stopped_) return false;
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  const std::uint64_t seq = p.next_seq++;
  // A trunk that is down or still connecting gets the frame from the
  // reconnect replay instead.
  if (p.dial.open()) encode_forward(seq, target, *message, p.dial.outbound());
  p.unacked.push_back(Unacked{seq, target, std::move(message)});
  forwards_sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void NetEndpoint::drop_peer(int peer) {
  if (stopped_ || peer < 0 || peer >= options_.shard_count ||
      peer == options_.shard) {
    return;
  }
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.dial.open()) {
    handle_dial_down(peer);
  } else if (p.dial.connecting()) {
    p.dial.close_now();
    schedule_reconnect(peer);
  }
  // Already down: a reconnect is pending, nothing to drop.
}

std::uint64_t NetEndpoint::stop() {
  if (stopped_) return 0;
  stopped_ = true;
  poller_.remove(listener_.fd());
  if (local_listener_) poller_.remove(local_listener_->fd());
  std::uint64_t lost = 0;
  for (Peer& p : peers_) {
    if (!p.dial.closed()) poller_.remove(p.dial.fd());
    if (!p.in.closed()) poller_.remove(p.in.fd());
    lost += p.unacked.size();
    p.unacked.clear();
  }
  for (const auto& entry : pending_) poller_.remove(entry.second.link->fd());
  return lost;
}

void NetEndpoint::start_dial(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  try {
    p.dial.dial(p.dial_port, p.dial_host);
  } catch (const std::exception&) {
    schedule_reconnect(peer);  // fd exhaustion / bad host literal: back off
    return;
  }
  if (p.dial.closed()) {  // synchronous refusal
    schedule_reconnect(peer);
    return;
  }
  p.dial_write_interest = p.dial.wants_write();
  poller_.add(p.dial.fd(), make_key(kKeyDial, static_cast<std::uint64_t>(peer)),
              true, p.dial_write_interest);
  if (p.dial.open()) on_dial_established(peer);
}

void NetEndpoint::on_dial_established(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  p.backoff_ms = 0.0;
  count_local(p.dial_local, socket_family(p.dial.fd()) == AF_UNIX);
  HelloFrame hello;
  hello.shard = static_cast<std::uint32_t>(options_.shard);
  hello.shard_count = static_cast<std::uint32_t>(options_.shard_count);
  hello.role = PeerRole::kPeer;
  std::vector<std::uint8_t>& out = p.dial.outbound();
  encode_frame(Frame{hello}, out);
  // The first ack lets the peer trim its unacked window even if our
  // earlier acks died with the previous connection.
  encode_frame(Frame{AckFrame{p.last_seq_from}}, out);
  for (const Unacked& copy : p.unacked) {
    encode_forward(copy.seq, copy.target, *copy.message, out);
  }
  connected_count_.fetch_add(1, std::memory_order_release);
  if (on_peer_state_) on_peer_state_(peer, true);
  // service() flushes the hello, ack and replay with the pass.
}

void NetEndpoint::handle_dial_down(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  // Buffered frames die with the socket; every forward among them is
  // still in `unacked` and rides the reconnect replay.
  p.dial.close_now();
  p.dial_assembler = FrameAssembler{};
  count_local(p.dial_local, false);
  connected_count_.fetch_sub(1, std::memory_order_release);
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  if (on_peer_state_) on_peer_state_(peer, false);
  schedule_reconnect(peer);
}

void NetEndpoint::schedule_reconnect(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  p.dial_write_interest = false;  // The dial socket is closed (or never was).
  p.backoff_ms = p.backoff_ms <= 0.0
                     ? options_.reconnect_initial_ms
                     : std::min(p.backoff_ms * 2.0, options_.reconnect_max_ms);
  p.reconnect_pending = true;
  p.reconnect_at =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<long long>(p.backoff_ms * 1000.0));
}

void NetEndpoint::handle_dial_event(int peer, const Poller::Event& event) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.dial.closed()) return;  // stale event from this batch
  if (p.dial.connecting()) {
    if (event.writable || event.hangup) {
      if (p.dial.finish_connect()) {
        on_dial_established(peer);
      } else {
        schedule_reconnect(peer);  // refused: was never up, no state change
      }
    }
    return;
  }
  if (event.readable || event.hangup) {
    // The peer's accepted side is read-only; inbound traffic here can only
    // be EOF/RST (or protocol garbage, treated the same).
    if (!p.dial.read_into(p.dial_assembler)) {
      handle_dial_down(peer);
      return;
    }
    try {
      while (p.dial_assembler.next()) {
      }
    } catch (const WireError&) {
      handle_dial_down(peer);
      return;
    }
  }
  if (event.writable) flush_peer(peer);
}

void NetEndpoint::handle_in_event(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.in.closed()) return;
  p.in.read_into(p.in_assembler);  // False closes the link: EOF or error.
  try {
    process_inbound(peer, p.in_assembler);
  } catch (const WireError&) {
    p.in.close_now();
  }
  if (p.in.closed()) {
    p.in_assembler = FrameAssembler{};
    count_local(p.in_local, false);
  }
}

void NetEndpoint::handle_pending_event(std::uint64_t id) {
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [id](const auto& entry) { return entry.first == id; });
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (!pending.link->read_into(pending.assembler)) {
    pending_.erase(it);
    return;
  }
  std::optional<Frame> frame;
  try {
    frame = pending.assembler.next();
  } catch (const WireError&) {
    pending_.erase(it);
    return;
  }
  if (!frame) return;  // need more bytes for the hello
  const HelloFrame* hello = std::get_if<HelloFrame>(&frame->payload);
  if (hello == nullptr || hello->role != PeerRole::kPeer ||
      static_cast<int>(hello->shard) >= options_.shard_count ||
      static_cast<int>(hello->shard) == options_.shard) {
    pending_.erase(it);
    return;
  }
  const int peer = static_cast<int>(hello->shard);
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  p.in.close_now();  // a reconnect replaces any previous inbound trunk
  p.in = std::move(*pending.link);
  p.in_assembler = std::move(pending.assembler);
  pending_.erase(it);
  poller_.modify(p.in.fd(), make_key(kKeyIn, static_cast<std::uint64_t>(peer)),
                 true, false);
  count_local(p.in_local, socket_family(p.in.fd()) == AF_UNIX);
  try {
    process_inbound(peer, p.in_assembler);  // frames buffered behind the hello
  } catch (const WireError&) {
    p.in.close_now();
    p.in_assembler = FrameAssembler{};
    count_local(p.in_local, false);
  }
}

void NetEndpoint::process_inbound(int peer, FrameAssembler& assembler) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  bool ack_due = false;
  while (std::optional<Frame> frame = assembler.next()) {
    if (ForwardFrame* f = std::get_if<ForwardFrame>(&frame->payload)) {
      if (f->seq > p.last_seq_from) {
        p.last_seq_from = f->seq;
        forwards_received_.fetch_add(1, std::memory_order_relaxed);
        // The handler increments the owner's outstanding count before we
        // return and ack — the sender's decrement can never race a copy
        // that is not yet accounted for.
        if (on_forward_) on_forward_(f->target, std::move(f->message));
      }
      ack_due = true;  // even a replayed duplicate refreshes the ack
    } else if (const AckFrame* a = std::get_if<AckFrame>(&frame->payload)) {
      const std::uint64_t upto = std::min(a->seq, p.next_seq - 1);
      if (upto > p.acked_through) {
        const std::uint64_t delta = upto - p.acked_through;
        p.acked_through = upto;
        while (!p.unacked.empty() && p.unacked.front().seq <= upto) {
          p.unacked.pop_front();
        }
        if (on_acked_) on_acked_(delta);
      }
    }
    // Other frame types (redundant hellos, future control traffic) are
    // ignored on a data trunk.
  }
  // The ack rides this pass's flush; a trunk that is not up sends it with
  // its next hello instead.
  if (ack_due && p.dial.open()) {
    encode_frame(Frame{AckFrame{p.last_seq_from}}, p.dial.outbound());
  }
}

void NetEndpoint::accept_ready(std::uint32_t index) {
  for (;;) {
    const int fd = index == kLocalListener
                       ? local_listener_->accept_connection()
                       : listener_.accept_connection();
    if (fd < 0) break;
    Pending pending;
    pending.link = std::make_unique<SocketLink>();
    pending.link->adopt(fd);
    const std::uint64_t id = next_pending_id_++;
    poller_.add(fd, make_key(kKeyPending, id), true, false);
    pending_.emplace_back(id, std::move(pending));
  }
}

void NetEndpoint::flush_peer(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (!p.dial.open()) return;
  if (!p.dial.flush()) {
    handle_dial_down(peer);
    return;
  }
  // epoll_ctl only when EPOLLOUT interest actually changes.
  const bool want = p.dial.wants_write();
  if (want != p.dial_write_interest) {
    p.dial_write_interest = want;
    poller_.modify(p.dial.fd(),
                   make_key(kKeyDial, static_cast<std::uint64_t>(peer)), true,
                   want);
  }
}

void NetEndpoint::count_local(bool& counted, bool local) {
  if (counted == local) return;
  counted = local;
  local_trunks_.fetch_add(local ? 1 : -1, std::memory_order_relaxed);
}

}  // namespace bdps
