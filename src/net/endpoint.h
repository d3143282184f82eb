// NetEndpoint: the data-plane trunk transport of one overlay shard.
//
// Shards are fully meshed: every shard dials every other shard's trunk
// listener, and the two directions of a shard pair are *independent*
// connections — a dialed trunk carries only this shard's output (kHello,
// kForward copies, kAck receipts for traffic received *from* that peer),
// an accepted trunk is read-only.
//
// The endpoint is passive: it owns its sockets and a Poller but no thread.
// One owner thread drives it — in a live shard that is reactor worker 0,
// which parks on poller() next to its own wake doorbell (key kOwnerKey)
// and earliest timer, hands every other ready event to handle(), and
// calls service() once per pass.  Everything below the "owner thread"
// line runs on that thread only, so the endpoint takes no lock: a forward
// is encoded straight into the peer socket's outbound buffer, an inbound
// copy is handed to on_forward inside the read, and the pass's single
// flush per peer carries forwards and acks together.
//
// Reliability is a per-trunk cumulative-ack window.  Each kForward gets a
// monotonic sequence number (from 1); the copy (seq, target, shared
// message) stays in an `unacked` deque until the peer's cumulative kAck
// covers it, and a reconnect re-encodes the whole deque in order after
// kHello (the receiver dedups via its last-seen seq — the stream's FIFO
// plus in-order replay keep it contiguous).  Dropped trunks redial with
// capped exponential backoff (next_deadline() feeds the owner's park);
// every up/down transition of *our* dialed trunk is surfaced through
// on_peer_state so the owner can drive set_link_state for the cut edges
// served by that trunk (fault-storm replay forces real disconnects through
// drop_peer and the same path heals them).
//
// Outstanding-copy accounting transfers ownership, it never gaps: a true
// return from forward_remote means the endpoint holds the sender's
// outstanding increment until the covering ack arrives (on_acked(n) hands
// it back), while the receiving shard increments *before* its ack is
// sent.  Summed over shards, outstanding therefore never transiently hits
// zero while a copy is in flight — sum(outstanding) == 0 across a stable
// re-poll is a rigorous cluster-drain barrier.  stop() returns the number
// of still-unacked copies so the caller can settle them as losses.
//
// A trunk is a byte stream of either kind socket_link.h offers.  A peer
// with an empty host is on this host: its trunk is an AF_UNIX connection
// to the peer's LocalListener, which the listener opens next to its TCP
// port whenever that port accepts 127.0.0.1.  A peer named by an IPv4
// literal, 127.0.0.1 included, is dialed over TCP.  Everything above the
// socket is the same for both.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "message/message.h"
#include "net/poller.h"
#include "net/socket_link.h"
#include "net/wire.h"

namespace bdps {

struct NetEndpointOptions {
  int shard = 0;
  int shard_count = 1;
  /// First redial delay after a trunk drops; doubles per failed attempt.
  double reconnect_initial_ms = 5.0;
  /// Backoff ceiling.
  double reconnect_max_ms = 250.0;
  /// IPv4 literal the trunk listener binds ("" = 127.0.0.1, "0.0.0.0" =
  /// all interfaces).  Name resolution stays outside the data plane.  The
  /// three hosts that accept 127.0.0.1 also open the port's local name.
  std::string bind_host;
  /// IPv4 literal dialed per peer shard, indexed by shard id; a missing or
  /// empty entry means the same host, reached over the peer's local
  /// AF_UNIX socket.
  std::vector<std::string> peer_hosts;
};

class NetEndpoint {
 public:
  /// `on_forward(target, message)` runs on the owner thread for every
  /// newly deposited copy and MUST increment the owner's outstanding count
  /// before returning (the ack that licenses the sender's decrement is
  /// sent after the whole read batch); the parsed message is the
  /// handler's to move from.  `on_acked(n)` releases n sender-side
  /// outstanding increments.  `on_peer_state(peer, up)` reports
  /// dialed-trunk transitions.
  using ForwardHandler = std::function<void(BrokerId, Message&&)>;
  using AckHandler = std::function<void(std::uint64_t)>;
  using PeerStateHandler = std::function<void(int, bool)>;

  /// The poller key the endpoint never uses: an owner parking on poller()
  /// registers its own doorbell under it.
  static constexpr std::uint64_t kOwnerKey = 0;

  /// Binds the trunk listener (ephemeral port on options.bind_host,
  /// loopback by default; port() is valid immediately), and the port's
  /// local name when that host accepts 127.0.0.1.
  NetEndpoint(const NetEndpointOptions& options, ForwardHandler on_forward,
              AckHandler on_acked, PeerStateHandler on_peer_state);
  ~NetEndpoint();

  NetEndpoint(const NetEndpoint&) = delete;
  NetEndpoint& operator=(const NetEndpoint&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Records every other shard's port; the owner's next service() dials
  /// them.  Call before the owner starts driving the endpoint.  `ports` is
  /// indexed by shard id (our own entry is ignored); each dial targets
  /// options.peer_hosts[shard] over TCP when set, the peer's local name
  /// otherwise.
  void connect(const std::vector<std::uint16_t>& ports);

  /// Blocks until every dialed trunk is up or the deadline passes (any
  /// thread; the owner must be driving the endpoint meanwhile).
  bool wait_connected(std::chrono::milliseconds timeout);

  // ---- Owner thread -------------------------------------------------------

  Poller& poller() { return poller_; }

  /// Dispatches one ready event from poller() (never one keyed kOwnerKey).
  void handle(const Poller::Event& event);

  /// End of a pass: runs due redials, then flushes each trunk with
  /// buffered bytes once.
  void service();

  /// Earliest pending redial, if any — the owner parks no longer.
  std::optional<std::chrono::steady_clock::time_point> next_deadline() const;

  /// Hands one copy to the transport.  True: the endpoint now owns the
  /// caller's outstanding increment (released via on_acked or counted into
  /// stop()'s return).  False: the endpoint is stopped — the caller keeps
  /// ownership and must settle the copy itself.
  bool forward_remote(int peer, BrokerId target,
                      std::shared_ptr<const Message> message);

  /// Fault injection: closes our dialed trunk to `peer` (a real socket
  /// close the peer reads as EOF; on_peer_state(peer, false) fires before
  /// this returns) and lets the normal backoff schedule heal it.
  void drop_peer(int peer);

  /// Stops serving: every socket leaves poller() (they close with the
  /// endpoint, so peers see no disconnect) and later forwards are refused.
  /// Returns the number of forwards never covered by an ack — copies the
  /// cluster must count as lost.  Idempotent; later calls return 0.
  std::uint64_t stop();

  // ---- Counters (any thread) ----------------------------------------------

  std::uint64_t forwards_sent() const {
    return forwards_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t forwards_received() const {
    return forwards_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Established trunk sockets, dialed and accepted, whose getsockname
  /// family is AF_UNIX: 2 per peer when every peer is on this host and
  /// both directions are up, 0 when every peer host is an IPv4 literal.
  int local_trunks() const {
    return local_trunks_.load(std::memory_order_relaxed);
  }

 private:
  /// A forward awaiting the peer's cumulative ack; re-encoded on replay.
  struct Unacked {
    std::uint64_t seq = 0;
    BrokerId target = kNoBroker;
    std::shared_ptr<const Message> message;
  };

  struct Peer {
    SocketLink dial;
    FrameAssembler dial_assembler;
    /// EPOLLOUT interest currently registered for `dial`.
    bool dial_write_interest = false;
    SocketLink in;
    FrameAssembler in_assembler;
    /// `dial` / `in` is up and counted in local_trunks_.
    bool dial_local = false;
    bool in_local = false;
    std::uint16_t dial_port = 0;
    std::string dial_host;
    std::uint64_t last_seq_from = 0;
    double backoff_ms = 0.0;
    bool reconnect_pending = false;
    std::chrono::steady_clock::time_point reconnect_at{};
    // Tx window toward this peer.
    std::uint64_t next_seq = 1;
    std::uint64_t acked_through = 0;
    std::deque<Unacked> unacked;
  };

  struct Pending {
    std::unique_ptr<SocketLink> link;
    FrameAssembler assembler;
  };

  void start_dial(int peer);
  void on_dial_established(int peer);
  void handle_dial_down(int peer);
  void schedule_reconnect(int peer);
  void handle_dial_event(int peer, const Poller::Event& event);
  void handle_in_event(int peer);
  void handle_pending_event(std::uint64_t id);
  void process_inbound(int peer, FrameAssembler& assembler);
  void accept_ready(std::uint32_t index);
  void flush_peer(int peer);
  /// Sets one of a peer's *_local flags, keeping local_trunks_ in step.
  void count_local(bool& counted, bool local);

  NetEndpointOptions options_;
  ForwardHandler on_forward_;
  AckHandler on_acked_;
  PeerStateHandler on_peer_state_;

  TcpListener listener_;
  /// listener_'s port under its abstract AF_UNIX name; only when
  /// listener_ accepts 127.0.0.1.
  std::optional<LocalListener> local_listener_;
  Poller poller_;

  /// Connection and Tx-window state, indexed by shard id.
  std::vector<Peer> peers_;
  std::uint64_t next_pending_id_ = 0;
  std::vector<std::pair<std::uint64_t, Pending>> pending_;
  bool stopped_ = false;

  std::atomic<int> connected_count_{0};
  std::atomic<std::uint64_t> forwards_sent_{0};
  std::atomic<std::uint64_t> forwards_received_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<int> local_trunks_{0};
};

}  // namespace bdps
