// Non-blocking stream-socket primitives for the broker overlay.
//
// A data trunk is a byte stream over one of two socket kinds.  TcpListener
// binds an IPv4 address (127.0.0.1 and an ephemeral port by default; pass
// a dotted-quad literal to bind a real interface).  LocalListener binds
// the same port's name in the abstract AF_UNIX namespace
// ("\0bdps-trunk-<port>": no file, gone with the socket), which a
// same-host dial reaches without running the loopback TCP stack; the
// port already names the listener uniquely in the network namespace the
// abstract names live in.  Both accept non-blocking connections.
// SocketLink is one connection's state, whatever its kind: on the Tx
// side frames are encoded onto an outbound buffer, flush() pushes until
// EAGAIN, and wants_write() tells the poller when EPOLLOUT interest is
// needed; the Rx side reads into a scratch buffer that feeds a
// FrameAssembler (incremental frame reassembly across arbitrary read
// boundaries).
//
// BlockingConn is the control-plane counterpart, TCP only: tools/brokerd's
// controller <-> daemon exchanges are strictly request/reply at human
// cadence, so plain blocking send/receive with the same wire format keeps
// that code free of readiness bookkeeping.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.h"

namespace bdps {

/// Sets O_NONBLOCK; throws std::runtime_error on failure.
void make_nonblocking(int fd);

/// True when a TCP listener bound to `bind_host` accepts 127.0.0.1 dials
/// (an empty host, "127.0.0.1" or "0.0.0.0"): the trunk listeners that
/// also open a LocalListener.
bool accepts_loopback(const std::string& bind_host);

/// A socket's address family per getsockname (AF_UNIX, AF_INET), -1 on
/// error.
int socket_family(int fd);

class TcpListener {
 public:
  /// Binds and listens on `bind_host`:`port` (0 = ephemeral; an empty
  /// host = 127.0.0.1, "0.0.0.0" = all interfaces).  Throws
  /// std::runtime_error on bind failure (port in use, no sockets) or a
  /// host that is not an IPv4 literal.
  explicit TcpListener(std::uint16_t port = 0,
                       const std::string& bind_host = {});
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

  /// Accepts one pending connection (returned fd is non-blocking and
  /// cloexec); -1 when none is pending.
  int accept_connection();

  void close_now();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

class LocalListener {
 public:
  /// Binds and listens on the abstract AF_UNIX name of TCP port `port`
  /// (the port of the TcpListener it serves next to).  Throws
  /// std::runtime_error when the name is taken or no socket can be made.
  explicit LocalListener(std::uint16_t port);
  ~LocalListener();

  LocalListener(const LocalListener&) = delete;
  LocalListener& operator=(const LocalListener&) = delete;

  int fd() const { return fd_; }

  /// As TcpListener::accept_connection.
  int accept_connection();

 private:
  int fd_ = -1;
};

class SocketLink {
 public:
  SocketLink() = default;
  ~SocketLink() { close_now(); }

  SocketLink(SocketLink&& other) noexcept;
  SocketLink& operator=(SocketLink&& other) noexcept;
  SocketLink(const SocketLink&) = delete;
  SocketLink& operator=(const SocketLink&) = delete;

  /// Starts a non-blocking connect to `host`:`port`.  An empty host means
  /// the same host: the link dials `port`'s LocalListener name over
  /// AF_UNIX, which connects at once or fails at once.  Any IPv4 literal,
  /// 127.0.0.1 included, dials TCP, and the link is then `connecting`
  /// until the poller reports writability and finish_connect() confirms.
  /// A refused or backlogged dial leaves the link closed; throws
  /// std::runtime_error only when no socket can be created at all or the
  /// host is not an IPv4 literal.
  void dial(std::uint16_t port, const std::string& host = {});

  /// Adopts an accepted fd (already non-blocking).
  void adopt(int fd);

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0 && !connecting_; }
  bool connecting() const { return fd_ >= 0 && connecting_; }
  bool closed() const { return fd_ < 0; }

  /// Resolves a pending non-blocking connect after EPOLLOUT: true when
  /// established; false closes the link (connection refused, ...).
  bool finish_connect();

  /// The outbound buffer: callers encode frames straight onto its end (no
  /// syscall; call flush()).  Only meaningful while the link is open.
  std::vector<std::uint8_t>& outbound() { return buffer_; }

  /// Writes buffered bytes until EAGAIN or empty.  False = fatal error;
  /// the link is closed.
  bool flush();

  /// Reads whatever is available into the assembler.  False = EOF or
  /// fatal error; the link is closed.  Complete frames are drained by the
  /// caller via `assembler.next()`.
  bool read_into(FrameAssembler& assembler);

  bool wants_write() const { return connecting() || !buffer_.empty(); }
  std::size_t buffered_bytes() const { return buffer_.size() - offset_; }

  void close_now();

 private:
  int fd_ = -1;
  bool connecting_ = false;
  /// Outbound bytes not yet accepted by the kernel; `offset_` marks the
  /// partial-write position (compacted lazily).
  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;
};

/// Blocking control-plane connection (see header comment).
class BlockingConn {
 public:
  BlockingConn() = default;
  explicit BlockingConn(int fd) : fd_(fd) {}
  ~BlockingConn() { close_now(); }

  BlockingConn(BlockingConn&& other) noexcept;
  BlockingConn& operator=(BlockingConn&& other) noexcept;
  BlockingConn(const BlockingConn&) = delete;
  BlockingConn& operator=(const BlockingConn&) = delete;

  /// Blocking connect to `host`:`port` (empty host = 127.0.0.1); false on
  /// failure, including a host that is not an IPv4 literal.
  bool dial(std::uint16_t port, const std::string& host = {});

  bool open() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends one frame fully; false on any error (connection closed).
  bool send_frame(const Frame& frame);

  /// Receives the next frame; nullopt on EOF/error.  Throws WireError on a
  /// malformed stream.
  std::optional<Frame> recv_frame();

  void close_now();

 private:
  int fd_ = -1;
  FrameAssembler assembler_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace bdps
