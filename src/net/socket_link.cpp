#include "net/socket_link.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

namespace bdps {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// IPv4 socket address for `host`:`port`.  An empty host keeps the
/// historical loopback default; otherwise the host must be a dotted-quad
/// literal ("0.0.0.0" binds all interfaces) — name resolution is the
/// deployment layer's job, configs carry addresses.
sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("not an IPv4 address literal: " + host);
  }
  return addr;
}

/// The abstract AF_UNIX address of a LocalListener: a leading NUL, then
/// the name, with the length counting only the bytes used.
struct LocalAddr {
  sockaddr_un addr{};
  socklen_t len = 0;
};

LocalAddr make_local_addr(std::uint16_t port) {
  LocalAddr local;
  local.addr.sun_family = AF_UNIX;
  const int n = std::snprintf(local.addr.sun_path + 1,
                              sizeof(local.addr.sun_path) - 1,
                              "bdps-trunk-%u", static_cast<unsigned>(port));
  local.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                     static_cast<std::size_t>(n));
  return local;
}

/// Binds and listens on `addr`; closes `fd` and throws on failure.
void bind_and_listen(int fd, const sockaddr* addr, socklen_t len) {
  if (bind(fd, addr, len) != 0 || listen(fd, 128) != 0) {
    const int err = errno;
    close(fd);
    errno = err;
    throw_errno("bind/listen");
  }
}

int make_tcp_socket() {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  // Frames are small and latency-sensitive (acks, single publications);
  // Nagle coalescing only adds delay on loopback.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

bool accepts_loopback(const std::string& bind_host) {
  return bind_host.empty() || bind_host == "127.0.0.1" ||
         bind_host == "0.0.0.0";
}

int socket_family(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  return addr.ss_family;
}

void make_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

TcpListener::TcpListener(std::uint16_t port, const std::string& bind_host) {
  sockaddr_in addr = make_addr(bind_host, port);  // Throws before any fd.
  const int fd = make_tcp_socket();
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  bind_and_listen(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  fd_ = fd;
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close_now();
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  make_nonblocking(fd_);
}

TcpListener::~TcpListener() { close_now(); }

int TcpListener::accept_connection() {
  const int fd = accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
  if (fd < 0) return -1;  // EAGAIN or transient error: nothing pending.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void TcpListener::close_now() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

LocalListener::LocalListener(std::uint16_t port) {
  const LocalAddr local = make_local_addr(port);
  const int fd =
      socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  bind_and_listen(fd, reinterpret_cast<const sockaddr*>(&local.addr),
                  local.len);
  fd_ = fd;
}

LocalListener::~LocalListener() {
  if (fd_ >= 0) close(fd_);
}

int LocalListener::accept_connection() {
  // No TCP_NODELAY: an AF_UNIX stream has no Nagle to switch off.
  return accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
}

SocketLink::SocketLink(SocketLink&& other) noexcept
    : fd_(other.fd_),
      connecting_(other.connecting_),
      buffer_(std::move(other.buffer_)),
      offset_(other.offset_) {
  other.fd_ = -1;
  other.connecting_ = false;
  other.buffer_.clear();
  other.offset_ = 0;
}

SocketLink& SocketLink::operator=(SocketLink&& other) noexcept {
  if (this != &other) {
    close_now();
    fd_ = other.fd_;
    connecting_ = other.connecting_;
    buffer_ = std::move(other.buffer_);
    offset_ = other.offset_;
    other.fd_ = -1;
    other.connecting_ = false;
    other.buffer_.clear();
    other.offset_ = 0;
  }
  return *this;
}

void SocketLink::dial(std::uint16_t port, const std::string& host) {
  close_now();
  int rc = 0;
  if (host.empty()) {
    const LocalAddr local = make_local_addr(port);
    fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd_ < 0) throw_errno("socket(AF_UNIX)");
    rc = connect(fd_, reinterpret_cast<const sockaddr*>(&local.addr),
                 local.len);
  } else {
    const sockaddr_in addr = make_addr(host, port);  // Throws before any fd.
    fd_ = make_tcp_socket();
    make_nonblocking(fd_);
    rc = connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc == 0) {
    connecting_ = false;
  } else if (errno == EINPROGRESS) {  // TCP only.
    connecting_ = true;
  } else {
    // Synchronous refusal (no listener yet: ECONNREFUSED; AF_UNIX backlog
    // full: EAGAIN): leave the link closed; the endpoint's backoff
    // schedule retries.
    close_now();
  }
}

void SocketLink::adopt(int fd) {
  close_now();
  fd_ = fd;
  connecting_ = false;
}

bool SocketLink::finish_connect() {
  if (!connecting_) return open();
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    close_now();
    return false;
  }
  connecting_ = false;
  return true;
}

bool SocketLink::flush() {
  if (closed() || connecting_) return !closed();
  while (offset_ < buffer_.size()) {
    const ssize_t n = ::send(fd_, buffer_.data() + offset_,
                             buffer_.size() - offset_, MSG_NOSIGNAL);
    if (n > 0) {
      offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_now();
    return false;
  }
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  } else if (offset_ > 65536 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  return true;
}

bool SocketLink::read_into(FrameAssembler& assembler) {
  if (closed() || connecting_) return !closed();
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      assembler.feed(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n == 0) {  // Orderly EOF.
      close_now();
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    close_now();
    return false;
  }
}

void SocketLink::close_now() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  connecting_ = false;
  buffer_.clear();
  offset_ = 0;
}

BlockingConn::BlockingConn(BlockingConn&& other) noexcept
    : fd_(other.fd_),
      assembler_(std::move(other.assembler_)),
      scratch_(std::move(other.scratch_)) {
  other.fd_ = -1;
}

BlockingConn& BlockingConn::operator=(BlockingConn&& other) noexcept {
  if (this != &other) {
    close_now();
    fd_ = other.fd_;
    assembler_ = std::move(other.assembler_);
    scratch_ = std::move(other.scratch_);
    other.fd_ = -1;
  }
  return *this;
}

bool BlockingConn::dial(std::uint16_t port, const std::string& host) {
  close_now();
  sockaddr_in addr;
  int fd = -1;
  try {
    addr = make_addr(host, port);
    fd = make_tcp_socket();
  } catch (const std::exception&) {
    return false;
  }
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool BlockingConn::send_frame(const Frame& frame) {
  if (fd_ < 0) return false;
  scratch_.clear();
  encode_frame(frame, scratch_);
  std::size_t sent = 0;
  while (sent < scratch_.size()) {
    const ssize_t n = ::send(fd_, scratch_.data() + sent,
                             scratch_.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    close_now();
    return false;
  }
  return true;
}

std::optional<Frame> BlockingConn::recv_frame() {
  for (;;) {
    if (auto frame = assembler_.next()) return frame;
    if (fd_ < 0) return std::nullopt;
    std::uint8_t chunk[16384];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      assembler_.feed(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    close_now();
    return std::nullopt;
  }
}

void BlockingConn::close_now() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

}  // namespace bdps
