#include "net/poller.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace bdps {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

epoll_event make_event(std::uint64_t key, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u) |
              EPOLLRDHUP;
  ev.data.u64 = key;
  return ev;
}

}  // namespace

Poller::Poller() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void Poller::add(int fd, std::uint64_t key, bool want_read, bool want_write) {
  epoll_event ev = make_event(key, want_read, want_write);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(ADD)");
  }
}

void Poller::modify(int fd, std::uint64_t key, bool want_read,
                    bool want_write) {
  epoll_event ev = make_event(key, want_read, want_write);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(MOD)");
  }
}

void Poller::remove(int fd) {
  // Ignore failures: the fd may already be closed (kernel auto-deregisters).
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void Poller::wait(std::chrono::nanoseconds timeout, std::vector<Event>& out) {
  out.clear();
  epoll_event events[64];
  timespec ts{};
  const timespec* tsp = nullptr;
  if (timeout.count() >= 0) {
    ts.tv_sec = static_cast<time_t>(timeout.count() / 1000000000);
    ts.tv_nsec = static_cast<long>(timeout.count() % 1000000000);
    tsp = &ts;
  }
  const int n = epoll_pwait2(epoll_fd_, events, 64, tsp, nullptr);
  if (n < 0) {
    if (errno == EINTR) return;
    throw_errno("epoll_pwait2");
  }
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event e;
    e.key = events[i].data.u64;
    e.readable = (events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
    e.writable = (events[i].events & EPOLLOUT) != 0;
    e.hangup = (events[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    out.push_back(e);
  }
}

WakeFd::WakeFd() {
  fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (fd_ < 0) throw_errno("eventfd");
}

WakeFd::~WakeFd() {
  if (fd_ >= 0) close(fd_);
}

void WakeFd::signal() {
  const std::uint64_t one = 1;
  // A full counter (EAGAIN) still wakes the poller; other errors cannot
  // happen on a healthy eventfd.
  [[maybe_unused]] const ssize_t n = write(fd_, &one, sizeof(one));
}

void WakeFd::drain() {
  std::uint64_t value = 0;
  [[maybe_unused]] const ssize_t n = read(fd_, &value, sizeof(value));
}

}  // namespace bdps
