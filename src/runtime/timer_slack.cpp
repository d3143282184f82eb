#include "runtime/timer_slack.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

namespace bdps {

namespace {

/// The first line of a /proc file, or false with errno set.
bool read_first_line(const std::string& path, std::string& line) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[64];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  const int read_errno = errno;
  ::close(fd);
  if (n < 0) {
    errno = read_errno;
    return false;
  }
  line.assign(buf, static_cast<std::size_t>(n));
  if (const auto end = line.find('\n'); end != std::string::npos) {
    line.resize(end);
  }
  return true;
}

/// The thread is gone: its /proc entry vanished or its task was reaped.
bool exited(int error) { return error == ENOENT || error == ESRCH; }

}  // namespace

ScopedTimerSlack::ScopedTimerSlack() : previous_(timer_slack_ns()) {
  if (previous_ == kExactNs) {
    previous_ = 0;
    return;
  }
  prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(kExactNs), 0, 0, 0);
}

ScopedTimerSlack::~ScopedTimerSlack() {
  if (previous_ > 0) {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_), 0, 0, 0);
  }
}

long timer_slack_ns() { return prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0); }

std::vector<ThreadTimerSlack> thread_timer_slacks(std::string_view prefix) {
  std::vector<ThreadTimerSlack> threads;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return threads;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string tid = entry->d_name;
    ThreadTimerSlack thread;
    if (!read_first_line("/proc/self/task/" + tid + "/comm", thread.name) ||
        !thread.name.starts_with(prefix)) {
      continue;
    }
    thread.tid = std::strtol(tid.c_str(), nullptr, 10);
    // The per-thread file lives under /proc/<tid>, not /proc/self/task.
    std::string slack;
    if (read_first_line("/proc/" + tid + "/timerslack_ns", slack)) {
      thread.slack_ns = std::strtol(slack.c_str(), nullptr, 10);
    } else if (exited(errno)) {
      continue;
    }
    threads.push_back(std::move(thread));
  }
  closedir(dir);
  return threads;
}

}  // namespace bdps
