#include "experiment/cluster.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "net/socket_link.h"
#include "topology/shard_plan.h"

namespace bdps {

namespace {

void make_blocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
}

StatusReplyFrame make_status(std::uint32_t shard, const LiveNetwork& net,
                             std::uint64_t published, bool driver_done) {
  StatusReplyFrame status;
  status.shard = shard;
  status.outstanding = net.outstanding();
  status.forwards_sent = net.trunk_forwards_sent();
  status.forwards_received = net.trunk_forwards_received();
  status.receptions = net.stats().receptions();
  status.deliveries = net.stats().deliveries().size();
  status.purged = net.stats().purged();
  status.lost = net.stats().lost();
  status.published = published;
  status.driver_done = driver_done;
  return status;
}

/// Spawned daemon processes; SIGKILLed and reaped on every exit path.
class DaemonPool {
 public:
  ~DaemonPool() {
    for (const Child& child : children_) {
      if (!child.reaped) ::kill(child.pid, SIGKILL);
    }
    reap();
  }

  void spawn(const std::string& exe, std::uint16_t controller_port,
             std::size_t shard) {
    const std::string port_arg =
        "controller_port=" + std::to_string(controller_port);
    const std::string shard_arg = "shard=" + std::to_string(shard);
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("brokerd spawn failed: fork: " +
                               std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      ::execl(exe.c_str(), exe.c_str(), "daemon=1", port_arg.c_str(),
              shard_arg.c_str(), static_cast<char*>(nullptr));
      // exec failed — the parent sees a fast non-zero exit via any_dead(),
      // never a half-alive daemon.
      std::_Exit(127);
    }
    children_.push_back(Child{pid, false, false});
  }

  /// Non-blocking: true if some daemon has already exited — during the
  /// handshake that can only mean a failed exec or a startup crash.
  bool any_dead() {
    bool dead = false;
    for (Child& child : children_) {
      if (child.reaped) {
        dead = true;
        continue;
      }
      int status = 0;
      if (::waitpid(child.pid, &status, WNOHANG) == child.pid) {
        child.reaped = true;
        child.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        dead = true;
      }
    }
    return dead;
  }

  /// True once every spawned daemon has exited cleanly.
  bool reap() {
    bool all_clean = true;
    for (Child& child : children_) {
      if (!child.reaped) {
        int status = 0;
        child.reaped = ::waitpid(child.pid, &status, 0) == child.pid;
        child.clean = child.reaped && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
      }
      all_clean = all_clean && child.clean;
    }
    return all_clean;
  }

 private:
  struct Child {
    pid_t pid = -1;
    bool reaped = false;
    bool clean = false;
  };
  std::vector<Child> children_;
};

[[noreturn]] void throw_daemon_error(const Frame& frame) {
  if (frame.is<ErrorFrame>()) {
    throw std::runtime_error("brokerd daemon: " + frame.as<ErrorFrame>().what);
  }
  throw std::runtime_error("brokerd protocol: unexpected frame type " +
                           std::to_string(static_cast<int>(frame.type())));
}

Frame expect_frame(BlockingConn& conn, FrameType want) {
  std::optional<Frame> frame = conn.recv_frame();
  if (!frame) {
    throw std::runtime_error("brokerd protocol: daemon connection closed");
  }
  if (frame->type() != want) throw_daemon_error(*frame);
  return std::move(*frame);
}

}  // namespace

LiveRunResult run_live_cluster(const LiveRunConfig& config,
                               const std::string& brokerd_path) {
  LiveRunConfig cluster = config;
  cluster.mode = LiveMode::kSocket;
  if (cluster.shards < 2) cluster.shards = 2;
  const std::size_t n = cluster.shards;
  const std::string config_text = format_live_config(cluster);

  TcpListener listener(0);  // Throws on bind failure.
  DaemonPool pool;
  for (std::size_t s = 0; s < n; ++s) {
    pool.spawn(brokerd_path, listener.port(), s);
  }

  // Identification: each daemon dials in and says which shard it is.
  std::vector<BlockingConn> conns(n);
  std::size_t connected = 0;
  const auto accept_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (connected < n) {
    const int fd = listener.accept_connection();
    if (fd < 0) {
      if (pool.any_dead()) {
        throw std::runtime_error(
            "brokerd spawn failed: a daemon exited before connecting "
            "(bad binary path or startup crash)");
      }
      if (std::chrono::steady_clock::now() > accept_deadline) {
        throw std::runtime_error(
            "brokerd spawn failed: daemons did not connect (spawned " +
            std::to_string(n) + ", " + std::to_string(connected) +
            " checked in)");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    make_blocking(fd);
    BlockingConn conn(fd);
    const Frame hello = expect_frame(conn, FrameType::kHello);
    const HelloFrame& h = hello.as<HelloFrame>();
    if (h.role != PeerRole::kController || h.shard >= n ||
        conns[h.shard].open()) {
      throw std::runtime_error("brokerd protocol: bad daemon hello");
    }
    conns[h.shard] = std::move(conn);
    ++connected;
  }

  // Config out, trunk ports back, full port map out, readiness back.
  for (BlockingConn& conn : conns) {
    if (!conn.send_frame(Frame{ConfigFrame{config_text}})) {
      throw std::runtime_error("brokerd protocol: config send failed");
    }
  }
  PortsFrame ports;
  ports.ports.resize(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const Frame reply = expect_frame(conns[s], FrameType::kPortReply);
    const PortReplyFrame& r = reply.as<PortReplyFrame>();
    if (r.shard >= n) throw std::runtime_error("brokerd protocol: bad shard");
    ports.ports[r.shard] = r.port;
  }
  for (BlockingConn& conn : conns) {
    if (!conn.send_frame(Frame{ports})) {
      throw std::runtime_error("brokerd protocol: ports send failed");
    }
  }
  for (BlockingConn& conn : conns) {
    expect_frame(conn, FrameType::kStatusReply);  // Trunks connected.
  }

  const auto wall_start = std::chrono::steady_clock::now();
  for (BlockingConn& conn : conns) {
    if (!conn.send_frame(Frame{StartFrame{}})) {
      throw std::runtime_error("brokerd protocol: start send failed");
    }
  }

  // Quiescence: every driver finished its schedule and the cluster-wide
  // outstanding sum reads zero on two consecutive polls.
  std::vector<StatusReplyFrame> last_status(n);
  int stable = 0;
  while (stable < 2) {
    bool all_done = true;
    std::uint64_t outstanding = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (!conns[s].send_frame(Frame{StatusFrame{}})) {
        throw std::runtime_error("brokerd protocol: status send failed");
      }
      const Frame reply = expect_frame(conns[s], FrameType::kStatusReply);
      last_status[s] = reply.as<StatusReplyFrame>();
      all_done = all_done && last_status[s].driver_done;
      outstanding += last_status[s].outstanding;
    }
    stable = (all_done && outstanding == 0) ? stable + 1 : 0;
    if (stable < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto wall_end = std::chrono::steady_clock::now();

  // Collect: per-shard delivery stream terminated by a summary.
  LiveRunResult result;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  for (std::size_t s = 0; s < n; ++s) {
    if (!conns[s].send_frame(Frame{DumpFrame{}})) {
      throw std::runtime_error("brokerd protocol: dump send failed");
    }
    std::uint64_t streamed = 0;
    for (;;) {
      std::optional<Frame> frame = conns[s].recv_frame();
      if (!frame) {
        throw std::runtime_error("brokerd protocol: dump stream closed");
      }
      if (frame->is<DeliveryFrame>()) {
        const DeliveryFrame& d = frame->as<DeliveryFrame>();
        result.delivery_log.push_back(
            LiveDelivery{d.subscriber, d.message, d.delay, d.valid, d.price});
        if (d.valid) ++result.valid_deliveries;
        result.earning += d.valid ? d.price : 0.0;
        ++streamed;
        continue;
      }
      if (!frame->is<SummaryFrame>()) throw_daemon_error(*frame);
      const SummaryFrame& summary = frame->as<SummaryFrame>();
      if (summary.delivery_count != streamed) {
        throw std::runtime_error("brokerd protocol: dump stream truncated");
      }
      result.published += summary.published;
      result.receptions += summary.receptions;
      result.purged += summary.purged;
      result.lost += summary.lost;
      break;
    }
    result.trunk_forwards += last_status[s].forwards_sent;
  }
  result.deliveries = result.delivery_log.size();

  for (BlockingConn& conn : conns) {
    conn.send_frame(Frame{ShutdownFrame{}});
  }
  if (!pool.reap()) {
    throw std::runtime_error("brokerd: a daemon exited uncleanly");
  }
  return result;
}

int run_live_daemon(std::uint16_t controller_port, int shard) {
  BlockingConn conn;
  if (!conn.dial(controller_port) || shard < 0) return 2;
  const auto fail = [&](const std::string& what) {
    conn.send_frame(Frame{ErrorFrame{what}});
    return 1;
  };
  try {
    HelloFrame hello;
    hello.shard = static_cast<std::uint32_t>(shard);
    hello.shard_count = 0;  // The config names the cluster size.
    hello.role = PeerRole::kController;
    if (!conn.send_frame(Frame{hello})) return 2;

    std::optional<Frame> frame = conn.recv_frame();
    if (!frame || !frame->is<ConfigFrame>()) return 2;
    LiveRunConfig config = parse_live_config(frame->as<ConfigFrame>().text);
    config.mode = LiveMode::kSocket;
    const LiveWorld world = build_live_world(config);
    const std::size_t shard_count =
        std::min(std::max<std::size_t>(config.shards, 1),
                 world.topology.graph.broker_count());
    if (static_cast<std::size_t>(shard) >= shard_count) {
      return fail("shard out of range");
    }
    LiveNetwork net(
        &world.topology, world.fabric.get(), world.strategy.get(),
        live_options_for(config, shard, static_cast<int>(shard_count),
                         greedy_edge_cut(world.topology.graph,
                                         shard_count)));
    PortReplyFrame port_reply;
    port_reply.shard = hello.shard;
    port_reply.port = net.trunk_port();
    if (!conn.send_frame(Frame{port_reply})) return 2;

    frame = conn.recv_frame();
    if (!frame || !frame->is<PortsFrame>()) return 2;
    net.connect_trunks(frame->as<PortsFrame>().ports);
    net.start();
    if (!net.wait_trunks(std::chrono::milliseconds(15000))) {
      return fail("trunks failed to connect");
    }
    if (!conn.send_frame(Frame{make_status(hello.shard, net, 0, false)})) {
      return 2;
    }

    frame = conn.recv_frame();
    if (!frame || !frame->is<StartFrame>()) return 2;
    std::atomic<std::uint64_t> published{0};
    std::atomic<bool> driver_done{false};
    std::thread driver([&] {
      published.store(drive_live_schedule(world, {&net}),
                      std::memory_order_relaxed);
      driver_done.store(true, std::memory_order_release);
    });

    int code = 2;
    while ((frame = conn.recv_frame())) {
      if (frame->is<StatusFrame>()) {
        if (!conn.send_frame(Frame{make_status(
                hello.shard, net, published.load(std::memory_order_relaxed),
                driver_done.load(std::memory_order_acquire))})) {
          break;
        }
      } else if (frame->is<DumpFrame>()) {
        driver.join();  // kDump only arrives after driver_done was seen.
        net.drain();
        net.stop();
        const std::vector<LiveDelivery> deliveries = net.stats().deliveries();
        for (const LiveDelivery& d : deliveries) {
          conn.send_frame(Frame{DeliveryFrame{d.subscriber, d.message, d.delay,
                                              d.valid, d.price}});
        }
        SummaryFrame summary;
        summary.shard = hello.shard;
        summary.delivery_count = deliveries.size();
        summary.receptions = net.stats().receptions();
        summary.purged = net.stats().purged();
        summary.lost = net.stats().lost();
        summary.published = published.load(std::memory_order_relaxed);
        summary.earning = net.stats().earning();
        if (!conn.send_frame(Frame{summary})) break;
      } else if (frame->is<ShutdownFrame>()) {
        code = 0;
        break;
      } else {
        break;
      }
    }
    if (driver.joinable()) {
      // Controller vanished mid-run.  The driver thread may be parked in a
      // paced sleep for (scaled) hours; the process is dead either way, so
      // leave destructors behind rather than strand a zombie daemon.
      std::_Exit(2);
    }
    return code;
  } catch (const std::exception& error) {
    return fail(error.what());
  }
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

}  // namespace bdps
