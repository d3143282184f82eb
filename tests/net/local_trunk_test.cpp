// Same-host trunks: a peer with an empty host is dialed over an AF_UNIX
// stream socket in the abstract namespace, named after the peer's TCP
// trunk port, instead of loopback TCP.  A peer named by an IPv4 literal,
// 127.0.0.1 included, stays on TCP.  These cases pin which socket kind each
// configuration gets (getsockname, through socket_family and
// NetEndpoint::local_trunks), that both kinds deliver the same copies,
// that a dropped local trunk heals with exactly-once replay, that a local
// dial with nobody behind the name backs off instead of throwing, and
// that only listeners which accept 127.0.0.1 open a local name.  The
// endpoints own no thread; each test is their owner and pumps them.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <ifaddrs.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/endpoint.h"
#include "net/socket_link.h"

namespace bdps {
namespace {

using Delivery = std::pair<BrokerId, MessageId>;

/// Accepts one connection, retrying while the kernel queues it.
template <typename Listener>
int accept_soon(Listener& listener) {
  for (int i = 0; i < 1000; ++i) {
    const int fd = listener.accept_connection();
    if (fd >= 0) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

std::shared_ptr<const Message> make_message(MessageId id) {
  return std::make_shared<const Message>(
      id, PublisherId{0}, 0.0, 50.0,
      std::vector<Attribute>{{"A", Value(static_cast<double>(id))}});
}

/// Two endpoints, shard 0 and shard 1, every peer dialed at `peer_host`.
/// Records every copy each side deposits and every ack a gets back.
class Pair {
 public:
  explicit Pair(const std::string& peer_host)
      : a_(options(0, peer_host), deposit(received_a_),
           [this](std::uint64_t n) { acked_a_ += n; }, nullptr),
        b_(options(1, peer_host), deposit(received_b_), nullptr, nullptr) {
    const std::vector<std::uint16_t> ports{a_.port(), b_.port()};
    a_.connect(ports);
    b_.connect(ports);
  }

  NetEndpoint& a() { return a_; }
  NetEndpoint& b() { return b_; }
  const std::vector<Delivery>& received_b() const { return received_b_; }
  std::uint64_t acked_a() const { return acked_a_; }

  /// One owner pass of `endpoint`: park up to 1 ms, dispatch, service.
  void pass(NetEndpoint& endpoint) {
    endpoint.poller().wait(std::chrono::milliseconds(1), events_);
    for (const Poller::Event& event : events_) endpoint.handle(event);
    endpoint.service();
  }

  /// Pumps both endpoints until `done` holds or 5 s pass.
  template <typename Done>
  bool pump_until(const Done& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      pass(a_);
      pass(b_);
    }
    return done();
  }

  /// Both dialed trunks up, and each side has taken the other's hello.
  bool pump_until_up(int local_each) {
    return pump_until([&] {
      return a_.wait_connected(std::chrono::milliseconds(0)) &&
             b_.wait_connected(std::chrono::milliseconds(0)) &&
             a_.local_trunks() == local_each &&
             b_.local_trunks() == local_each;
    });
  }

 private:
  static NetEndpointOptions options(int shard, const std::string& peer_host) {
    NetEndpointOptions options;
    options.shard = shard;
    options.shard_count = 2;
    options.peer_hosts = {peer_host, peer_host};
    return options;
  }

  static NetEndpoint::ForwardHandler deposit(std::vector<Delivery>& into) {
    return [&into](BrokerId target, Message&& message) {
      into.emplace_back(target, message.id());
    };
  }

  std::vector<Delivery> received_a_;
  std::vector<Delivery> received_b_;
  std::uint64_t acked_a_ = 0;
  std::vector<Poller::Event> events_;
  NetEndpoint a_;
  NetEndpoint b_;
};

/// Forwards `count` copies a -> b (targets cycle over 3 brokers) and pumps
/// until every one is delivered and acked; returns b's sorted deposits.
std::vector<Delivery> forward_script(Pair& pair, int count) {
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(pair.a().forward_remote(1, BrokerId(i % 3),
                                        make_message(MessageId(i))));
  }
  EXPECT_TRUE(pair.pump_until([&] {
    return pair.received_b().size() >= static_cast<std::size_t>(count) &&
           pair.acked_a() >= static_cast<std::uint64_t>(count);
  }));
  std::vector<Delivery> delivered = pair.received_b();
  std::sort(delivered.begin(), delivered.end());
  return delivered;
}

TEST(LocalTrunk, EmptyHostDialsTheLocalNameAndLiteralsDialTcp) {
  TcpListener tcp(0);
  LocalListener local(tcp.port());
  SocketLink same_host;
  same_host.dial(tcp.port());
  ASSERT_TRUE(same_host.open());  // An AF_UNIX connect is never pending.
  EXPECT_EQ(socket_family(same_host.fd()), AF_UNIX);
  SocketLink accepted_local;
  accepted_local.adopt(accept_soon(local));
  ASSERT_TRUE(accepted_local.open());
  EXPECT_EQ(socket_family(accepted_local.fd()), AF_UNIX);

  SocketLink explicit_host;
  explicit_host.dial(tcp.port(), "127.0.0.1");
  ASSERT_FALSE(explicit_host.closed());
  EXPECT_EQ(socket_family(explicit_host.fd()), AF_INET);
  SocketLink accepted_tcp;
  accepted_tcp.adopt(accept_soon(tcp));
  ASSERT_TRUE(accepted_tcp.open());
  EXPECT_EQ(socket_family(accepted_tcp.fd()), AF_INET);
}

TEST(LocalTrunk, DefaultHostPairTrunksOverAfUnixAndDelivers) {
  Pair pair("");
  // Each side: its dialed trunk and the one it accepted.
  ASSERT_TRUE(pair.pump_until_up(2));
  const std::vector<Delivery> delivered = forward_script(pair, 12);
  ASSERT_EQ(delivered.size(), 12u);
  EXPECT_EQ(pair.acked_a(), 12u);
  EXPECT_EQ(pair.a().local_trunks(), 2);
  EXPECT_EQ(pair.b().local_trunks(), 2);
  EXPECT_EQ(pair.a().stop(), 0u);
  EXPECT_EQ(pair.b().stop(), 0u);
}

TEST(LocalTrunk, ExplicitLoopbackHostsStayTcpAndDeliverTheSameCopies) {
  Pair local("");
  ASSERT_TRUE(local.pump_until_up(2));
  const std::vector<Delivery> over_unix = forward_script(local, 30);

  Pair tcp("127.0.0.1");
  ASSERT_TRUE(tcp.pump_until_up(0));
  const std::vector<Delivery> over_tcp = forward_script(tcp, 30);
  EXPECT_EQ(tcp.a().local_trunks(), 0);
  EXPECT_EQ(tcp.b().local_trunks(), 0);

  ASSERT_EQ(over_unix.size(), 30u);
  EXPECT_EQ(over_unix, over_tcp);
  EXPECT_EQ(tcp.a().stop(), 0u);
  EXPECT_EQ(local.a().stop(), 0u);
}

TEST(LocalTrunk, DroppedLocalTrunkIsEofToThePeerAndReplaysExactlyOnce) {
  Pair pair("");
  ASSERT_TRUE(pair.pump_until_up(2));
  // Half the copies reach b's socket before the drop; b has read none.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pair.a().forward_remote(1, BrokerId(0),
                                        make_message(MessageId(i))));
  }
  pair.a().service();
  pair.a().drop_peer(1);
  EXPECT_EQ(pair.a().local_trunks(), 1);  // Only the trunk a accepted.
  // The other half is written while the trunk is down: replay carries it.
  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE(pair.a().forward_remote(1, BrokerId(0),
                                        make_message(MessageId(i))));
  }

  // b alone reads the 20 copies, then EOF, which closes its inbound trunk.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pair.b().local_trunks() != 1 &&
         std::chrono::steady_clock::now() < deadline) {
    pair.pass(pair.b());
  }
  ASSERT_EQ(pair.b().local_trunks(), 1);
  EXPECT_EQ(pair.received_b().size(), 20u);

  // The backoff redial comes back over AF_UNIX and replays the window.
  ASSERT_TRUE(pair.pump_until([&] {
    return pair.acked_a() >= 40 && pair.a().local_trunks() == 2 &&
           pair.b().local_trunks() == 2;
  }));
  std::vector<Delivery> delivered = pair.received_b();
  std::sort(delivered.begin(), delivered.end());
  ASSERT_EQ(delivered.size(), 40u);  // 0 duplicated.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)].second, MessageId(i));
  }
  EXPECT_EQ(pair.acked_a(), 40u);
  EXPECT_EQ(pair.a().reconnects(), 1u);
  EXPECT_EQ(pair.b().reconnects(), 0u);
  EXPECT_EQ(pair.a().stop(), 0u);  // 0 lost.
  EXPECT_EQ(pair.b().stop(), 0u);
}

TEST(LocalTrunk, LocalDialWithNoListenerBacksOffWithoutThrowing) {
  // A bare TcpListener opens no local name, so nothing is behind its port's.
  TcpListener tcp(0);
  SocketLink link;
  EXPECT_NO_THROW(link.dial(tcp.port()));
  EXPECT_TRUE(link.closed());

  NetEndpointOptions options;
  options.shard = 0;
  options.shard_count = 2;
  options.reconnect_initial_ms = 5.0;
  options.reconnect_max_ms = 250.0;
  NetEndpoint endpoint(options, nullptr, nullptr, nullptr);
  endpoint.connect({endpoint.port(), tcp.port()});
  // Each refused dial schedules the next one, the delay doubling.
  for (const double delay_ms : {5.0, 10.0, 20.0}) {
    const auto before = std::chrono::steady_clock::now();
    ASSERT_TRUE(endpoint.next_deadline().has_value());
    std::this_thread::sleep_until(*endpoint.next_deadline());
    EXPECT_NO_THROW(endpoint.service());
    const auto next = endpoint.next_deadline();
    ASSERT_TRUE(next.has_value());
    EXPECT_GE(*next - before,
              std::chrono::microseconds(static_cast<long>(delay_ms * 1000)));
  }
  EXPECT_FALSE(endpoint.wait_connected(std::chrono::milliseconds(0)));
  EXPECT_EQ(endpoint.local_trunks(), 0);
  EXPECT_EQ(endpoint.reconnects(), 0u);  // Never up, so never dropped.
}

TEST(LocalTrunk, OnlyListenersThatAcceptLoopbackOpenTheLocalName) {
  const auto opens_local_name = [](const std::string& bind_host) {
    NetEndpointOptions options;
    options.bind_host = bind_host;
    NetEndpoint endpoint(options, nullptr, nullptr, nullptr);
    SocketLink link;
    link.dial(endpoint.port());
    return link.open();
  };
  EXPECT_TRUE(opens_local_name(""));
  EXPECT_TRUE(opens_local_name("127.0.0.1"));
  EXPECT_TRUE(opens_local_name("0.0.0.0"));

  // Any other literal: 127.0.0.2 (always bindable on Linux loopback) and
  // this host's interface addresses.
  std::vector<std::string> others{"127.0.0.2"};
  ifaddrs* addrs = nullptr;
  if (getifaddrs(&addrs) == 0) {
    for (const ifaddrs* it = addrs; it != nullptr; it = it->ifa_next) {
      if (it->ifa_addr == nullptr || it->ifa_addr->sa_family != AF_INET) {
        continue;
      }
      char text[INET_ADDRSTRLEN] = {};
      const auto* in = reinterpret_cast<const sockaddr_in*>(it->ifa_addr);
      inet_ntop(AF_INET, &in->sin_addr, text, sizeof(text));
      if (!accepts_loopback(text)) others.emplace_back(text);
    }
    freeifaddrs(addrs);
  }
  int checked = 0;
  for (const std::string& host : others) {
    bool opened = false;
    try {
      opened = opens_local_name(host);
    } catch (const std::runtime_error&) {
      continue;  // Not bindable here.
    }
    EXPECT_FALSE(opened) << host;
    ++checked;
  }
  if (checked == 0) {
    GTEST_SKIP() << "no IPv4 literal other than 127.0.0.1 is bindable here";
  }
}

}  // namespace
}  // namespace bdps
