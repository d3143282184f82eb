// Host-addressing satellite: the transport's bind/dial host knobs.  The
// overlay historically hard-wired 127.0.0.1; NetEndpointOptions::bind_host
// and peer_hosts now aim listeners and trunk dials at explicit IPv4
// literals.  Loopback-only CI can still prove the plumbing: "0.0.0.0"
// binds all interfaces (reachable via 127.0.0.1), explicit "127.0.0.1"
// entries must behave exactly like the empty-host default, and non-literal
// hosts fail loudly (throw on bind/non-blocking dial, false on blocking
// dial) instead of silently reverting to loopback.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/endpoint.h"
#include "net/socket_link.h"

namespace bdps {
namespace {

TEST(HostAddressing, ListenerOnAllInterfacesAcceptsLoopbackDials) {
  TcpListener listener(0, "0.0.0.0");
  ASSERT_GT(listener.port(), 0);
  BlockingConn conn;
  ASSERT_TRUE(conn.dial(listener.port(), "127.0.0.1"));
  // The accept side may need a poll-free beat on a loaded machine.
  int fd = -1;
  for (int i = 0; i < 200 && fd < 0; ++i) {
    fd = listener.accept_connection();
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(fd, 0);
  if (fd >= 0) {
    BlockingConn accepted(fd);
    EXPECT_TRUE(accepted.open());
  }
}

TEST(HostAddressing, ExplicitLoopbackEqualsTheDefault) {
  TcpListener listener(0, "127.0.0.1");
  BlockingConn explicit_host;
  EXPECT_TRUE(explicit_host.dial(listener.port(), "127.0.0.1"));
  BlockingConn default_host;
  EXPECT_TRUE(default_host.dial(listener.port()));
}

TEST(HostAddressing, NonLiteralHostsFailLoudly) {
  EXPECT_THROW(TcpListener(0, "broker-7.example.com"), std::runtime_error);
  EXPECT_THROW(TcpListener(0, "999.0.0.1"), std::runtime_error);
  SocketLink link;
  EXPECT_THROW(link.dial(1, "not-an-address"), std::runtime_error);
  EXPECT_TRUE(link.closed());
  BlockingConn conn;
  EXPECT_FALSE(conn.dial(1, "not-an-address"));
}

TEST(HostAddressing, EndpointsTrunkOverExplicitHosts) {
  // Two shards, both binding all interfaces and dialing each other through
  // explicit per-peer host entries: a forward must arrive and its ack
  // must release the sender's outstanding copy.  The endpoints own no
  // thread; this test is their owner and pumps both.
  int received = 0;
  std::uint64_t acked = 0;
  auto make_options = [](int shard) {
    NetEndpointOptions options;
    options.shard = shard;
    options.shard_count = 2;
    options.bind_host = "0.0.0.0";
    options.peer_hosts = {"127.0.0.1", "127.0.0.1"};
    return options;
  };
  NetEndpoint a(
      make_options(0), [&](BrokerId, Message&&) { ++received; },
      [&](std::uint64_t n) { acked += n; }, nullptr);
  NetEndpoint b(
      make_options(1), [&](BrokerId, Message&&) { ++received; },
      [&](std::uint64_t n) { acked += n; }, nullptr);
  const std::vector<std::uint16_t> ports{a.port(), b.port()};
  a.connect(ports);
  b.connect(ports);
  std::vector<Poller::Event> events;
  const auto pass = [&](NetEndpoint& endpoint) {
    endpoint.poller().wait(std::chrono::milliseconds(1), events);
    for (const Poller::Event& event : events) endpoint.handle(event);
    endpoint.service();
  };
  const auto pump_until = [&](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      pass(a);
      pass(b);
    }
    return done();
  };
  ASSERT_TRUE(pump_until([&] {
    return a.wait_connected(std::chrono::milliseconds(0)) &&
           b.wait_connected(std::chrono::milliseconds(0));
  }));

  const auto message = std::make_shared<const Message>(
      MessageId{1}, PublisherId{0}, 0.0, 50.0,
      std::vector<Attribute>{{"A", Value(1.0)}});
  ASSERT_TRUE(a.forward_remote(1, BrokerId{0}, message));
  EXPECT_TRUE(pump_until([&] { return received >= 1 && acked >= 1; }));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(acked, 1u);
  EXPECT_EQ(a.stop(), 0u);
  EXPECT_EQ(b.stop(), 0u);
  EXPECT_FALSE(a.forward_remote(1, BrokerId{0}, message));
}

}  // namespace
}  // namespace bdps
