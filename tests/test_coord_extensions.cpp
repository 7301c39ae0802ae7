/**
 * @file
 * Tests for the coordination extensions: reliable (ack/retry)
 * registration, the N-island fabric, and DVFS power actuation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coord/channel.hpp"
#include "coord/fabric.hpp"
#include "coord/reliable.hpp"
#include "platform/testbed.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "xen/island.hpp"

using namespace corm::sim;
using namespace corm::coord;

namespace {

class StubIsland : public ResourceIsland
{
  public:
    StubIsland(IslandId island_id, std::string island_name)
        : id_(island_id), name_(std::move(island_name))
    {}

    IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }
    void applyTune(EntityId e, double d) override
    {
        tunes.emplace_back(e, d);
    }
    void applyTrigger(EntityId e) override { triggers.push_back(e); }
    void learnBinding(const EntityBinding &b) override
    {
        bindings.push_back(b);
    }

    std::vector<std::pair<EntityId, double>> tunes;
    std::vector<EntityId> triggers;
    std::vector<EntityBinding> bindings;

  private:
    IslandId id_;
    std::string name_;
};

EntityBinding
binding(IslandId island, EntityId entity)
{
    EntityBinding b;
    b.ref = {island, entity};
    b.ip = corm::net::IpAddr(0x0a000000u + entity);
    b.name = "vm" + std::to_string(entity);
    return b;
}

} // namespace

//
// ReliableAnnouncer
//

TEST(ReliableAnnouncer, LosslessChannelAcksFirstAttempt)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ReliableAnnouncer ann(sim, ch);

    ann.announce(ixp.id(), binding(1, 7));
    EXPECT_EQ(ann.pendingCount(), 1u);
    sim.runFor(1 * msec);
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_EQ(ann.acked(), 1u);
    EXPECT_EQ(ann.retries(), 0u);
    ASSERT_EQ(ixp.bindings.size(), 1u);
    EXPECT_EQ(ixp.bindings[0].ref.entity, 7u);
}

TEST(ReliableAnnouncer, RetriesThroughLossyChannel)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ch.setLossProbability(0.7); // both directions lossy
    ReliableAnnouncer::Params params;
    params.retryTimeout = 1 * msec;
    params.maxAttempts = 64;
    ReliableAnnouncer ann(sim, ch, params);

    for (EntityId e = 1; e <= 8; ++e)
        ann.announce(ixp.id(), binding(1, e));
    sim.runFor(1 * sec);
    EXPECT_EQ(ann.acked(), 8u);
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_GT(ann.retries(), 0u);
    // Every binding eventually landed (possibly more than once —
    // learnBinding is idempotent by contract).
    EXPECT_GE(ixp.bindings.size(), 8u);
}

TEST(ReliableAnnouncer, GivesUpAfterMaxAttempts)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ch.setLossProbability(1.0); // black hole
    ReliableAnnouncer::Params params;
    params.retryTimeout = 1 * msec;
    params.maxAttempts = 5;
    ReliableAnnouncer ann(sim, ch, params);

    ann.announce(ixp.id(), binding(1, 3));
    sim.runFor(1 * sec);
    EXPECT_EQ(ann.abandoned(), 1u);
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_EQ(ann.acked(), 0u);
    EXPECT_EQ(ann.retries(), 4u); // 5 attempts = 4 retries
}

TEST(ReliableAnnouncer, ReAnnouncementSupersedesPending)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ch.setLossProbability(1.0);
    ReliableAnnouncer::Params params;
    params.retryTimeout = 10 * msec;
    params.maxAttempts = 1000;
    ReliableAnnouncer ann(sim, ch, params);

    ann.announce(ixp.id(), binding(1, 3));
    sim.runFor(35 * msec);
    // Updated address arrives; channel heals.
    ch.setLossProbability(0.0);
    auto b2 = binding(1, 3);
    b2.ip = corm::net::IpAddr(10, 0, 0, 99);
    ann.announce(ixp.id(), b2);
    sim.runFor(50 * msec);
    EXPECT_EQ(ann.pendingCount(), 0u);
    ASSERT_GE(ixp.bindings.size(), 1u);
    EXPECT_EQ(ixp.bindings.back().ip, corm::net::IpAddr(10, 0, 0, 99));
}

//
// CoordFabric
//

namespace {

FabricParams
fabricParams(FabricTopology topology, Tick hop_latency, IslandId hub = 0)
{
    FabricParams p;
    p.topology = topology;
    p.hopLatency = hop_latency;
    p.hub = hub;
    return p;
}

} // namespace

TEST(CoordFabric, MeshDeliversInOneHop)
{
    ShardedEngine engine(1, 10 * usec);
    StubIsland a(1, "a"), b(2, "b"), c(3, "c");
    CoordFabric fabric(engine,
                       fabricParams(FabricTopology::mesh, 10 * usec));
    fabric.attach(a);
    fabric.attach(b);
    fabric.attach(c);
    EXPECT_EQ(fabric.islandCount(), 3u);

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = 1;
    m.dst = 3;
    m.entity = 5;
    m.value = 2.0;
    fabric.send(m);
    engine.runFor(9 * usec);
    EXPECT_TRUE(c.tunes.empty());
    engine.runFor(2 * usec);
    ASSERT_EQ(c.tunes.size(), 1u);
    EXPECT_EQ(fabric.stats().hubRelays.value(), 0u);
    EXPECT_NEAR(fabric.stats().deliveryLatencyUs.mean(), 10.0, 0.5);
}

TEST(CoordFabric, StarRelaysThroughHubInTwoHops)
{
    ShardedEngine engine(1, 10 * usec);
    StubIsland hub(1, "hub"), b(2, "b"), c(3, "c");
    CoordFabric fabric(engine, fabricParams(FabricTopology::star,
                                            10 * usec, /*hub=*/1));
    fabric.attach(hub);
    fabric.attach(b);
    fabric.attach(c);

    CoordMessage m;
    m.type = MsgType::trigger;
    m.src = 2;
    m.dst = 3;
    m.entity = 1;
    fabric.send(m);
    engine.runFor(15 * usec);
    EXPECT_TRUE(c.triggers.empty()); // two hops = 20 us
    engine.runFor(10 * usec);
    EXPECT_EQ(c.triggers.size(), 1u);
    EXPECT_EQ(fabric.stats().hubRelays.value(), 1u);

    // Hub-adjacent traffic is one hop.
    CoordMessage to_hub = m;
    to_hub.dst = 1;
    fabric.send(to_hub);
    engine.runFor(11 * usec);
    EXPECT_EQ(hub.triggers.size(), 1u);
}

TEST(CoordFabric, RegistrationsAreAcked)
{
    ShardedEngine engine(1, 5 * usec);
    StubIsland a(1, "a"), b(2, "b");
    CoordFabric fabric(engine,
                       fabricParams(FabricTopology::mesh, 5 * usec));
    fabric.attach(a);
    fabric.attach(b);
    int acks = 0;
    fabric.setAckObserver(1, [&](const CoordMessage &m) {
        ++acks;
        EXPECT_EQ(m.src, 2);
        EXPECT_EQ(m.entity, 9u);
    });

    CoordMessage m;
    m.type = MsgType::registerEntity;
    m.src = 1;
    m.dst = 2;
    m.entity = 9;
    m.value = std::bit_cast<double>(
        static_cast<std::uint64_t>(corm::net::IpAddr(10, 1, 1, 1).v));
    fabric.send(m);
    engine.runFor(1 * msec);
    EXPECT_EQ(b.bindings.size(), 1u);
    EXPECT_EQ(acks, 1);
}

TEST(CoordFabric, UnknownDestinationDropped)
{
    ShardedEngine engine(1, 5 * usec);
    StubIsland a(1, "a");
    CoordFabric fabric(engine,
                       fabricParams(FabricTopology::mesh, 5 * usec));
    fabric.attach(a);
    CoordMessage m;
    m.type = MsgType::tune;
    m.src = 1;
    m.dst = 9;
    fabric.send(m);
    engine.runFor(1 * msec);
    EXPECT_EQ(fabric.stats().dropped.value(), 1u);
    EXPECT_EQ(fabric.stats().delivered.value(), 0u);
}

//
// DVFS
//

TEST(Dvfs, HalfSpeedDoublesJobWallTime)
{
    Simulator sim;
    corm::xen::CreditScheduler sched(sim, 1);
    corm::xen::Domain dom(sched, 1, "d", 256);
    sched.setPcpuSpeed(0, 0.5);
    Tick done_at = 0;
    dom.submit(10 * msec, corm::xen::JobKind::user,
               [&] { done_at = sim.now(); });
    sim.runFor(100 * msec);
    EXPECT_NEAR(toMillis(done_at), 20.0, 0.1);
}

TEST(Dvfs, MidJobSpeedChangeReplansSegment)
{
    Simulator sim;
    corm::xen::CreditScheduler sched(sim, 1);
    corm::xen::Domain dom(sched, 1, "d", 256);
    Tick done_at = 0;
    dom.submit(10 * msec, corm::xen::JobKind::user,
               [&] { done_at = sim.now(); });
    // Half way through, halve the frequency: 5 ms done, 5 ms of work
    // left takes 10 ms more.
    sim.runFor(5 * msec);
    sched.setPcpuSpeed(0, 0.5);
    sim.runFor(100 * msec);
    EXPECT_NEAR(toMillis(done_at), 15.0, 0.2);
    EXPECT_DOUBLE_EQ(sched.pcpuSpeed(0), 0.5);
}

TEST(Dvfs, SharesStayProportionalUnderScaling)
{
    Simulator sim;
    corm::xen::SchedParams params;
    corm::xen::CreditScheduler sched(sim, 1, params);
    corm::xen::Domain a(sched, 1, "a", 512);
    corm::xen::Domain b(sched, 2, "b", 256);
    std::function<void(corm::xen::Domain &)> pump =
        [&pump](corm::xen::Domain &d) {
            d.submit(2 * msec, corm::xen::JobKind::user,
                     [&pump, &d] { pump(d); });
        };
    pump(a);
    pump(b);
    sched.setPcpuSpeed(0, 0.5);
    sim.runFor(6 * sec);
    using K = UtilizationTracker::Kind;
    const double sa = toSeconds(a.cpuUsage().busy(K::user));
    const double sb = toSeconds(b.cpuUsage().busy(K::user));
    // Wall-clock shares still follow weights at reduced frequency.
    EXPECT_NEAR(sa / (sa + sb), 2.0 / 3.0, 0.07);
    EXPECT_NEAR(sa + sb, 6.0, 0.1); // still work-conserving wall time
}

TEST(Dvfs, IslandLevelScalingCutsPower)
{
    Simulator sim;
    corm::xen::CreditScheduler sched(sim, 2);
    corm::xen::XenIsland island(sim, 1, "x86", sched);
    corm::xen::Domain dom(sched, 1, "d", 256);
    std::function<void()> pump = [&] {
        dom.submit(2 * msec, corm::xen::JobKind::user, pump);
    };
    pump();
    (void)island.currentPowerWatts();
    sim.runFor(1 * sec);
    const double full = island.currentPowerWatts();
    island.setDvfsLevel(0.5);
    EXPECT_DOUBLE_EQ(island.currentDvfsLevel(), 0.5);
    sim.runFor(1 * sec);
    const double scaled = island.currentPowerWatts();
    // Busy fraction stays ~1 core but speed^3 slashes active power.
    EXPECT_LT(scaled, full * 0.75);
    EXPECT_GT(scaled, 0.0);
}
