/**
 * @file
 * Dynamic-fabric churn tests: runtime island join/leave, hub crash
 * with delayed re-parenting, hop counts that track the topology
 * through churn, live entity migration with dedup-stable
 * forwarding, retry-timer cancellation for departed destinations,
 * shared ack-observer endpoints, and the watchdog -> re-parent policy
 * loop (stall fires across a hub outage, then recovers; cleanly
 * departed lanes never false-alarm). Churn runs between engine runs
 * or from the barrier probe, as in runFabricScenario.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coord/fabric.hpp"
#include "coord/reliable.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "route_oracle.hpp"
#include "sim/sharded.hpp"

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

    double
    tuneSum(EntityId e) const
    {
        double s = 0.0;
        for (const auto &[entity, delta] : tunes)
            if (entity == e)
                s += delta;
        return s;
    }

    std::vector<std::pair<EntityId, double>> tunes;
    std::vector<EntityId> triggers;
    std::vector<EntityBinding> bindings;

  private:
    IslandId id_;
    std::string name_;
};

/**
 * Islands 1..n on one fabric over a 1-shard engine. Queued abandons
 * reach the observer at every window barrier and after every run;
 * @p onBarrier (optional) runs at each barrier after that.
 */
struct Rig
{
    ShardedEngine engine;
    Simulator &sim;
    std::vector<std::unique_ptr<StubIsland>> islands;
    std::unique_ptr<CoordFabric> fabric;
    std::function<void(Tick)> onBarrier;

    Rig(const FabricParams &p, int n)
        : engine(1, p.hopLatency), sim(engine.sim(0))
    {
        fabric = std::make_unique<CoordFabric>(engine, p);
        for (int i = 1; i <= n; ++i) {
            islands.push_back(std::make_unique<StubIsland>(
                static_cast<IslandId>(i),
                "isl" + std::to_string(i)));
            fabric->attach(*islands.back());
        }
        engine.setProbe([this](Tick now) {
            fabric->drainAbandoned();
            if (onBarrier)
                onBarrier(now);
            return false;
        });
    }

    void
    runUntil(Tick t)
    {
        engine.runUntil(t);
        fabric->drainAbandoned();
    }

    void runFor(Tick d) { runUntil(engine.now() + d); }
    StubIsland &at(int id) { return *islands[id - 1]; }
};

/** A 7-island fanout-2 tree: 1 <- {2,3}, 2 <- {4,5}, 3 <- {6,7}. */
struct TreeRig : Rig
{
    explicit TreeRig(FabricParams p, int n = 7)
        : Rig(treeParams(p), n)
    {}

    static FabricParams
    treeParams(FabricParams p)
    {
        p.topology = FabricTopology::tree;
        p.hub = 1;
        p.treeFanout = 2;
        return p;
    }
};

/**
 * Per-lane stall watchdogs wired the way runFabricScenario wires
 * them: the fabric logs lane activity, and each barrier replays it
 * into the monitor, which samples at its own cadence. A no-op
 * heartbeat keeps windows (so barriers) coming while the fabric is
 * idle.
 */
struct LaneWatch
{
    CoordFabric &fabric;
    corm::obs::HealthMonitor &mon;
    Tick period;
    corm::sim::PeriodicEvent heartbeat;
    std::map<std::uint64_t, int> lanes; ///< lane id -> monitor lane
    Tick nextSample;
    Tick now = 0; ///< the barrier being processed

    LaneWatch(Rig &rig, corm::obs::HealthMonitor &monitor, Tick sample)
        : fabric(*rig.fabric), mon(monitor), period(sample),
          heartbeat(rig.sim, sample, [] {}), nextSample(sample)
    {
        fabric.setLaneActivityRecording(true);
        wire();
        rig.onBarrier = [this](Tick t) { barrier(t); };
    }

    /** Register new lanes; retire those that left with an island. */
    void
    wire()
    {
        std::vector<std::string> live;
        fabric.forEachLaneId(
            [&](const std::string &name, std::uint64_t id) {
                if (!lanes.count(id))
                    lanes[id] = mon.lane(name);
                live.push_back(name);
            });
        mon.retireLanesExcept(live);
    }

    void
    barrier(Tick t)
    {
        now = t;
        fabric.drainLaneActivity(
            [&](const CoordFabric::LaneEvent &e) {
                if (e.delivered)
                    mon.laneDeliveredAt(lanes.at(e.lane), e.when);
                else
                    mon.laneSentAt(lanes.at(e.lane), e.when);
            });
        if (t >= nextSample) {
            mon.poll(t);
            nextSample = t + period;
        }
    }
};

CoordMessage
tune(IslandId src, IslandId dst, EntityId e, double v)
{
    CoordMessage m;
    m.type = MsgType::tune;
    m.src = src;
    m.dst = dst;
    m.entity = e;
    m.value = v;
    return m;
}

CoordMessage
trigger(IslandId src, IslandId dst, EntityId e)
{
    CoordMessage m;
    m.type = MsgType::trigger;
    m.src = src;
    m.dst = dst;
    m.entity = e;
    return m;
}

} // namespace

TEST(CoordChurnLeave, LeaveWithOpenAggregationWindowsLosesNoDelta)
{
    // A graceful leave must settle every open aggregation bucket:
    // buckets the departing hub OWNS flush onward (deltas still
    // apply), buckets elsewhere DESTINED to it flush into attributed
    // abandons — applied + abandoned == sent, exactly.
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 500 * usec;
    TreeRig rig(p);
    std::vector<CoordMessage> abandoned;
    rig.fabric->setAbandonObserver(
        [&](const CoordMessage &m) { abandoned.push_back(m); });

    // Opens a bucket at the root, whose flush at 500us re-buckets at
    // island 2 (destined to leaf 4) until that bucket's own flush at
    // ~1010us — the leave at 700us lands inside it.
    rig.fabric->send(tune(1, 4, 7, 3.0));
    // Second bucket at the root destined to island 2 itself, still
    // open (flush due 1100us) when 2 departs.
    rig.sim.scheduleAt(600 * usec,
                       [&] { rig.fabric->send(tune(1, 2, 9, 7.0)); });
    rig.runUntil(700 * usec);
    rig.fabric->leave(2);
    rig.runUntil(5 * msec);

    EXPECT_FALSE(rig.fabric->attached(2));
    // The bucket island 2 owned flushed before departure: the delta
    // reached leaf 4 despite the leave mid-window.
    EXPECT_EQ(rig.at(4).tuneSum(7), 3.0);
    // The bucket destined to island 2 flushed into the void and was
    // attributed, not silently dropped.
    ASSERT_EQ(abandoned.size(), 1u);
    EXPECT_EQ(abandoned[0].entity, 9u);
    EXPECT_EQ(abandoned[0].value, 7.0);
    EXPECT_GE(rig.fabric->stats().dropped.value(), 1u);
    // Graceful leave re-binds the orphans immediately (no detection
    // window): 4 and 5 hang off the root now, and tunes route there.
    EXPECT_EQ(rig.fabric->parentOf(4), 1);
    EXPECT_EQ(rig.fabric->parentOf(5), 1);
    EXPECT_EQ(rig.fabric->churnCounters().leaves, 1u);
    EXPECT_EQ(rig.fabric->churnCounters().reparents, 2u);
    rig.fabric->send(tune(1, 5, 8, 2.0));
    rig.runFor(2 * msec);
    EXPECT_EQ(rig.at(5).tuneSum(8), 2.0);
}

TEST(CoordChurnRoutes, HopCountsTrackTheTopologyThroughChurn)
{
    // Sparse ids and a hub that is not the lowest id. After the
    // build and after every join, leave, crash and re-parent, routes
    // computed from the live topology must give the topology's own
    // distance for every pair of connected members, and the links
    // that survive must be exactly those a rebuild of the live
    // topology would wire (a departure retires only its own links);
    // while a crashed hub's orphans await re-parenting, a tune to one
    // is an unroutable drop that reaches the abandon observer.
    using corm::coord::testing::expectLinksMatchRebuild;
    using corm::coord::testing::expectRoutesMatchTopology;
    using corm::coord::testing::pathToRoot;
    const std::vector<IslandId> ids = {3, 7, 12, 20, 21, 40, 41, 55, 90, 200};
    const IslandId hub = 40, joiner = 150;
    struct Case
    {
        FabricTopology topology;
        int fanout;
    };
    for (const Case c : {Case{FabricTopology::mesh, 4},
                         Case{FabricTopology::star, 4},
                         Case{FabricTopology::tree, 1},
                         Case{FabricTopology::tree, 2},
                         Case{FabricTopology::tree, 4}}) {
        SCOPED_TRACE(std::string(fabricTopologyName(c.topology))
                     + " fanout " + std::to_string(c.fanout));
        FabricParams p;
        p.topology = c.topology;
        p.treeFanout = c.fanout;
        p.hub = hub;
        p.hopLatency = 10 * usec;
        ShardedEngine engine(1, p.hopLatency);
        CoordFabric fabric(engine, p);
        std::vector<CoordMessage> abandoned;
        fabric.setAbandonObserver(
            [&](const CoordMessage &m) { abandoned.push_back(m); });
        std::vector<std::unique_ptr<StubIsland>> islands;
        for (IslandId id : ids) {
            islands.push_back(std::make_unique<StubIsland>(
                id, "isl" + std::to_string(id)));
            fabric.attach(*islands.back());
        }
        std::vector<IslandId> live = ids;
        const auto depart = [&](IslandId id) {
            live.erase(std::find(live.begin(), live.end(), id));
        };
        // Live non-hub members with children, ascending (tree only).
        const auto interior = [&] {
            std::vector<IslandId> out;
            for (IslandId x : live)
                for (IslandId y : live)
                    if (x != hub && y != x && fabric.parentOf(y) == x) {
                        out.push_back(x);
                        break;
                    }
            std::sort(out.begin(), out.end());
            return out;
        };
        expectRoutesMatchTopology(fabric, hub, live);
        expectLinksMatchRebuild(fabric, hub, live);

        StubIsland late(joiner, "late");
        fabric.join(late);
        live.push_back(joiner);
        expectRoutesMatchTopology(fabric, hub, live);
        expectLinksMatchRebuild(fabric, hub, live);

        // Leave the first interior node: its children re-bind at once.
        const bool tree = c.topology == FabricTopology::tree;
        const IslandId leaver = tree ? interior().front() : 3;
        fabric.leave(leaver);
        depart(leaver);
        expectRoutesMatchTopology(fabric, hub, live);
        expectLinksMatchRebuild(fabric, hub, live);

        // Crash the last interior node: its children are orphaned
        // until the re-parent.
        const IslandId crashed = tree ? interior().back() : 200;
        std::vector<IslandId> orphans;
        for (IslandId y : live)
            if (y != crashed && fabric.parentOf(y) == crashed)
                orphans.push_back(y);
        fabric.crash(crashed);
        depart(crashed);
        EXPECT_EQ(fabric.pendingReparentCount(), orphans.size());
        EXPECT_EQ(orphans.empty(), !tree);
        std::vector<IslandId> connected;
        for (IslandId x : live)
            if (!tree || pathToRoot(fabric, x).back() == hub)
                connected.push_back(x);
        EXPECT_EQ(connected.size(), live.size() - orphans.size());
        expectRoutesMatchTopology(fabric, hub, connected);
        expectLinksMatchRebuild(fabric, hub, live);
        for (IslandId orphan : orphans) {
            const std::uint64_t dropped = fabric.stats().dropped.value();
            fabric.send(tune(hub, orphan, 9, 1.5));
            fabric.drainAbandoned();
            EXPECT_EQ(fabric.stats().dropped.value(), dropped + 1);
            ASSERT_FALSE(abandoned.empty());
            EXPECT_EQ(abandoned.back().dst, orphan);
            EXPECT_EQ(abandoned.back().value, 1.5);
        }
        EXPECT_EQ(abandoned.size(), orphans.size());

        fabric.reparentNow(0);
        EXPECT_EQ(fabric.pendingReparentCount(), 0u);
        expectRoutesMatchTopology(fabric, hub, live);
        expectLinksMatchRebuild(fabric, hub, live);
        engine.runFor(1 * msec);
        EXPECT_EQ(fabric.stats().wireMessages.value(), 0u);
    }
}

TEST(CoordChurnCrash, UnackedInFlightTunesRedrivenExactlyOnceAcrossReparent)
{
    // Hub 2 crashes while (a) a sequenced tune it relayed has been
    // applied at leaf 4 but the ack is still in flight back through
    // it, and (b) a second tune is in flight toward it. The sender's
    // retry timers re-drive both under the post-re-parent route; the
    // route-independent dedup key re-acks (a) without re-applying,
    // and (b) applies exactly once.
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.reparentDelay = 2 * msec;
    TreeRig rig(p);
    ReliableSender snd(rig.sim, *rig.fabric, 1);

    rig.fabric->send(tune(1, 2, 0, 0.0)); // force the initial build
    snd.send(tune(1, 4, 7, 5.0));         // applied at 20us, ack at 40us
    rig.sim.scheduleAt(20 * usec,
                       [&] { snd.send(tune(1, 5, 8, 6.0)); });
    // Crash at 25us: tune (a)'s ack is between 4 and 2, tune (b) is
    // between 1 and 2. Both die with the node.
    rig.runUntil(25 * usec);
    rig.fabric->crash(2);
    // Orphans 4 and 5 queue for re-parenting; complete them once the
    // detection window has elapsed.
    rig.runUntil(3 * msec);
    rig.fabric->churnTick(3 * msec);
    rig.runUntil(50 * msec);

    EXPECT_EQ(rig.fabric->churnCounters().crashes, 1u);
    EXPECT_EQ(rig.fabric->churnCounters().reparents, 2u);
    EXPECT_EQ(rig.fabric->parentOf(4), 1);
    EXPECT_EQ(rig.fabric->parentOf(5), 1);
    // Exactly-once: the re-driven copy of (a) deduplicated (the key
    // survives the route change), (b) applied once.
    ASSERT_EQ(rig.at(4).tunes.size(), 1u);
    EXPECT_EQ(rig.at(4).tuneSum(7), 5.0);
    ASSERT_EQ(rig.at(5).tunes.size(), 1u);
    EXPECT_EQ(rig.at(5).tuneSum(8), 6.0);
    EXPECT_EQ(snd.acked(), 2u);
    EXPECT_EQ(snd.pendingCount(), 0u);
    EXPECT_GE(rig.fabric->stats().duplicates.value(), 1u);
}

TEST(CoordChurnMigrate, MigrationDuringBurstOutageForwardsReplayedDelta)
{
    // A tune eaten by a burst outage is still being replayed when its
    // destination entity migrates; the late replay delivers at the
    // old home and forwards to the new one — applied exactly once,
    // at the right island.
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.replayTimeout = 500 * usec;
    p.replayBackoff = 2.0;
    p.faults.outages.push_back({0, 600 * usec});

    Rig rig(p, 3);
    CoordFabric &fabric = *rig.fabric;

    fabric.send(tune(1, 2, 7, 5.5)); // eaten at t=0, replay pending
    rig.runUntil(300 * usec);
    fabric.migrateEntity(2, 3, 7);
    rig.runUntil(10 * msec);

    EXPECT_EQ(fabric.churnCounters().migrations, 1u);
    EXPECT_EQ(fabric.currentHome(2, 7), 3);
    EXPECT_EQ(rig.at(2).tuneSum(7), 0.0);
    EXPECT_EQ(rig.at(3).tuneSum(7), 5.5);
    ASSERT_EQ(rig.at(3).tunes.size(), 1u);
    EXPECT_GE(fabric.stats().migForwards.value(), 1u);
    EXPECT_EQ(fabric.stats().abandoned.value(), 0u);
}

TEST(CoordChurnMigrate, SequencedRetryAfterMigrationReacksWithoutReapply)
{
    // A reliable tune applies at its home, the entity migrates before
    // the ack lands, and a duplicate wire copy arrives at the old
    // home: the dedup window there answers it (lookup-only, re-ack)
    // instead of forwarding a second apply to the new home.
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.faults.dupProb = 1.0; // every wire message is duplicated

    Rig rig(p, 3);
    CoordFabric &fabric = *rig.fabric;
    ReliableSender snd(rig.sim, fabric, 1);

    snd.send(tune(1, 2, 7, 4.0));
    rig.runUntil(15 * usec);
    fabric.migrateEntity(2, 3, 7);
    rig.runUntil(20 * msec);

    // Applied exactly once, at the pre-migration home (it landed
    // before the map flipped); nothing leaked to the new home.
    ASSERT_EQ(rig.at(2).tunes.size(), 1u);
    EXPECT_EQ(rig.at(2).tuneSum(7), 4.0);
    EXPECT_TRUE(rig.at(3).tunes.empty());
    EXPECT_EQ(snd.acked(), 1u);
    EXPECT_EQ(snd.pendingCount(), 0u);
    EXPECT_GE(fabric.stats().duplicates.value(), 1u);
}

TEST(CoordChurnJoin, JoinDuringPolicyEpochLearnsBindingsAndRoutes)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    TreeRig rig(p, 3); // 1 <- {2,3}; island 4 joins later
    ReliableAnnouncer ann(rig.sim, *rig.fabric);

    rig.fabric->send(tune(1, 2, 5, 1.0)); // epoch traffic + build
    rig.runFor(1 * msec);
    const std::uint64_t epochBefore = rig.fabric->routeEpoch();

    auto joiner = std::make_unique<StubIsland>(4, "isl4");
    rig.fabric->join(*joiner);
    EXPECT_TRUE(rig.fabric->attached(4));
    EXPECT_EQ(rig.fabric->churnCounters().joins, 1u);
    EXPECT_GT(rig.fabric->routeEpoch(), epochBefore);
    // Fanout 2 with {2,3} under the root: BFS places 4 under 2.
    EXPECT_EQ(rig.fabric->parentOf(4), 2);

    // Mid-epoch announcement reaches the joiner over the fresh route,
    // and tunes apply there.
    EntityBinding b;
    b.ref = EntityRef{1, 42};
    b.ip = corm::net::IpAddr(10, 0, 0, 9);
    ann.announce(4, b);
    rig.fabric->send(tune(1, 4, 6, 2.5));
    rig.runFor(20 * msec);

    ASSERT_EQ(joiner->bindings.size(), 1u);
    EXPECT_EQ(joiner->bindings[0].ip, corm::net::IpAddr(10, 0, 0, 9));
    EXPECT_EQ(joiner->tuneSum(6), 2.5);
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_EQ(ann.abandoned(), 0u);
}

TEST(CoordChurnJoin, RejoinAfterLeaveRevivesRoutesOverTheSamePair)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    TreeRig rig(p, 3);
    std::vector<CoordMessage> abandoned;
    rig.fabric->setAbandonObserver(
        [&](const CoordMessage &m) { abandoned.push_back(m); });

    rig.fabric->send(tune(1, 3, 7, 1.0));
    rig.runFor(1 * msec);
    rig.fabric->leave(3);
    rig.fabric->send(tune(1, 3, 7, 9.0)); // unroutable: attributed
    rig.runFor(1 * msec);
    EXPECT_EQ(abandoned.size(), 1u);

    rig.fabric->join(rig.at(3)); // same island object, same id
    EXPECT_TRUE(rig.fabric->attached(3));
    rig.fabric->send(tune(1, 3, 7, 4.0));
    rig.runFor(2 * msec);

    // 1.0 before the leave + 4.0 after the rejoin; the attributed 9.0
    // stayed abandoned (exactly-once-or-abandoned, never replayed).
    EXPECT_EQ(rig.at(3).tuneSum(7), 5.0);
    EXPECT_EQ(abandoned.size(), 1u);
    EXPECT_EQ(rig.fabric->churnCounters().joins, 1u);
    EXPECT_EQ(rig.fabric->churnCounters().leaves, 1u);
}

TEST(CoordChurnReparent, FallbackParentThatItselfCrashedFallsBackToRoot)
{
    // Orphans of a crashed hub are bound for the configured fallback
    // parent — which crashes before the re-parent completes. The
    // re-bind must detect the dead fallback and climb to the root
    // instead of wiring children under a corpse.
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.reparentDelay = 2 * msec;
    p.fallbackParent = 3;
    TreeRig rig(p);

    rig.fabric->send(tune(1, 2, 0, 0.0)); // force the initial build
    EXPECT_EQ(rig.fabric->pendingReparentCount(), 0u);
    rig.runUntil(100 * usec);
    rig.fabric->crash(2);
    rig.runUntil(200 * usec);
    rig.fabric->crash(3);
    rig.runUntil(1 * msec);
    // 4,5 orphaned by 2 (fallback 3), 6,7 orphaned by 3 (fallback
    // would be 3 itself, so its own parent: the root).
    EXPECT_EQ(rig.fabric->pendingReparentCount(), 4u);
    rig.fabric->churnTick(rig.sim.now()); // 2ms not yet elapsed
    EXPECT_EQ(rig.fabric->pendingReparentCount(), 4u);

    rig.runFor(2 * msec);
    rig.fabric->churnTick(rig.sim.now());
    EXPECT_EQ(rig.fabric->pendingReparentCount(), 0u);
    EXPECT_EQ(rig.fabric->churnCounters().reparents, 4u);
    for (int leaf : {4, 5, 6, 7})
        EXPECT_EQ(rig.fabric->parentOf(static_cast<IslandId>(leaf)), 1)
            << "leaf " << leaf;

    rig.fabric->send(tune(1, 4, 7, 2.0));
    rig.fabric->send(tune(1, 6, 7, 3.0));
    rig.runFor(2 * msec);
    EXPECT_EQ(rig.at(4).tuneSum(7), 2.0);
    EXPECT_EQ(rig.at(6).tuneSum(7), 3.0);
}

TEST(CoordChurnReliable, AbandonDestinationCancelsRetryTimersWithNote)
{
    // Regression: pending sends toward a departed destination must be
    // finished through finish() — timers cancelled, outcome reported,
    // abandon note emitted — not left to burn retries into the void.
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.faults.lossProb = 1.0; // nothing ever arrives
    p.replayAttempts = 0;    // retries come from the sender only

    Rig rig(p, 3);
    CoordFabric &fabric = *rig.fabric;
    ReliableSender::Params rp;
    rp.retryTimeout = 5 * msec;
    rp.maxAttempts = 8;
    ReliableSender snd(rig.sim, fabric, 1, rp);
    std::vector<CoordMessage> noted;
    snd.setAbandonObserver(
        [&](const CoordMessage &m) { noted.push_back(m); });
    int outcomes = 0;
    const auto done = [&](ReliableSender::Outcome o,
                          const CoordMessage &) {
        EXPECT_EQ(o, ReliableSender::Outcome::abandoned);
        ++outcomes;
    };
    snd.send(trigger(1, 2, 7), done);
    snd.send(trigger(1, 2, 8), done);
    snd.send(trigger(1, 3, 9)); // different destination: survives
    rig.runFor(1 * msec);
    ASSERT_EQ(snd.pendingCount(), 3u);

    EXPECT_EQ(snd.abandonDestination(2), 2u);
    EXPECT_EQ(snd.pendingCount(), 1u); // island 3's send untouched
    EXPECT_EQ(snd.abandoned(), 2u);
    EXPECT_EQ(outcomes, 2);
    ASSERT_EQ(noted.size(), 2u);
    EXPECT_EQ(noted[0].dst, 2);
    EXPECT_EQ(noted[1].dst, 2);

    // The cancelled timers are really gone: no retransmission toward
    // island 2 ever fires again (only island 3's retries remain, and
    // its capped backoff exhausts all 8 attempts within ~235ms).
    const std::uint64_t wireAfter = fabric.stats().wireMessages.value();
    rig.runFor(400 * msec);
    EXPECT_EQ(snd.pendingCount(), 0u); // 3's send exhausted naturally
    EXPECT_EQ(snd.abandoned(), 3u);
    const std::uint64_t wireDelta =
        fabric.stats().wireMessages.value() - wireAfter;
    EXPECT_LE(wireDelta, 7u); // island 3 retries only, no 2-bound ones

    // The announcer exposes the same hook for its supersede slots.
    ReliableAnnouncer ann(rig.sim, fabric);
    EntityBinding eb;
    eb.ref = EntityRef{1, 42};
    ann.announce(2, eb);
    rig.runFor(1 * msec);
    EXPECT_EQ(ann.pendingCount(), 1u);
    EXPECT_EQ(ann.abandonDestination(2), 1u);
    EXPECT_EQ(ann.pendingCount(), 0u);
}

TEST(CoordChurnReliable, MultipleSendersShareOneEndpointsAcks)
{
    // Token ack observers: an announcer living the whole run plus a
    // trigger sender, both homed at the root, must each see their own
    // acks — the single setAckObserver slot used to clobber.
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;

    Rig rig(p, 3);
    CoordFabric &fabric = *rig.fabric;

    auto s1 = std::make_unique<ReliableSender>(rig.sim, fabric, 1);
    auto s2 = std::make_unique<ReliableSender>(rig.sim, fabric, 1);
    s1->send(trigger(1, 2, 7));
    s2->send(trigger(1, 3, 8));
    rig.runFor(5 * msec);
    EXPECT_EQ(s1->acked(), 1u);
    EXPECT_EQ(s2->acked(), 1u);
    EXPECT_EQ(s1->pendingCount(), 0u);
    EXPECT_EQ(s2->pendingCount(), 0u);

    // Unregistration is per-token: destroying one sender must not
    // deafen the other.
    s2.reset();
    s1->send(trigger(1, 2, 9));
    rig.runFor(5 * msec);
    EXPECT_EQ(s1->acked(), 2u);
    EXPECT_EQ(s1->pendingCount(), 0u);
}

TEST(CoordChurnMonitor, CleanLeaveRetiresLanesWithoutSpuriousStall)
{
    // A lane with a send outstanding when its island departs cleanly
    // must deactivate silently: the traffic will never resume, and a
    // stall breach would cry wolf on every graceful departure.
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.name = "fab";
    p.faults.lossProb = 1.0; // sends enter the lane, never deliver
    p.replayAttempts = 0;    // no replay traffic to revive the lane

    Rig rig(p, 3);
    CoordFabric &fabric = *rig.fabric;

    corm::obs::MetricRegistry reg;
    corm::obs::HealthMonitor::Params mp;
    mp.samplePeriod = 1 * msec;
    mp.stallTimeout = 5 * msec;
    corm::obs::HealthMonitor mon(rig.sim, reg, mp);
    LaneWatch watch(rig, mon, mp.samplePeriod);

    fabric.send(tune(1, 3, 7, 1.0)); // eaten: lane 1-3 now unanswered
    rig.runUntil(1 * msec);
    fabric.leave(3);
    watch.wire(); // lanes to 3 are gone from the live set: retire
    rig.runUntil(50 * msec);

    EXPECT_EQ(mon.breaches(), 0u) << mon.healthReport();
    for (const auto &ev : mon.events())
        EXPECT_NE(ev.kind, corm::obs::HealthEvent::Kind::stall)
            << ev.str();
}

TEST(CoordChurnMonitor, StallAcrossHubOutageDrivesReparentAndRecovers)
{
    // The PR-4 shape, closed into a loop: a burst outage silences the
    // relay hub, the lane-stall watchdog fires, the policy hook
    // declares the hub dead — crash + immediate re-parent + lane
    // retirement (which emits the balancing stallRecover) — and the
    // reliable sender's retries land over the new route, exactly once.
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.name = "fab";
    p.replayAttempts = 0; // the reliable layer owns recovery here
    p.reparentDelay = 50 * msec; // the watchdog should beat this
    p.faults.outages.push_back({200 * usec, 40 * msec});
    TreeRig rig(p, 5); // 1 <- {2,3}, 2 <- {4,5}

    corm::obs::MetricRegistry reg;
    corm::obs::HealthMonitor::Params mp;
    mp.samplePeriod = 1 * msec;
    mp.stallTimeout = 5 * msec;
    corm::obs::HealthMonitor mon(rig.sim, reg, mp);
    LaneWatch watch(rig, mon, mp.samplePeriod);
    bool reparented = false;
    // Runs inside the monitor's poll, at a window barrier.
    mon.setPolicyCallback([&](const corm::obs::HealthEvent &ev) {
        if (ev.kind != corm::obs::HealthEvent::Kind::stall
            || reparented)
            return;
        reparented = true; // the watchdog says hub 2 is dead
        rig.fabric->crash(2, watch.now);
        rig.fabric->reparentNow(watch.now);
        watch.wire();
    });

    ReliableSender::Params rp;
    rp.retryTimeout = 5 * msec;
    rp.maxAttempts = 12;
    ReliableSender snd(rig.sim, *rig.fabric, 1, rp);
    // First send pre-outage so the route is warm; the payload send at
    // 300us dives straight into the outage and stalls lane 1-2.
    rig.fabric->send(tune(1, 2, 0, 0.0));
    rig.sim.scheduleAt(300 * usec,
                       [&] { snd.send(tune(1, 4, 7, 5.0)); });
    rig.runFor(200 * msec);

    EXPECT_TRUE(reparented);
    EXPECT_EQ(rig.fabric->churnCounters().crashes, 1u);
    EXPECT_EQ(rig.fabric->churnCounters().reparents, 2u);
    EXPECT_EQ(rig.fabric->parentOf(4), 1);
    // Exactly-once across the watchdog-driven re-parent.
    ASSERT_EQ(rig.at(4).tunes.size(), 1u);
    EXPECT_EQ(rig.at(4).tuneSum(7), 5.0);
    EXPECT_EQ(snd.acked(), 1u);
    EXPECT_EQ(snd.pendingCount(), 0u);
    // The event stream is balanced: every stall has its recover
    // (lane retirement emits the balancing edge for dead lanes).
    std::uint64_t stalls = 0, recovers = 0;
    for (const auto &ev : mon.events()) {
        if (ev.kind == corm::obs::HealthEvent::Kind::stall)
            ++stalls;
        if (ev.kind == corm::obs::HealthEvent::Kind::stallRecover)
            ++recovers;
    }
    EXPECT_GE(stalls, 1u);
    EXPECT_EQ(stalls, recovers) << mon.healthReport();
}
