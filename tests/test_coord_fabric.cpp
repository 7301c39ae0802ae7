/**
 * @file
 * Tests for the scale-out coordination fabric: tree routing and
 * hub-relay accounting, aggregation-window edge cases, link replay
 * and abandonment, multi-hop trace spans, the reliable announcer
 * across relay hops, and the fabric report (including the
 * unroutable-dropped line the two-island report never surfaced).
 * One case per topology also runs on a 2-shard engine and must
 * match the 1-shard outcome, so the direct API is exercised across
 * threads (and under the TSan/ASan twins).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "coord/fabric.hpp"
#include "coord/reliable.hpp"
#include "obs/trace.hpp"
#include "obs/tracecheck.hpp"
#include "platform/report.hpp"
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
 * Islands 1..n on one fabric, run by an engine of @p shards shards.
 * Island i lives on shard (i - 1) * shards / n, so island 1 (the
 * hub, and the home of every reliable sender here) is on shard 0.
 * Queued abandons reach the observer at every window barrier and
 * after every run.
 */
struct Rig
{
    ShardedEngine engine;
    Simulator &sim; ///< shard 0: island 1's events
    std::vector<std::unique_ptr<StubIsland>> islands;
    std::unique_ptr<CoordFabric> fabric;

    Rig(const FabricParams &p, int n, int shards = 1)
        : engine(shards, p.hopLatency), sim(engine.sim(0))
    {
        std::vector<int> shardOf(static_cast<std::size_t>(n) + 1, 0);
        for (int i = 1; i <= n; ++i)
            shardOf[static_cast<std::size_t>(i)] = (i - 1) * shards / n;
        fabric = std::make_unique<CoordFabric>(engine, p, shardOf);
        for (int i = 1; i <= n; ++i) {
            islands.push_back(std::make_unique<StubIsland>(
                static_cast<IslandId>(i),
                "isl" + std::to_string(i)));
            fabric->attach(*islands.back());
        }
        engine.setProbe([this](Tick) {
            fabric->drainAbandoned();
            return false;
        });
    }

    void
    runFor(Tick d)
    {
        engine.runFor(d);
        fabric->drainAbandoned();
    }

    StubIsland &at(int id) { return *islands[id - 1]; }
};

/** A 7-island fanout-2 tree: 1 <- {2,3}, 2 <- {4,5}, 3 <- {6,7}. */
struct TreeRig : Rig
{
    explicit TreeRig(FabricParams p, int n = 7, int shards = 1)
        : Rig(treeParams(p), n, shards)
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

/** The shard-count-invariant fabric counters, for K=1 vs K=2. */
std::vector<std::uint64_t>
statCounts(const FabricStats &s)
{
    return {s.sent.value(),         s.delivered.value(),
            s.dropped.value(),      s.hubRelays.value(),
            s.wireMessages.value(), s.wireTunes.value(),
            s.appliedTunes.value(), s.linkDrops.value(),
            s.linkReplays.value(),  s.abandoned.value(),
            s.duplicates.value(),   s.aggFolded.value(),
            s.aggBatches.value(),   s.triggerBypass.value(),
            s.retries.value(),      s.deliveryLatencyUs.count()};
}

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

} // namespace

TEST(CoordFabricTree, RoutesAlongTreePathsWithRelayAccounting)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    TreeRig rig(p);

    EXPECT_EQ(rig.fabric->parentOf(4), 2);
    EXPECT_EQ(rig.fabric->parentOf(7), 3);
    EXPECT_EQ(rig.fabric->parentOf(1), 1);
    EXPECT_EQ(rig.fabric->hopCount(1, 7), 2);
    EXPECT_EQ(rig.fabric->hopCount(4, 5), 2);
    EXPECT_EQ(rig.fabric->hopCount(4, 6), 4); // 4-2-1-3-6

    rig.fabric->send(tune(4, 6, 11, 3.0));
    rig.runFor(39 * usec);
    EXPECT_TRUE(rig.at(6).tunes.empty()); // four hops = 40 us
    rig.runFor(2 * usec);
    ASSERT_EQ(rig.at(6).tunes.size(), 1u);
    EXPECT_EQ(rig.fabric->stats().hubRelays.value(), 3u);
    EXPECT_EQ(rig.fabric->stats().wireMessages.value(), 4u);
    EXPECT_NEAR(rig.fabric->stats().hopsPerDelivery.mean(), 4.0, 0.01);
}

TEST(CoordFabricTree, HubAggregationPreservesExactDeltaSums)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 200 * usec;
    std::vector<std::uint64_t> oneShard;
    for (const int shards : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        TreeRig rig(p, 7, shards);

        // Three same-entity tunes from the root to a depth-2 leaf
        // fold into one batch at the root; the batch relays through
        // island 2 and applies as a single message carrying the
        // exact sum. A fourth tune climbs from leaf 5 (shard 1 at
        // K=2) to leaf 6 across the root.
        rig.fabric->send(tune(1, 4, 7, 2.0));
        rig.fabric->send(tune(1, 4, 7, -5.0));
        rig.fabric->send(tune(1, 4, 7, 4.0));
        rig.fabric->send(tune(5, 6, 8, 1.5));
        rig.runFor(2 * msec);

        ASSERT_EQ(rig.at(4).tunes.size(), 1u);
        EXPECT_EQ(rig.at(4).tuneSum(7), 1.0); // exactly 2 - 5 + 4
        EXPECT_EQ(rig.at(6).tuneSum(8), 1.5);
        const auto &fs = rig.fabric->stats();
        EXPECT_EQ(fs.aggFolded.value(), 2u);
        EXPECT_EQ(fs.appliedTunes.value(), 4u); // coalesced count
        // One batch out of the root, re-bucketed once at island 2
        // (every hub on the path aggregates): two batches, two wire
        // tunes for three logical tunes. Leaf 5's tune is bucketed
        // at 2, at the root and at 3: three more batches.
        EXPECT_EQ(fs.aggBatches.value(), 5u);
        EXPECT_EQ(fs.wireTunes.value(), 6u);
        EXPECT_EQ(fs.hubRelays.value(), 4u);
        if (shards == 1)
            oneShard = statCounts(fs);
        else
            EXPECT_EQ(statCounts(fs), oneShard);
    }
}

TEST(CoordFabricTree, DeltaAtExactWindowCloseJoinsNextWindow)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 200 * usec;
    TreeRig rig(p);

    // First tune at t=0 opens the bucket and schedules its flush for
    // t=200us. A tune arriving exactly at the close lands in a fresh
    // bucket: the flush event was created first, so FIFO tie-break
    // runs it before the late send. Island 2 (a depth-1 child of the
    // root) is the destination, so only the root aggregates.
    rig.fabric->send(tune(1, 2, 7, 1.0));
    rig.sim.scheduleAt(p.aggWindow,
                       [&] { rig.fabric->send(tune(1, 2, 7, 10.0)); });
    rig.runFor(1 * msec);

    const auto &fs = rig.fabric->stats();
    EXPECT_EQ(fs.aggBatches.value(), 2u);
    EXPECT_EQ(fs.aggFolded.value(), 0u);
    ASSERT_EQ(rig.at(2).tunes.size(), 2u);
    EXPECT_EQ(rig.at(2).tuneSum(7), 11.0);
}

TEST(CoordFabricTree, EntityMigrationMidWindowKeepsBucketsSeparate)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 500 * usec;
    TreeRig rig(p);

    // The policy retargets entity 7 from island 4 to island 5 in the
    // middle of an open window: deltas must never leak across the
    // destination islands' buckets.
    rig.fabric->send(tune(1, 4, 7, 2.0));
    rig.fabric->send(tune(1, 4, 7, 3.0));
    rig.sim.scheduleAt(100 * usec, [&] {
        rig.fabric->send(tune(1, 5, 7, 40.0)); // migrated
        rig.fabric->send(tune(1, 5, 7, 2.0));
    });
    rig.runFor(2 * msec);

    EXPECT_EQ(rig.at(4).tuneSum(7), 5.0);
    EXPECT_EQ(rig.at(5).tuneSum(7), 42.0);
    // Two buckets at the root plus one re-bucket each at island 2
    // (buckets are keyed by destination, so nothing leaks).
    EXPECT_EQ(rig.fabric->stats().aggBatches.value(), 4u);
    EXPECT_EQ(rig.fabric->stats().aggFolded.value(), 2u);
    EXPECT_EQ(rig.fabric->stats().appliedTunes.value(), 4u);
}

TEST(CoordFabricTree, TriggersBypassTheAggregationWindow)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 1 * msec;
    TreeRig rig(p);

    rig.fabric->send(tune(1, 4, 7, 1.0)); // parks in the window
    CoordMessage trig;
    trig.type = MsgType::trigger;
    trig.src = 1;
    trig.dst = 4;
    trig.entity = 7;
    rig.fabric->send(trig);
    rig.runFor(25 * usec); // two hops, well inside the window

    EXPECT_EQ(rig.at(4).triggers.size(), 1u);
    EXPECT_TRUE(rig.at(4).tunes.empty()); // tune still parked
    // Bypassed at the root and again at the island-2 relay.
    EXPECT_EQ(rig.fabric->stats().triggerBypass.value(), 2u);
    rig.runFor(3 * msec);
    EXPECT_EQ(rig.at(4).tunes.size(), 1u);
}

TEST(CoordFabricFaults, LinkReplayRecoversAnOutageEatenMessage)
{
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.replayTimeout = 500 * usec;
    p.replayBackoff = 2.0;
    p.faults.outages.push_back({0, 600 * usec});

    std::vector<std::uint64_t> oneShard;
    for (const int shards : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        Rig rig(p, 2, shards); // island 2 on shard 1 at K=2

        rig.fabric->send(tune(1, 2, 3, 1.5)); // eaten at t=0
        rig.fabric->send(tune(2, 1, 4, 2.5)); // ...and the reverse
        rig.runFor(5 * msec);

        ASSERT_EQ(rig.at(2).tunes.size(), 1u);
        EXPECT_EQ(rig.at(2).tunes[0].second, 1.5);
        ASSERT_EQ(rig.at(1).tunes.size(), 1u);
        EXPECT_EQ(rig.at(1).tunes[0].second, 2.5);
        const auto &fs = rig.fabric->stats();
        EXPECT_GE(fs.linkDrops.value(), 2u);
        EXPECT_GE(fs.linkReplays.value(), 2u);
        EXPECT_EQ(fs.abandoned.value(), 0u);
        if (shards == 1)
            oneShard = statCounts(fs);
        else
            EXPECT_EQ(statCounts(fs), oneShard);
    }
}

TEST(CoordFabricFaults, ReplayBudgetExhaustionAbandonsWithNote)
{
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.replayAttempts = 2;
    p.replayTimeout = 100 * usec;
    p.faults.lossProb = 1.0; // the link eats everything

    Rig rig(p, 2);
    std::vector<CoordMessage> abandoned;
    rig.fabric->setAbandonObserver(
        [&](const CoordMessage &m) { abandoned.push_back(m); });

    rig.fabric->send(tune(1, 2, 3, 2.0));
    rig.runFor(10 * msec);

    EXPECT_TRUE(rig.at(2).tunes.empty());
    EXPECT_EQ(rig.fabric->stats().abandoned.value(), 1u);
    // Original + two replays, all eaten.
    EXPECT_EQ(rig.fabric->stats().linkDrops.value(), 3u);
    EXPECT_EQ(rig.fabric->stats().linkReplays.value(), 2u);
    ASSERT_EQ(abandoned.size(), 1u);
    EXPECT_EQ(abandoned[0].entity, 3u);
    EXPECT_EQ(abandoned[0].value, 2.0);
}

TEST(CoordFabricFaults, DuplicatedWireCopiesAreSuppressed)
{
    FabricParams p;
    p.topology = FabricTopology::star;
    p.hub = 1;
    p.hopLatency = 10 * usec;
    p.faults.dupProb = 1.0;

    std::vector<std::uint64_t> oneShard;
    for (const int shards : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        // Hub 1 relays 2 -> 3; at K=2, island 3 is on shard 1, so
        // the trigger and its ack both cross shards.
        Rig rig(p, 3, shards);
        ReliableSender sender(rig.sim, *rig.fabric, 2);
        CoordMessage trig;
        trig.type = MsgType::trigger;
        trig.src = 2;
        trig.dst = 3;
        trig.entity = 9;
        sender.send(trig);
        rig.runFor(20 * msec);

        EXPECT_EQ(rig.at(3).triggers.size(), 1u); // applied once
        EXPECT_EQ(sender.acked(), 1u);
        EXPECT_EQ(sender.pendingCount(), 0u);
        const auto &fs = rig.fabric->stats();
        EXPECT_GE(fs.duplicates.value(), 1u);
        EXPECT_EQ(fs.hubRelays.value(), 2u); // trigger and its ack
        if (shards == 1)
            oneShard = statCounts(fs);
        else
            EXPECT_EQ(statCounts(fs), oneShard);
    }
}

TEST(CoordFabricReliable, AnnouncerSupersedeCrossesARelayHop)
{
    FabricParams p;
    p.hopLatency = 50 * usec;
    TreeRig rig(p); // leaf 4 is two hops from the root

    ReliableAnnouncer ann(rig.sim, *rig.fabric);
    EntityBinding b1;
    b1.ref = EntityRef{1, 42};
    b1.ip = corm::net::IpAddr(10, 0, 0, 1);
    ann.announce(4, b1);
    // Re-announce with a new address while the first registration is
    // still relaying through island 2: the new binding supersedes.
    rig.runFor(60 * usec);
    EntityBinding b2 = b1;
    b2.ip = corm::net::IpAddr(10, 0, 0, 2);
    ann.announce(4, b2);
    rig.runFor(50 * msec);

    ASSERT_GE(rig.at(4).bindings.size(), 1u);
    EXPECT_EQ(rig.at(4).bindings.back().ip,
              corm::net::IpAddr(10, 0, 0, 2));
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_GE(ann.acked(), 1u);
    EXPECT_EQ(ann.abandoned(), 0u);
}

TEST(CoordFabricTrace, SpansSurviveMultiHopRelays)
{
    corm::obs::TraceRecorder rec;
    FabricParams p;
    p.hopLatency = 10 * usec;
    TreeRig rig(p);
    rig.fabric->setShardTrace({&rec});

    const int trk = rec.track("test", "policy");
    const corm::obs::TraceId id = rec.newFlow();
    rec.flowBegin(trk, rig.sim.now(), id, "coord.span", "coord");
    CoordMessage m = tune(4, 6, 11, 1.0); // 4-2-1-3-6: three relays
    m.trace = id;
    rig.fabric->send(m);
    rig.runFor(1 * msec);

    const auto r = corm::obs::checkTraceText(rec.json(), true, 3);
    for (const auto &v : r.violations)
        ADD_FAILURE() << v;
    EXPECT_EQ(r.complete, 1u);
    EXPECT_EQ(r.multiHop, 1u);
    EXPECT_GE(r.maxSteps, 3u); // one step per intermediate relay
    EXPECT_EQ(r.dangling, 0u);
}

TEST(CoordFabricTrace, DroppedAtHubLeavesDanglingSpanNotViolation)
{
    corm::obs::TraceRecorder rec;
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.replayAttempts = 1;
    p.replayTimeout = 100 * usec;
    p.faults.lossProb = 1.0;

    Rig rig(p, 2);
    rig.fabric->setShardTrace({&rec});

    const int trk = rec.track("test", "policy");
    const corm::obs::TraceId id = rec.newFlow();
    rec.flowBegin(trk, rig.sim.now(), id, "coord.span", "coord");
    CoordMessage m = tune(1, 2, 3, 1.0);
    m.trace = id;
    rig.fabric->send(m);
    rig.runFor(10 * msec);

    EXPECT_EQ(rig.fabric->stats().abandoned.value(), 1u);
    // Without the flow requirement the dangling span is legal (the
    // trace honestly shows where the message died)...
    const auto lax = corm::obs::checkTraceText(rec.json(), false);
    EXPECT_TRUE(lax.ok());
    EXPECT_EQ(lax.dangling, 1u);
    EXPECT_EQ(lax.complete, 0u);
    // ...but a run that requires a complete chain must flag it.
    const auto strict = corm::obs::checkTraceText(rec.json(), true);
    EXPECT_FALSE(strict.ok());
}

TEST(CoordFabricTrace, EmptyFabricTraceIsStructurallyValid)
{
    corm::obs::TraceRecorder rec;
    FabricParams p;
    TreeRig rig(p);
    rig.fabric->setShardTrace({&rec});
    rig.runFor(1 * msec); // no traffic at all

    const auto r = corm::obs::checkTraceText(rec.json(), false);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.flows, 0u);
    const auto strict = corm::obs::checkTraceText(rec.json(), true);
    EXPECT_FALSE(strict.ok()); // no chain to show
}

TEST(CoordFabricReport, SurfacesUnroutableDrops)
{
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 5 * usec;
    Rig rig(p, 1);

    rig.fabric->send(tune(1, 9, 3, 1.0)); // island 9 does not exist
    rig.runFor(1 * msec);

    EXPECT_EQ(rig.fabric->stats().dropped.value(), 1u);
    const std::string report =
        corm::platform::fabricReport(*rig.fabric);
    EXPECT_NE(report.find("unroutable-dropped 1"), std::string::npos)
        << report;
    EXPECT_NE(report.find("mesh"), std::string::npos);
}

TEST(CoordFabricLanes, ExposesPerDirectionLanesAndQueueDepth)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.name = "fab";
    TreeRig rig(p, 3);

    std::vector<std::string> lanes;
    rig.fabric->forEachLaneId(
        [&](const std::string &name, std::uint64_t) {
            lanes.push_back(name);
        });
    // Two tree links (1-2, 1-3), two directions each.
    ASSERT_EQ(lanes.size(), 4u);
    EXPECT_NE(std::find(lanes.begin(), lanes.end(), "fab.1-2"),
              lanes.end());
    EXPECT_NE(std::find(lanes.begin(), lanes.end(), "fab.2-1"),
              lanes.end());

    rig.fabric->send(tune(2, 3, 1, 1.0));
    rig.runFor(1 * msec);
    EXPECT_GE(rig.fabric->maxLaneQueueHighWater(), 1u);
    EXPECT_EQ(rig.fabric->wireSendsFrom(2), 1u);
    EXPECT_EQ(rig.fabric->wireSendsFrom(1), 1u); // the relay
}

TEST(CoordFabricTopology, ParseAndNameRoundTrip)
{
    FabricTopology t = FabricTopology::star;
    EXPECT_TRUE(parseFabricTopology("tree", t));
    EXPECT_EQ(t, FabricTopology::tree);
    EXPECT_TRUE(parseFabricTopology("mesh", t));
    EXPECT_EQ(t, FabricTopology::mesh);
    EXPECT_TRUE(parseFabricTopology("star", t));
    EXPECT_EQ(t, FabricTopology::star);
    EXPECT_FALSE(parseFabricTopology("ring", t));
    EXPECT_STREQ(fabricTopologyName(FabricTopology::tree), "tree");
}
