/**
 * @file
 * Multi-island coordination fabric.
 *
 * The prototype's CoordChannel is point-to-point because the paper's
 * platform has exactly two islands; §5's ongoing work — "evaluations
 * of the scalability of such mechanisms to large-scale multicore
 * platforms ... distributed coordination algorithms across multiple
 * island resource managers" — needs an N-island transport. The
 * fabric provides three topologies:
 *
 *  * **star** — every message relays through a hub island (the
 *    global controller's home, Dom0-style). Two hops for any
 *    non-hub pair; the hub is a serialisation point.
 *  * **mesh** — direct island-to-island delivery, one hop. What
 *    §3.3's "hardware-supported queues / fast on-chip shared memory"
 *    would provide.
 *  * **tree** — a fanout-k hierarchy rooted at the hub. Messages
 *    relay along the unique tree path; hub (non-leaf) nodes
 *    additionally *aggregate* fire-and-forget Tune deltas per
 *    (destination, entity) within a configurable window and forward
 *    one batch message whose value is the exact sum (coalesced
 *    counts track how many logical Tunes it stands for). Triggers,
 *    registrations and sequenced messages bypass aggregation on the
 *    low-latency path.
 *
 * The fabric runs on a corm::sim::ShardedEngine: islands are placed
 * on the engine's shard simulators, and every edge is a pair of
 * directional lanes whose wire hops travel as engine boundary
 * messages — same-shard hops included, so the event set (and every
 * scenario digest) is the same for any shard count. A 1-shard
 * engine is the single-threaded configuration. Per-link FaultPlan
 * weather applies below the message semantics, a link-layer replay
 * budget (modelling PCIe DLLP ACK/NAK retry) re-sends fault-eaten
 * wire messages with exponential backoff, causal trace spans are
 * carried hop by hop, and per-lane activity logs feed health-monitor
 * stall watchdogs at window barriers (see drainLaneActivity).
 * Delivery semantics match CoordChannel: Tune/Trigger dispatch to
 * the destination island, sequenced messages are acknowledged and
 * deduplicated at the endpoint, registrations install bindings and
 * are always acked.
 *
 * Membership is dynamic (DESIGN.md §13): islands join() and leave()
 * at runtime, tree hubs crash() with their orphans re-parented to a
 * fallback after a detection window (or immediately via the
 * watchdog-driven reparentNow()), and entities migrate between
 * islands with migrateEntity() installing forwarding pointers so
 * in-flight tunes chase the entity to its new home. Every delta a
 * churn event strands — an unroutable send, a dead-route hop, a
 * delivery to a departed endpoint, a crashed hub's open aggregation
 * bucket — is attributed through the abandon observer, never
 * silently lost, and the route-independent endpoint dedup keys make
 * re-driven tunes apply exactly once across any re-parent or
 * migration.
 */

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coord/island.hpp"
#include "coord/message.hpp"
#include "coord/transport.hpp"
#include "interconnect/faults.hpp"
#include "obs/trace.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace corm::coord {

/** Fabric topology. */
enum class FabricTopology { star, mesh, tree };

/** Human-readable topology name. */
constexpr const char *
fabricTopologyName(FabricTopology t)
{
    switch (t) {
      case FabricTopology::star: return "star";
      case FabricTopology::mesh: return "mesh";
      case FabricTopology::tree: return "tree";
    }
    return "?";
}

/** Parse a topology name; returns false on an unknown name. */
inline bool
parseFabricTopology(const std::string &name, FabricTopology &out)
{
    if (name == "star") { out = FabricTopology::star; return true; }
    if (name == "mesh") { out = FabricTopology::mesh; return true; }
    if (name == "tree") { out = FabricTopology::tree; return true; }
    return false;
}

/** Fabric construction parameters. */
struct FabricParams
{
    FabricTopology topology = FabricTopology::mesh;
    /** One-way latency of every link. */
    corm::sim::Tick hopLatency = 120 * corm::sim::usec;
    /**
     * Hub island: the star centre / tree root. 0 (or an unattached
     * id) falls back to the lowest attached island id.
     */
    IslandId hub = 0;
    /** Children per node of the tree topology. */
    int treeFanout = 4;
    /**
     * Tune-aggregation window of tree hub nodes; 0 disables
     * aggregation. Only fire-and-forget (seq == 0) tunes aggregate.
     */
    corm::sim::Tick aggWindow = 0;
    /**
     * Link weather, applied to every link when any() — each link
     * derives its own pair of deterministic fault streams from
     * faults.seed and the link's endpoint ids, so runs replay
     * bit-identically under any --jobs fan-out.
     */
    corm::interconnect::FaultPlanParams faults;
    /**
     * Link-layer replay budget (PCIe DLLP ACK/NAK retry model): a
     * wire message eaten by link weather is re-sent on the same link
     * up to replayAttempts times, the first after replayTimeout and
     * exponentially backed off by replayBackoff up to replayCap;
     * exhausting the budget abandons the message (see
     * setAbandonObserver). 0 disables replay.
     */
    int replayAttempts = 4;
    corm::sim::Tick replayTimeout = 500 * corm::sim::usec;
    double replayBackoff = 2.0;
    corm::sim::Tick replayCap = 8 * corm::sim::msec;
    /**
     * Delay between a hub crash and its orphaned children re-binding
     * to the fallback parent — the detection window in which the
     * lane-stall watchdog fires. Due re-parents complete at
     * churnTick(); a monitor policy hook may call reparentNow()
     * earlier (watchdog-driven re-parenting).
     */
    corm::sim::Tick reparentDelay = 2 * corm::sim::msec;
    /**
     * Configured fallback parent for re-parenting after a hub
     * crash. 0 (or a departed id) falls back to the crashed hub's
     * own parent, then to the tree root.
     */
    IslandId fallbackParent = 0;
    /** Name prefix of the lanes and trace tracks ("<name>.<from>-<to>"). */
    std::string name = "fabric";
};

/** Aggregate fabric statistics. */
struct FabricStats
{
    /** Logical send() calls accepted. */
    corm::sim::Counter sent;
    /** Dispatches at a final destination (dedup-suppressed incl.). */
    corm::sim::Counter delivered;
    corm::sim::Counter dropped; ///< unknown destination (unroutable)
    corm::sim::Counter hubRelays; ///< hops forwarded by a relay node
    /** Wire messages put on a link (relays and replays included). */
    corm::sim::Counter wireMessages;
    /** Wire messages that were tunes (the per-applied-Tune cost). */
    corm::sim::Counter wireTunes;
    /** Logical tunes applied at destinations (coalesced counts). */
    corm::sim::Counter appliedTunes;
    corm::sim::Counter linkDrops;   ///< wire sends eaten by weather
    corm::sim::Counter linkReplays; ///< link-layer retransmissions
    /** Wire messages abandoned after the replay budget. */
    corm::sim::Counter abandoned;
    /** Duplicate deliveries suppressed (wire dups + endpoint dedup). */
    corm::sim::Counter duplicates;
    /** Logical tunes folded into an already-open aggregation bucket. */
    corm::sim::Counter aggFolded;
    /** Aggregated batch messages emitted by hub nodes. */
    corm::sim::Counter aggBatches;
    /** Triggers relayed past an aggregating hub un-delayed. */
    corm::sim::Counter triggerBypass;
    /** Deliveries re-forwarded to a migrated entity's new home. */
    corm::sim::Counter migForwards;
    /** Retransmissions performed by the reliable layer above. */
    corm::sim::Counter retries;
    /** Send-to-apply latency (microseconds), end to end. */
    corm::sim::Summary deliveryLatencyUs;
    /** Link hops per first-copy delivery. */
    corm::sim::Summary hopsPerDelivery;
};

/**
 * An N-island coordination transport with configurable topology,
 * per-link fault weather, link-layer replay and (tree) hub-side
 * Tune aggregation. Implements CoordTransport, so ReliableSender /
 * ReliableAnnouncer run over it unchanged.
 *
 * Threading contract (it only bites with more than one shard):
 *
 *  - send(msg) must execute on the shard owning msg.src, which falls
 *    out naturally when workload events are scheduled on the source
 *    island's shard simulator (or when sending between runs);
 *  - churn calls (join/leave/crash/migrateEntity/churnTick/
 *    reparentNow), drainAbandoned() and drainLaneActivity() run on
 *    the coordinator: between runs or from the engine's barrier
 *    probe, never from a shard event;
 *  - abandon notifications are queued per shard and reach the
 *    abandon observer only at drainAbandoned().
 */
class CoordFabric : public CoordTransport
{
  public:
    /**
     * @param engine Runs every island's events; a 1-shard engine for
     *        single-threaded use. Its lookahead must not exceed
     *        params.hopLatency (a hop is the minimum cross-shard
     *        interaction latency).
     * @param params Topology, latency, weather, replay budget.
     * @param shardOfNode Island id -> shard. Ids past its end (every
     *        id, when empty) live on shard 0.
     */
    CoordFabric(corm::sim::ShardedEngine &engine, FabricParams params,
                std::vector<int> shardOfNode = {})
        : engine_(engine), cfg(std::move(params)),
          states(static_cast<std::size_t>(engine.shardCount())),
          shardOf(std::move(shardOfNode))
    {
        // A larger lookahead would let a shard run past an incoming
        // message.
        assert(engine.lookahead() <= cfg.hopLatency);
        for (int i = 0; i < engine.shardCount(); ++i) {
            engine.setSink(i, [this](const corm::sim::ShardMessage &m) {
                onLaneDeliver(m);
            });
        }
    }

    CoordFabric(const CoordFabric &) = delete;
    CoordFabric &operator=(const CoordFabric &) = delete;

    /** Attach an island to the fabric (before traffic, ideally). */
    void
    attach(ResourceIsland &island)
    {
        islands[island.id()] = &island;
        dirty = true;
    }

    /** Number of attached islands. */
    std::size_t islandCount() const { return islands.size(); }

    /** Parameters in force. */
    const FabricParams &params() const { return cfg; }

    /** Per-hop latency. */
    corm::sim::Tick perHopLatency() const { return cfg.hopLatency; }

    /**
     * Send a message toward msg.dst, relaying along the topology's
     * path. Messages to an unknown destination (or from an
     * unattached source) are counted as dropped.
     */
    void
    send(CoordMessage msg) override
    {
        ensureBuilt();
        ShardState &st = stateFor(msg.src);
        st.stats.sent.add();
        if (!islands.count(msg.dst) || !islands.count(msg.src)) {
            // Routine under churn (a peer keeps sending to a
            // departed island for a beat), so debug, not warn. The
            // lost delta is attributed, not silently dropped.
            dropAttributed(msg.src, msg, msg.src, msg.dst);
            logger.debug("unroutable %s %u -> %u (%zu islands attached)",
                         msgTypeName(msg.type),
                         static_cast<unsigned>(msg.src),
                         static_cast<unsigned>(msg.dst),
                         islands.size());
            return;
        }
        if (msg.dst == msg.src) {
            // Loopback: no link; model one hop of latency. Stays on
            // the source's own simulator (a node is never split
            // across shards), so no boundary crossing.
            corm::sim::Simulator &s = simFor(msg.src);
            s.schedule(cfg.hopLatency, [this, msg, &s] {
                finalDeliver(msg, s.now() - cfg.hopLatency, 1);
            });
            return;
        }
        forwardFrom(msg.src, msg, simFor(msg.src).now(), 0);
    }

    /** Observe delivered acks at one endpoint (CoordTransport). */
    void
    setAckObserver(IslandId endpoint,
                   std::function<void(const CoordMessage &)> fn) override
    {
        ackObservers[endpoint] = std::move(fn);
    }

    /**
     * Token-based multi-observer registration: several reliable
     * senders (an announcer that lives the whole run plus a trigger
     * sender, say) can share one endpoint without clobbering each
     * other. Tokens are unique per fabric.
     */
    std::uint64_t
    addAckObserver(IslandId endpoint,
                   std::function<void(const CoordMessage &)> fn) override
    {
        const std::uint64_t token = ++ackToken_;
        ackMulti_[endpoint].push_back({token, std::move(fn)});
        return token;
    }

    void
    removeAckObserver(IslandId endpoint, std::uint64_t token) override
    {
        auto it = ackMulti_.find(endpoint);
        if (it == ackMulti_.end())
            return;
        auto &v = it->second;
        v.erase(std::remove_if(v.begin(), v.end(),
                               [token](const AckEntry &e) {
                                   return e.token == token;
                               }),
                v.end());
        if (v.empty())
            ackMulti_.erase(it);
    }

    /**
     * Record a retransmission performed by the reliable layer.
     * Reliable senders live on shard 0 (the scenario homes them at
     * the root), so charging shard 0's counter is race-free.
     */
    void noteRetransmit() override { states[0].stats.retries.add(); }

    /**
     * Observe wire messages abandoned after the link replay budget
     * (the fabric's "this delta is really gone" signal — scenarios
     * subtract abandoned deltas from the convergence intent).
     */
    using AbandonFn = std::function<void(const CoordMessage &)>;
    void setAbandonObserver(AbandonFn fn) { onAbandon = std::move(fn); }

    /**
     * Attach one trace recorder per shard (nullptrs detach): per-lane
     * hop slices, relay flow steps, aggregation fold/flush markers
     * and drop/replay/abandon instants. Spans survive multi-hop
     * relays because the id rides each boundary message's side-band.
     * With several shards pass window-local recorders
     * (obs/shardcapture.hpp), merged at barriers; a 1-shard engine
     * may record straight into the final recorder. Hop slices are
     * emitted at transmit time (the sender knows the delivery tick)
     * on *directional* lane tracks ("<name>.<from>-<to>"), so every
     * track has exactly one writing shard and the merged trace is
     * byte-identical for any shard count.
     */
    void
    setShardTrace(const std::vector<corm::obs::TraceRecorder *> &recs)
    {
        assert(recs.size() == states.size());
        for (std::size_t k = 0; k < states.size(); ++k)
            states[k].rec = recs[k];
    }

    /** One lane send/delivery, replayed canonically at a barrier. */
    struct LaneEvent
    {
        corm::sim::Tick when = 0;
        std::uint64_t lane = 0; ///< directional lane id
        std::uint64_t seq = 0;  ///< per-shard-state program order
        bool delivered = false; ///< false = entered the lane (sent)
    };

    /**
     * Record per-lane send/delivery activity shard-locally so the
     * health monitor's stall watchdogs can run at barrier time (see
     * drainLaneActivity). Off by default — recording costs a vector
     * push per wire attempt/delivery.
     */
    void setLaneActivityRecording(bool on) { laneActivity_ = on; }

    /**
     * Hand the window's lane activity to @p fn in canonical
     * (when, lane, delivered-before-sent, seq) order — placement
     * independent because a lane's sends are logged only by its
     * sender shard and its deliveries only by its receiver shard.
     * Runs on the coordinator at a window barrier.
     */
    void
    drainLaneActivity(const std::function<void(const LaneEvent &)> &fn)
    {
        laneScratch_.clear();
        for (auto &st : states) {
            laneScratch_.insert(laneScratch_.end(), st.laneLog.begin(),
                                st.laneLog.end());
            st.laneLog.clear();
        }
        std::sort(laneScratch_.begin(), laneScratch_.end(),
                  [](const LaneEvent &a, const LaneEvent &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.lane != b.lane)
                          return a.lane < b.lane;
                      if (a.delivered != b.delivered)
                          return a.delivered;
                      return a.seq < b.seq;
                  });
        for (const LaneEvent &e : laneScratch_)
            fn(e);
    }

    /**
     * Visit every directional lane as (name, lane id), in the
     * deterministic link-key order — monitor lane registration,
     * where lane ids are how drainLaneActivity identifies lanes.
     * Lane names are "<name>.<from>-<to>".
     */
    void
    forEachLaneId(
        const std::function<void(const std::string &, std::uint64_t)>
            &fn)
    {
        ensureBuilt();
        for (auto &[key, link] : links) {
            fn(laneName(link.lo, link.hi), link.laneLoHi.id);
            fn(laneName(link.hi, link.lo), link.laneHiLo.id);
        }
    }

    /**
     * Deliver queued abandon notifications to the abandon observer
     * in canonical (when, lane, program-order) order — the same
     * placement-independent sort the boundary drain uses, so
     * observer-visible side effects (monitor abandon events, for
     * one) are identical for any shard count. Runs on the
     * coordinator: between runs or at a window barrier.
     */
    void
    drainAbandoned()
    {
        abandonScratch_.clear();
        for (auto &st : states) {
            abandonScratch_.insert(abandonScratch_.end(),
                                   st.abandonedQueue.begin(),
                                   st.abandonedQueue.end());
            st.abandonedQueue.clear();
        }
        std::sort(abandonScratch_.begin(), abandonScratch_.end(),
                  [](const AbandonRecord &a, const AbandonRecord &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.lane != b.lane)
                          return a.lane < b.lane;
                      return a.seq < b.seq;
                  });
        for (const AbandonRecord &r : abandonScratch_) {
            if (onAbandon)
                onAbandon(r.msg);
        }
    }

    /**
     * Fabric statistics. With several shards the per-shard counters
     * are folded into one view on each call (harvest-time cost
     * only); call from the coordinator with no window in flight.
     */
    const FabricStats &
    stats() const
    {
        if (states.size() == 1)
            return states[0].stats;
        merged_ = FabricStats{};
        for (const ShardState &st : states)
            foldStats(merged_, st.stats);
        return merged_;
    }

    /** Link fault counters summed over every link and direction. */
    corm::interconnect::FaultPlanParams faultParams() const
    {
        return cfg.faults;
    }

    /** Aggregation buckets currently open (all hubs). */
    std::size_t
    aggPending() const
    {
        std::size_t n = 0;
        for (const ShardState &st : states)
            n += st.aggBuckets.size();
        return n;
    }

    /** High-water mark of open buckets at any single hub node. */
    std::size_t
    aggPendingHighWater() const
    {
        std::size_t m = 0;
        for (const ShardState &st : states)
            m = std::max(m, st.aggHighWater);
        return m;
    }

    /** Wire messages originated or forwarded by @p island. */
    std::uint64_t
    wireSendsFrom(IslandId island) const
    {
        return island < wireFrom.size() ? wireFrom[island] : 0;
    }

    /** Wire messages arriving at @p island (terminal or relayed). */
    std::uint64_t
    wireReceivedAt(IslandId island) const
    {
        return island < wireInto.size() ? wireInto[island] : 0;
    }

    /**
     * Total wire messages handled by @p island (sent + received):
     * the per-node load metric behind the hub-bottleneck claim.
     */
    std::uint64_t
    wireHandledAt(IslandId island) const
    {
        return wireSendsFrom(island) + wireReceivedAt(island);
    }

    /** Highest per-island wire-send load (the hub bottleneck). */
    std::uint64_t
    maxWireSends() const
    {
        std::uint64_t m = 0;
        for (const auto &[id, isl] : islands)
            m = std::max(m, wireSendsFrom(id));
        return m;
    }

    /**
     * Highest in-flight queue depth seen on any lane: wire copies
     * sent but not yet due, counted by the sender at each transmit
     * (see transmit), so the figure is the same for any placement.
     */
    std::size_t
    maxLaneQueueHighWater() const
    {
        std::size_t m = 0;
        for (const ShardState &st : states)
            m = std::max(m, st.laneQueueHighWater);
        return m;
    }

    /** Parent of @p island in the built tree (root maps to itself). */
    IslandId
    parentOf(IslandId island)
    {
        ensureBuilt();
        auto it = parent.find(island);
        return it == parent.end() ? island : it->second;
    }

    /** Link hops between two attached islands (0 for self). */
    int
    hopCount(IslandId from, IslandId to)
    {
        ensureBuilt();
        int hops = 0;
        IslandId at = from;
        while (at != to && hops <= 2 * static_cast<int>(islands.size())) {
            at = nextHopFrom(at, to);
            ++hops;
        }
        return hops;
    }

    // ------------------------------------------------------------------
    // Dynamic membership (churn). All of these run on the coordinator,
    // between runs or at a window barrier. At a barrier pass the
    // barrier tick as `now` (see ChurnScope); between runs the default
    // (0: the acting node's own clock) reads the run's end.
    // ------------------------------------------------------------------

    /** True while @p id is an attached (live) member. */
    bool attached(IslandId id) const { return islands.count(id) != 0; }

    /**
     * Route epoch: bumps on every membership or route change
     * (build, join, leave, crash, completed re-parent) — the epoch
     * announcements advertise so peers can supersede stale routes.
     */
    std::uint64_t routeEpoch() const { return routeEpoch_; }

    /** Lifetime churn tallies. */
    struct ChurnCounters
    {
        std::uint64_t joins = 0;
        std::uint64_t leaves = 0;
        std::uint64_t crashes = 0;
        std::uint64_t migrations = 0;
        std::uint64_t reparents = 0;
    };
    const ChurnCounters &churnCounters() const { return churn_; }

    /** Orphaned children still awaiting re-parenting. */
    std::size_t
    pendingReparentCount() const
    {
        return pendingReparents_.size();
    }

    /**
     * Runtime join: attach @p island to a live fabric and wire it in
     * incrementally (mesh: links to every member; star: a link to
     * the hub; tree: under the first BFS-order node with spare
     * fanout). Routes rebuild and the route epoch bumps — the
     * scenario layer re-announces bindings to the joiner through
     * ReliableAnnouncer supersede slots. Before the first build this
     * degenerates to attach().
     */
    void
    join(ResourceIsland &island, corm::sim::Tick now = 0)
    {
        if (dirty || islands.empty()) {
            attach(island);
            return;
        }
        const IslandId id = island.id();
        if (islands.count(id))
            return;
        ChurnScope scope(*this, now);
        islands[id] = &island;
        growNodeTables(static_cast<std::size_t>(id) + 1);
        switch (cfg.topology) {
          case FabricTopology::mesh:
            for (const auto &[other, isl] : islands)
                if (other != id)
                    ensureLink(other, id);
            break;
          case FabricTopology::star:
            if (id != hubId)
                ensureLink(hubId, id);
            break;
          case FabricTopology::tree:
            if (id != hubId) {
                const IslandId p = pickTreeParent();
                parent[id] = p;
                children[p].push_back(id);
                ensureLink(p, id);
            }
            break;
        }
        rebuildLiveRoutes();
        ++churn_.joins;
        ++routeEpoch_;
    }

    /**
     * Graceful leave: the island flushes its own open aggregation
     * buckets, peers' buckets destined to it flush immediately, its
     * links retire, and (tree) its children re-bind to the fallback
     * parent at once — a cooperative departure needs no detection
     * window. In-flight messages toward the departed island are
     * attributed as abandoned when they hit the dead route or the
     * missing endpoint, never silently lost.
     */
    void
    leave(IslandId id, corm::sim::Tick now = 0)
    {
        ensureBuilt();
        if (!islands.count(id))
            return;
        if (id == hubId) {
            logger.warn("leave(%u) ignored: the hub cannot depart",
                        static_cast<unsigned>(id));
            return;
        }
        ChurnScope scope(*this, now);
        flushBucketsWhere(id, /*includeDest=*/true);
        const IslandId fb = fallbackFor(id);
        const std::vector<IslandId> orphans = detachNode(id);
        for (IslandId c : orphans)
            applyReparent(c, fb);
        rebuildLiveRoutes();
        ++churn_.leaves;
        ++routeEpoch_;
    }

    /**
     * Crash failure: no flushes, no goodbyes. Open aggregation
     * buckets at the dead node are attributed as abandoned (a batch
     * proto carries the exact folded sum and coalesced count, so the
     * conservation ledger balances), its links retire, and (tree)
     * orphaned children queue for re-parenting after reparentDelay —
     * the window in which the lane-stall watchdog detects the dead
     * hub. churnTick() / reparentNow() complete the re-bind.
     */
    void
    crash(IslandId id, corm::sim::Tick now = 0)
    {
        ensureBuilt();
        if (!islands.count(id))
            return;
        if (id == hubId) {
            logger.warn("crash(%u) ignored: the hub cannot depart",
                        static_cast<unsigned>(id));
            return;
        }
        ChurnScope scope(*this, now);
        abandonOwnBuckets(id);
        const IslandId fb = fallbackFor(id);
        const std::vector<IslandId> orphans = detachNode(id);
        const corm::sim::Tick at = nowFor(id);
        for (IslandId c : orphans)
            pendingReparents_.push_back({c, fb, at + cfg.reparentDelay});
        rebuildLiveRoutes();
        ++churn_.crashes;
        ++routeEpoch_;
    }

    /**
     * Live entity migration: future deliveries addressed to
     * (src, entity) re-forward to @p dst. Dedup keys are checked at
     * the old home FIRST (lookup-only), so a retransmission whose
     * original applied pre-migration is re-acked, never re-applied —
     * and a miss forwards without claiming the key, leaving the new
     * home's dedup window authoritative. Open aggregation buckets
     * destined to the old home flush immediately so no delta lingers
     * under a stale address. The caller hands over coordination
     * state (weights, convergence intent) and re-announces bindings;
     * the fabric handles addressing.
     *
     * Precondition: @p dst must currently home its own (dst, entity)
     * address — or forward it to @p src, the "migrate back home"
     * case, where the state coming in IS the state that left. If
     * dst's address forwards anywhere else, the call is refused: two
     * distinct logical entity states would collide at one address,
     * and the forwarded state's deliveries would silently re-home.
     * Migrate the forwarded state back (or pick another destination)
     * first.
     */
    bool
    migrateEntity(IslandId src, IslandId dst, EntityId entity,
                  corm::sim::Tick now = 0)
    {
        ensureBuilt();
        if (src == dst || !islands.count(src) || !islands.count(dst))
            return false;
        const IslandId dstHome = resolveEntity(dst, entity);
        if (resolveEntity(src, entity) != src
            || (dstHome != dst && dstHome != src))
            return false;
        ChurnScope scope(*this, now);
        flushBucketsDestined(src, entity);
        // Path-compress: every chain ending at src re-points to dst,
        // so resolution is single-hop. A chain that re-points onto
        // its own origin (migrating merged state back home) becomes
        // a self-loop, which erases — the address is home again.
        for (auto &[key, to] : migrated_)
            if (to == src
                && static_cast<EntityId>(key & 0xffffffffu) == entity)
                to = dst;
        migrated_[migKey(src, entity)] = dst;
        migrated_.erase(migKey(dst, entity));
        ++churn_.migrations;
        return true;
    }

    /** Present home of @p entity declared at @p home (identity when
     *  never migrated). */
    IslandId
    currentHome(IslandId home, EntityId entity) const
    {
        return resolveEntity(home, entity);
    }

    /**
     * Complete re-parents whose delay has elapsed (dueAt <= now).
     * Call periodically, at window barriers.
     */
    void churnTick(corm::sim::Tick now) { processReparents(now, false); }

    /**
     * Complete every pending re-parent immediately — the watchdog
     * path: a lane-stall breach told the policy layer the hub is
     * dead, so there is no need to wait out reparentDelay.
     */
    void reparentNow(corm::sim::Tick now) { processReparents(now, true); }

  private:
    /**
     * One link direction: a fault stream and an in-order delivery
     * clamp over the engine's boundary queues. The lane id is
     * derived from the endpoint ids alone — placement-independent,
     * so the engine's canonical (when, lane, seq) injection order
     * does not change with the shard count. Only the sender's shard
     * touches a lane.
     */
    struct Lane
    {
        std::uint64_t id = 0;
        IslandId from = 0, to = 0;
        corm::interconnect::FaultInjector *faults = nullptr;
        corm::sim::Tick lastDelivery = 0; ///< in-order clamp
        std::uint64_t nextSeq = 0;        ///< per-lane send counter
        /** Delivery ticks of copies in flight (min-heap). */
        std::vector<corm::sim::Tick> inFlight;
    };

    struct Link
    {
        IslandId lo = 0, hi = 0;
        std::unique_ptr<corm::interconnect::FaultPlan> weather;
        Lane laneLoHi, laneHiLo;

        Lane &
        laneFrom(IslandId from)
        {
            return from == lo ? laneLoHi : laneHiLo;
        }
    };

    /** One wire message in flight on one link. */
    struct Flight
    {
        CoordMessage msg;
        corm::sim::Tick originSentAt = 0; ///< logical send time
        IslandId from = 0, to = 0;
        int hopsSoFar = 0; ///< link hops completed before this one
        int attempts = 1;  ///< wire attempts on this link
        corm::sim::Tick timeout = 0;
    };

    /** An open hub aggregation bucket. */
    struct AggBucket
    {
        CoordMessage proto; ///< dst/entity template; value = sum
        IslandId node = 0, next = 0;
        corm::sim::Tick earliestOrigin = 0;
    };

    /** One queued abandon with its canonical-ordering key. */
    struct AbandonRecord
    {
        CoordMessage msg;
        corm::sim::Tick when = 0; ///< abandon tick on the owner shard
        std::uint64_t lane = 0;   ///< lane the flight died on
        std::uint64_t seq = 0;    ///< per-shard-state program order
    };

    /**
     * Mutable fabric state owned by one shard. Each shard's worker
     * touches only its own state: flights and aggregation buckets
     * are keyed by nodes the shard owns, tags only need to be unique
     * within a shard, and the stats counters are folded at harvest
     * (see stats()).
     */
    struct ShardState
    {
        std::map<std::uint64_t, Flight> flights;
        std::map<std::uint64_t, AggBucket> aggBuckets;
        std::uint64_t nextTag = 0;
        std::size_t aggHighWater = 0;
        /** Deepest lane in-flight queue this shard sent into. */
        std::size_t laneQueueHighWater = 0;
        /** Abandons awaiting drainAbandoned(). */
        std::vector<AbandonRecord> abandonedQueue;
        std::uint64_t abandonSeq = 0;
        FabricStats stats;
        /** This shard's trace recorder (see setShardTrace). */
        corm::obs::TraceRecorder *rec = nullptr;
        /** Lazy track ids on this shard's window recorder. */
        std::map<std::uint64_t, int> laneTracks;
        std::map<IslandId, int> nodeTracks;
        /** Window-local lane activity log (see drainLaneActivity). */
        std::vector<LaneEvent> laneLog;
        std::uint64_t laneLogSeq = 0;
    };

    static std::uint32_t
    linkKey(IslandId a, IslandId b)
    {
        const IslandId lo = std::min(a, b), hi = std::max(a, b);
        return (static_cast<std::uint32_t>(lo) << 16) | hi;
    }

    /** One orphaned child queued for re-binding after a hub crash. */
    struct PendingReparent
    {
        IslandId child = 0;
        IslandId fallback = 0;
        corm::sim::Tick dueAt = 0;
    };

    /**
     * Scoped barrier-time override: while a churn action runs at a
     * window barrier the shard sims are parked at placement-dependent
     * ticks, so nowFor() must serve the barrier tick instead — the
     * only placement-independent clock available there.
     */
    struct ChurnScope
    {
        CoordFabric &f;
        corm::sim::Tick saved;
        ChurnScope(CoordFabric &fab, corm::sim::Tick now)
            : f(fab), saved(fab.churnNow_)
        {
            if (now != 0)
                fab.churnNow_ = now;
        }
        ~ChurnScope() { f.churnNow_ = saved; }
    };

    /** Current tick for @p node's actions; the barrier tick during a
     *  churn action (see ChurnScope). */
    corm::sim::Tick
    nowFor(IslandId node)
    {
        return churnNow_ != 0 ? churnNow_ : simFor(node).now();
    }

    /** Grow the node-indexed tables to cover ids below @p span. */
    void
    growNodeTables(std::size_t span)
    {
        if (wireFrom.size() < span) {
            wireFrom.resize(span, 0);
            wireInto.resize(span, 0);
            aggDepth.resize(span, 0);
            seen.resize(span);
        }
    }

    /** makeLink unless the endpoint pair is already live (a re-join
     *  may reuse a pair whose old link was retired). */
    void
    ensureLink(IslandId a, IslandId b)
    {
        if (!links.count(linkKey(a, b)))
            makeLink(a, b);
    }

    /** Rebuild routes over the live membership, dropping stale
     *  entries that routed to or through departed nodes. */
    void
    rebuildLiveRoutes()
    {
        nextHop.clear();
        std::vector<IslandId> ids;
        for (const auto &[id, isl] : islands)
            ids.push_back(id);
        buildRoutes(ids);
    }

    /** First BFS-order tree node with spare fanout (join placement —
     *  deterministic for a given call sequence). */
    IslandId
    pickTreeParent() const
    {
        const std::size_t k =
            static_cast<std::size_t>(std::max(1, cfg.treeFanout));
        std::vector<IslandId> q{hubId};
        for (std::size_t i = 0; i < q.size(); ++i) {
            auto it = children.find(q[i]);
            if (it == children.end() || it->second.size() < k)
                return q[i];
            for (IslandId c : it->second)
                q.push_back(c);
        }
        return hubId;
    }

    /** Fallback parent for @p id's orphans: the configured fallback,
     *  else @p id's own parent, else the root. */
    IslandId
    fallbackFor(IslandId id) const
    {
        if (cfg.fallbackParent != 0 && cfg.fallbackParent != id
            && islands.count(cfg.fallbackParent))
            return cfg.fallbackParent;
        auto it = parent.find(id);
        if (it != parent.end() && islands.count(it->second))
            return it->second;
        return hubId;
    }

    /** True if climbing the parent chain from @p node reaches
     *  @p root (cycle-guarded; broken chains answer false). */
    bool
    inSubtree(IslandId node, IslandId root) const
    {
        std::size_t guard = 0;
        IslandId at = node;
        while (at != hubId && ++guard <= parent.size() + 1) {
            if (at == root)
                return true;
            auto it = parent.find(at);
            if (it == parent.end())
                return false;
            at = it->second;
        }
        return at == root;
    }

    /**
     * Remove @p id from membership, retire its links, unhook it from
     * its parent; returns its (tree) children, now orphaned. The
     * orphans keep their dangling parent entry until re-bound:
     * treeNextHop sees the broken chain and routes to the unroutable
     * sentinel, which attributes the message instead of throwing.
     */
    std::vector<IslandId>
    detachNode(IslandId id)
    {
        islands.erase(id);
        for (auto it = links.begin(); it != links.end();) {
            if (it->second.lo == id || it->second.hi == id)
                it = links.erase(it);
            else
                ++it;
        }
        std::vector<IslandId> orphans;
        auto cit = children.find(id);
        if (cit != children.end()) {
            orphans = cit->second;
            children.erase(cit);
        }
        auto pit = parent.find(id);
        if (pit != parent.end()) {
            auto up = children.find(pit->second);
            if (up != children.end()) {
                auto &v = up->second;
                v.erase(std::remove(v.begin(), v.end(), id), v.end());
                if (v.empty())
                    children.erase(up);
            }
            parent.erase(pit);
        }
        return orphans;
    }

    /** Re-bind @p child under @p fallback (or the root when the
     *  fallback is gone or would create a cycle). */
    void
    applyReparent(IslandId child, IslandId fallback)
    {
        if (!islands.count(child))
            return; // departed while orphaned
        if (!islands.count(fallback))
            fallback = islands.count(cfg.fallbackParent)
                           ? cfg.fallbackParent
                           : hubId;
        if (fallback == child || inSubtree(fallback, child))
            fallback = hubId;
        parent[child] = fallback;
        children[fallback].push_back(child);
        ensureLink(fallback, child);
        ++churn_.reparents;
    }

    /** Complete pending re-parents (all of them when @p force). */
    void
    processReparents(corm::sim::Tick now, bool force)
    {
        if (pendingReparents_.empty())
            return;
        ChurnScope scope(*this, now);
        bool changed = false;
        auto it = pendingReparents_.begin();
        while (it != pendingReparents_.end()) {
            if (!force && it->dueAt > now) {
                ++it;
                continue;
            }
            applyReparent(it->child, it->fallback);
            it = pendingReparents_.erase(it);
            changed = true;
        }
        if (changed) {
            rebuildLiveRoutes();
            ++routeEpoch_;
        }
    }

    /**
     * Flush open buckets owned by @p id and (optionally) buckets at
     * other hubs destined to @p id, in deterministic key order. The
     * bucket keys embed the owning node, so keys are unique across
     * shard states.
     */
    void
    flushBucketsWhere(IslandId id, bool includeDest)
    {
        std::vector<std::uint64_t> keys;
        for (ShardState &st : states)
            for (const auto &[key, b] : st.aggBuckets)
                if (b.node == id || (includeDest && b.proto.dst == id))
                    keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        for (std::uint64_t key : keys)
            flushBucket(key);
    }

    /** Flush open buckets anywhere destined to (@p dst, @p entity) —
     *  the migration path: no delta may linger under a stale
     *  address. */
    void
    flushBucketsDestined(IslandId dst, EntityId entity)
    {
        std::vector<std::uint64_t> keys;
        for (ShardState &st : states)
            for (const auto &[key, b] : st.aggBuckets)
                if (b.proto.dst == dst && b.proto.entity == entity)
                    keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        for (std::uint64_t key : keys)
            flushBucket(key);
    }

    /** Attribute and discard every open bucket at a crashed node;
     *  the already-scheduled flush timers then find nothing. */
    void
    abandonOwnBuckets(IslandId id)
    {
        ShardState &st = stateFor(id);
        std::vector<std::uint64_t> keys;
        for (const auto &[key, b] : st.aggBuckets)
            if (b.node == id)
                keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        for (std::uint64_t key : keys) {
            auto it = st.aggBuckets.find(key);
            AggBucket b = std::move(it->second);
            st.aggBuckets.erase(it);
            if (aggDepth[b.node] > 0)
                --aggDepth[b.node];
            st.stats.abandoned.add();
            if (onAbandon)
                st.abandonedQueue.push_back({b.proto, nowFor(id),
                                             laneIdOf(b.node, b.next),
                                             ++st.abandonSeq});
        }
    }

    /** (old home:16 << 32 | entity:32) forwarding-map key. */
    static std::uint64_t
    migKey(IslandId home, EntityId entity)
    {
        return (static_cast<std::uint64_t>(home) << 32) | entity;
    }

    /** Resolve (declared home, entity) through the forwarding map —
     *  single-hop thanks to path compression at migrateEntity(). */
    IslandId
    resolveEntity(IslandId home, EntityId entity) const
    {
        auto it = migrated_.find(migKey(home, entity));
        return it == migrated_.end() ? home : it->second;
    }

    /**
     * Count an unroutable / dead-route / departed-endpoint drop and,
     * for fire-and-forget tunes, hand the message to the abandon
     * observer so the lost delta is attributed in the conservation
     * ledger instead of silently vanishing. Sequenced messages are
     * not attributed here: their reliable sender owns the retry loop
     * and the terminal abandon.
     */
    void
    dropAttributed(IslandId owner, const CoordMessage &msg,
                   IslandId from, IslandId to)
    {
        ShardState &st = stateFor(owner);
        st.stats.dropped.add();
        if (msg.type != MsgType::tune || msg.seq != 0 || !onAbandon)
            return;
        st.abandonedQueue.push_back({msg, nowFor(from), laneIdOf(from, to),
                                     ++st.abandonSeq});
    }

    void
    ensureBuilt()
    {
        if (!dirty)
            return;
        dirty = false;
        links.clear();
        nextHop.clear();
        parent.clear();
        children.clear();
        if (islands.empty())
            return;

        std::vector<IslandId> ids;
        for (const auto &[id, isl] : islands)
            ids.push_back(id);
        hubId = islands.count(cfg.hub) ? cfg.hub : ids.front();

        // Size the node-indexed tables from the topology (islands is
        // an ordered map, so ids.back() is the highest attached id).
        // Grow-only: re-attachment rebuilds must not discard the
        // accumulated per-node tallies or dedup windows.
        growNodeTables(static_cast<std::size_t>(ids.back()) + 1);

        switch (cfg.topology) {
          case FabricTopology::mesh:
            for (std::size_t i = 0; i < ids.size(); ++i)
                for (std::size_t j = i + 1; j < ids.size(); ++j)
                    makeLink(ids[i], ids[j]);
            break;
          case FabricTopology::star:
            for (IslandId id : ids)
                if (id != hubId)
                    makeLink(hubId, id);
            break;
          case FabricTopology::tree: {
            // BFS-heap layout over the sorted ids, root first.
            std::vector<IslandId> order;
            order.push_back(hubId);
            for (IslandId id : ids)
                if (id != hubId)
                    order.push_back(id);
            const int k = std::max(1, cfg.treeFanout);
            for (std::size_t i = 1; i < order.size(); ++i) {
                const IslandId p = order[(i - 1) / k];
                parent[order[i]] = p;
                children[p].push_back(order[i]);
                makeLink(p, order[i]);
            }
            parent[hubId] = hubId;
            break;
          }
        }
        buildRoutes(ids);
        ++routeEpoch_;
    }

    void
    makeLink(IslandId a, IslandId b)
    {
        Link &link = links[linkKey(a, b)];
        link.lo = std::min(a, b);
        link.hi = std::max(a, b);
        if (cfg.faults.any()) {
            // Per-link deterministic weather: the link's stream pair
            // derives from the master seed and the (lo, hi) ids, so
            // it is independent of construction order.
            corm::interconnect::FaultPlanParams p = cfg.faults;
            p.seed = corm::sim::SplitMix64(
                         cfg.faults.seed
                         ^ (0x9e3779b97f4a7c15ULL
                            * (static_cast<std::uint64_t>(
                                   linkKey(a, b))
                               + 1)))
                         .next();
            link.weather =
                std::make_unique<corm::interconnect::FaultPlan>(p);
            link.laneLoHi.faults = &link.weather->aToB();
            link.laneHiLo.faults = &link.weather->bToA();
        }
        link.laneLoHi.id = laneIdOf(link.lo, link.hi);
        link.laneLoHi.from = link.lo;
        link.laneLoHi.to = link.hi;
        link.laneHiLo.id = laneIdOf(link.hi, link.lo);
        link.laneHiLo.from = link.hi;
        link.laneHiLo.to = link.lo;
    }

    void
    buildRoutes(const std::vector<IslandId> &ids)
    {
        for (IslandId from : ids) {
            for (IslandId to : ids) {
                if (from == to)
                    continue;
                IslandId next = to;
                switch (cfg.topology) {
                  case FabricTopology::mesh:
                    next = to;
                    break;
                  case FabricTopology::star:
                    next = (from == hubId) ? to : hubId;
                    break;
                  case FabricTopology::tree:
                    next = treeNextHop(from, to);
                    break;
                }
                nextHop[routeKey(from, to)] = next;
            }
        }
    }

    static std::uint32_t
    routeKey(IslandId from, IslandId to)
    {
        return (static_cast<std::uint32_t>(from) << 16) | to;
    }

    IslandId
    nextHopFrom(IslandId from, IslandId to) const
    {
        auto it = nextHop.find(routeKey(from, to));
        return it == nextHop.end() ? to : it->second;
    }

    /**
     * Next hop from @p from toward @p to along the tree path. While
     * a crashed hub's orphans await re-parenting their chains dangle;
     * a broken (or cyclic) chain answers @p from itself — the
     * unroutable sentinel, which no link ever matches, so wireSend
     * attributes the message instead of throwing here.
     */
    IslandId
    treeNextHop(IslandId from, IslandId to)
    {
        // Climb from `to` toward the root; if we pass `from`, the
        // hop below it is the downward next hop. Otherwise `to` is
        // not in from's subtree and the next hop is from's parent.
        IslandId at = to;
        IslandId below = to;
        std::size_t guard = 0;
        while (at != hubId) {
            auto it = parent.find(at);
            if (it == parent.end() || ++guard > parent.size())
                return from;
            const IslandId p = it->second;
            if (p == from)
                return at;
            below = at;
            at = p;
        }
        if (from == hubId)
            return below;
        auto it = parent.find(from);
        return it == parent.end() ? from : it->second;
    }

    bool isTreeHub(IslandId node) const { return children.count(node); }

    /**
     * Forward @p msg from @p node toward msg.dst: fold eligible
     * tunes into the node's aggregation bucket, everything else
     * straight onto the next link.
     */
    void
    forwardFrom(IslandId node, const CoordMessage &msg,
                corm::sim::Tick origin, int hopsSoFar)
    {
        const IslandId next = nextHopFrom(node, msg.dst);
        if (cfg.topology == FabricTopology::tree && cfg.aggWindow > 0
            && isTreeHub(node)) {
            if (msg.type == MsgType::tune && msg.seq == 0) {
                foldInto(node, next, msg, origin);
                return;
            }
            if (msg.type == MsgType::trigger)
                stateFor(node).stats.triggerBypass.add();
        }
        wireSend(node, next, msg, origin, hopsSoFar);
    }

    void
    foldInto(IslandId node, IslandId next, const CoordMessage &msg,
             corm::sim::Tick origin)
    {
        ShardState &sst = stateFor(node);
        // (node:16, dst:16, entity:32). The next hop needs no key
        // lane: routing is deterministic, so one (node, dst) pair
        // always forwards through the same next hop (kept in the
        // bucket for the flush).
        const std::uint64_t key =
            (static_cast<std::uint64_t>(node) << 48)
            | (static_cast<std::uint64_t>(msg.dst) << 32)
            | msg.entity;
        auto it = sst.aggBuckets.find(key);
        if (it == sst.aggBuckets.end()) {
            AggBucket &b = sst.aggBuckets[key];
            b.proto = msg;
            b.proto.src = node; // the batch originates at the hub
            b.node = node;
            b.next = next;
            b.earliestOrigin = origin;
            const std::size_t depth = ++aggDepth[node];
            sst.aggHighWater = std::max(sst.aggHighWater, depth);
            if (CORM_TRACE_ACTIVE(sst.rec) && msg.trace != 0) {
                sst.rec->instant(
                    nodeTrackOn(sst, node), simFor(node).now(),
                    "agg:open", "coord",
                    {{"entity", static_cast<std::uint64_t>(msg.entity)},
                     {"dst", static_cast<int>(msg.dst)}});
            }
            simFor(node).schedule(cfg.aggWindow,
                                  [this, key] { flushBucket(key); });
            return;
        }
        AggBucket &b = it->second;
        sst.stats.aggFolded.add();
        b.proto.value += msg.value;
        b.proto.coalesced += msg.coalesced;
        b.earliestOrigin = std::min(b.earliestOrigin, origin);
        if (CORM_TRACE_ACTIVE(sst.rec) && msg.trace != 0
            && msg.trace != b.proto.trace) {
            // The folded contributor's span ends here; the batch
            // carries the first contributor's span onward.
            sst.rec->instant(
                nodeTrackOn(sst, node), simFor(node).now(), "agg:fold",
                "coord",
                {{"entity", static_cast<std::uint64_t>(msg.entity)}});
            sst.rec->flowEnd(nodeTrackOn(sst, node), simFor(node).now(),
                             msg.trace, "coord.span", "coord");
        }
    }

    void
    flushBucket(std::uint64_t key)
    {
        // The owning node rides in the key's top 16 bits, locating
        // the shard state on whichever thread the flush timer fires.
        const IslandId node = static_cast<IslandId>(key >> 48);
        ShardState &sst = stateFor(node);
        auto it = sst.aggBuckets.find(key);
        if (it == sst.aggBuckets.end())
            return;
        AggBucket b = std::move(it->second);
        sst.aggBuckets.erase(it);
        if (aggDepth[b.node] > 0)
            --aggDepth[b.node];
        sst.stats.aggBatches.add();
        if (CORM_TRACE_ACTIVE(sst.rec) && b.proto.trace != 0) {
            sst.rec->instant(
                nodeTrackOn(sst, b.node), nowFor(b.node),
                "agg:flush", "coord",
                {{"coalesced",
                  static_cast<std::uint64_t>(b.proto.coalesced)},
                 {"entity",
                  static_cast<std::uint64_t>(b.proto.entity)}});
        }
        wireSend(b.node, b.next, b.proto, b.earliestOrigin, 0);
    }

    /**
     * Put @p msg on the link from @p from to @p to: flight
     * bookkeeping, then the first wire attempt. The delivery is a
     * boundary message posted through the engine; a transmitted
     * flight is erased at once — the record only feeds drop/replay
     * chains, and the payload rides the boundary message, so the
     * receiving shard never touches this shard's flight map.
     */
    void
    wireSend(IslandId from, IslandId to, const CoordMessage &msg,
             corm::sim::Tick origin, int hopsSoFar)
    {
        ShardState &st = stateFor(from);
        auto lk = links.find(linkKey(from, to));
        if (lk == links.end()) {
            // Topology changed under an in-flight message: the next
            // hop is gone (or routing answered the unroutable
            // sentinel). Attribute rather than lose the delta.
            dropAttributed(from, msg, from, to);
            return;
        }
        const std::uint64_t tag = ++st.nextTag;
        Flight &f = st.flights[tag];
        f.msg = msg;
        f.originSentAt = origin;
        f.from = from;
        f.to = to;
        f.hopsSoFar = hopsSoFar;
        f.attempts = 1;
        f.timeout = cfg.replayTimeout;
        st.stats.wireMessages.add();
        if (msg.type == MsgType::tune)
            st.stats.wireTunes.add();
        ++wireFrom[from];
        transmit(st, lk->second, tag);
    }

    /** One wire attempt of a flight (first send or replay). */
    void
    transmit(ShardState &st, Link &link, std::uint64_t tag)
    {
        auto it = st.flights.find(tag);
        Flight &f = it->second;
        Lane &lane = link.laneFrom(f.from);
        // Barrier-time churn actions (a leave's bucket flush, say)
        // transmit while the shard sims are parked at placement-
        // dependent ticks: nowFor serves the barrier tick there and
        // the owning sim's clock during a window.
        const corm::sim::Tick tnow = nowFor(f.from);
        // Logged before the fault roll, so the stall watchdog sees
        // attempts the weather ate.
        if (laneActivity_)
            st.laneLog.push_back(
                {tnow, lane.id, ++st.laneLogSeq, false});
        corm::interconnect::FaultAction act;
        if (lane.faults)
            act = lane.faults->apply(tnow);
        if (act.drop) {
            if (CORM_TRACE_ACTIVE(st.rec))
                st.rec->instant(laneTrackOn(st, lane), tnow,
                                "hop:drop", "coord");
            dropFlight(st, it);
            return;
        }
        // Base latency plus weather delay, clamped to in-order
        // delivery unless reordering was drawn.
        corm::sim::Tick when =
            tnow + cfg.hopLatency + act.extraDelay;
        if (!act.reorder) {
            when = std::max(when, lane.lastDelivery);
            lane.lastDelivery = when;
        }
        if (CORM_TRACE_ACTIVE(st.rec)) {
            // The sender already knows the delivery tick, so the hop
            // slice is emitted at transmit and stays on the sender's
            // shard (single-writer tracks). The flow step on the lane
            // track is the stitch between the sender-side span and
            // the receiver-side continuation.
            st.rec->complete(
                laneTrackOn(st, lane), tnow, when - tnow,
                std::string("hop:") + msgTypeName(f.msg.type), "coord",
                {{"entity", static_cast<std::uint64_t>(f.msg.entity)},
                 {"seq", static_cast<int>(f.msg.seq)},
                 {"hop", f.hopsSoFar + 1}});
            if (f.msg.trace != 0)
                st.rec->flowStep(laneTrackOn(st, lane), tnow,
                                 f.msg.trace, "coord.span", "coord");
        }
        corm::sim::ShardMessage e;
        e.when = when;
        e.seq = ++lane.nextSeq;
        e.lane = lane.id;
        e.node = f.to;
        e.hops = static_cast<std::uint16_t>(f.hopsSoFar);
        e.w0 = f.msg.encodeWord0();
        e.w1 = f.msg.encodeWord1();
        e.w2 = f.msg.encodeWord2();
        e.origin = f.originSentAt;
        e.flow = f.msg.trace;
        e.aux = f.msg.coalesced;
        engine_.post(shardOfNode(f.from), shardOfNode(f.to), e);
        noteInFlight(st, lane, tnow, when);
        if (act.duplicate && lane.faults) {
            // Second copy; the receiver counts it and drops it.
            corm::sim::ShardMessage d = e;
            d.when = when + lane.faults->params().dupOffset;
            d.seq = ++lane.nextSeq;
            d.flags |= corm::sim::ShardMessage::flagDuplicate;
            engine_.post(shardOfNode(f.from), shardOfNode(f.to), d);
            noteInFlight(st, lane, tnow, d.when);
        }
        st.flights.erase(it);
    }

    /**
     * Queue-depth accounting for one copy entering @p lane at
     * @p now, due at @p when: copies due by @p now have landed. Only
     * the sender's shard writes the lane, so the depth is a pure
     * function of the lane's own send history.
     */
    static void
    noteInFlight(ShardState &st, Lane &lane, corm::sim::Tick now,
                 corm::sim::Tick when)
    {
        auto &q = lane.inFlight;
        const auto later = std::greater<corm::sim::Tick>();
        while (!q.empty() && q.front() <= now) {
            std::pop_heap(q.begin(), q.end(), later);
            q.pop_back();
        }
        q.push_back(when);
        std::push_heap(q.begin(), q.end(), later);
        st.laneQueueHighWater = std::max(st.laneQueueHighWater, q.size());
    }

    /** Weather ate a wire attempt: back off or abandon. */
    void
    dropFlight(ShardState &st, std::map<std::uint64_t, Flight>::iterator it)
    {
        Flight &f = it->second;
        st.stats.linkDrops.add();
        if (f.attempts > cfg.replayAttempts) {
            abandonFlight(st, it);
            return;
        }
        const corm::sim::Tick wait = f.timeout;
        const double next = static_cast<double>(f.timeout)
            * (cfg.replayBackoff > 1.0 ? cfg.replayBackoff : 1.0);
        f.timeout = std::min(
            cfg.replayCap, static_cast<corm::sim::Tick>(next));
        const IslandId from = f.from;
        const std::uint64_t tag = it->first;
        simFor(from).schedule(
            wait, [this, from, tag] { replayFlight(from, tag); });
    }

    void
    replayFlight(IslandId from, std::uint64_t tag)
    {
        ShardState &st = stateFor(from);
        auto it = st.flights.find(tag);
        if (it == st.flights.end())
            return;
        Flight &f = it->second;
        auto lk = links.find(linkKey(f.from, f.to));
        if (lk == links.end()) {
            abandonFlight(st, it);
            return;
        }
        ++f.attempts;
        st.stats.linkReplays.add();
        st.stats.wireMessages.add();
        if (f.msg.type == MsgType::tune)
            st.stats.wireTunes.add();
        ++wireFrom[f.from];
        if (CORM_TRACE_ACTIVE(st.rec)) {
            Lane &lane = lk->second.laneFrom(f.from);
            st.rec->instant(laneTrackOn(st, lane), simFor(from).now(),
                            std::string("replay:")
                                + msgTypeName(f.msg.type),
                            "coord", {{"attempt", f.attempts}});
        }
        transmit(st, lk->second, tag);
    }

    /**
     * Replay budget exhausted. The notification is queued, not
     * delivered: abandon observers mutate scenario state and must
     * only run on the coordinator (drainAbandoned).
     */
    void
    abandonFlight(ShardState &st,
                  std::map<std::uint64_t, Flight>::iterator it)
    {
        const CoordMessage msg = it->second.msg;
        const IslandId from = it->second.from, to = it->second.to;
        st.flights.erase(it);
        st.stats.abandoned.add();
        const std::uint64_t laneId = laneIdOf(from, to);
        const corm::sim::Tick when = simFor(from).now();
        if (CORM_TRACE_ACTIVE(st.rec)) {
            // Deliberately no flowEnd: an abandoned message's span
            // dangles (begin/steps without end), which is exactly
            // what the trace shows for information that was lost.
            st.rec->instant(
                laneTrackOn(st, laneId, from, to), when, "abandon",
                "coord",
                {{"entity", static_cast<std::uint64_t>(msg.entity)}});
        }
        if (onAbandon)
            st.abandonedQueue.push_back(
                {msg, when, laneId, ++st.abandonSeq});
    }

    /**
     * Delivery sink: a boundary message reached its destination
     * shard. Runs on that shard's thread; the decoded message
     * rejoins the normal relay / final-delivery path.
     */
    void
    onLaneDeliver(const corm::sim::ShardMessage &e)
    {
        const IslandId node = e.node;
        ShardState &st = stateFor(node);
        // Every arriving copy counts as lane activity, duplicates
        // included.
        if (laneActivity_)
            st.laneLog.push_back({simFor(node).now(), e.lane,
                                  ++st.laneLogSeq, true});
        if (e.flags & corm::sim::ShardMessage::flagDuplicate) {
            st.stats.duplicates.add();
            if (CORM_TRACE_ACTIVE(st.rec)) {
                const CoordMessage m =
                    CoordMessage::decode(e.w0, e.w1, e.w2);
                st.rec->instant(nodeTrackOn(st, node),
                                simFor(node).now(),
                                std::string("hop:dup:")
                                    + msgTypeName(m.type),
                                "coord");
            }
            return;
        }
        ++wireInto[node];
        CoordMessage msg = CoordMessage::decode(e.w0, e.w1, e.w2);
        msg.trace = e.flow;
        msg.coalesced = e.aux;
        const int hops = e.hops + 1;
        if (node != msg.dst) {
            st.stats.hubRelays.add();
            if (CORM_TRACE_ACTIVE(st.rec) && msg.trace != 0)
                st.rec->flowStep(nodeTrackOn(st, node),
                                 simFor(node).now(), msg.trace,
                                 "coord.span", "coord");
            forwardFrom(node, msg, e.origin, hops);
            return;
        }
        if (CORM_TRACE_ACTIVE(st.rec) && msg.trace != 0) {
            // Final hop of the span: an ack ending a reliable chain
            // or a fire-and-forget apply both terminate here; a
            // sequenced request still has its ack leg ahead.
            if (msg.type == MsgType::ack || msg.seq == 0)
                st.rec->flowEnd(nodeTrackOn(st, node),
                                simFor(node).now(), msg.trace,
                                "coord.span", "coord");
            else
                st.rec->flowStep(nodeTrackOn(st, node),
                                 simFor(node).now(), msg.trace,
                                 "coord.span", "coord");
        }
        finalDeliver(msg, e.origin, hops);
    }

    void
    finalDeliver(const CoordMessage &msg, corm::sim::Tick origin,
                 int hops)
    {
        ShardState &sst = stateFor(msg.dst);
        auto dit = islands.find(msg.dst);
        if (dit == islands.end()) {
            // Destination departed while the message was in flight.
            dropAttributed(msg.dst, msg, msg.src, msg.dst);
            return;
        }
        ResourceIsland &dst = *dit->second;
        if (!migrated_.empty()
            && (msg.type == MsgType::tune
                || msg.type == MsgType::trigger)) {
            const IslandId home = resolveEntity(msg.dst, msg.entity);
            if (home != msg.dst) {
                // Live-migration forwarding. Dedup is consulted at
                // the old home FIRST (lookup-only): a retry whose
                // original applied here pre-migration is re-acked,
                // never forwarded — the exactly-once half the new
                // home cannot see. A miss forwards without claiming
                // the key, so the new home's window stays
                // authoritative for the forwarded copy.
                if (msg.seq != 0 && seenContains(msg.dst, msg)) {
                    sst.stats.duplicates.add();
                    sendAckFor(dst, msg);
                    return;
                }
                sst.stats.migForwards.add();
                CoordMessage onward = msg;
                onward.dst = home;
                forwardFrom(msg.dst, onward, origin, hops);
                return;
            }
        }
        sst.stats.delivered.add();
        sst.stats.deliveryLatencyUs.record(
            corm::sim::toMicros(simFor(msg.dst).now() - origin));
        sst.stats.hopsPerDelivery.record(static_cast<double>(hops));
        // Idempotent endpoint dedup of sequenced messages: a
        // reliable retransmission whose original got through applies
        // at most once but is re-acked so the sender stops retrying.
        if (msg.seq != 0 && msg.type != MsgType::ack
            && seenRecently(msg.dst, msg)) {
            sst.stats.duplicates.add();
            sendAckFor(dst, msg);
            return;
        }
        corm::obs::TraceScope span(sst.rec, msg.trace,
                                   msg.seq == 0);
        switch (msg.type) {
          case MsgType::tune:
            sst.stats.appliedTunes.add(msg.coalesced);
            dst.applyTune(msg.entity, msg.value);
            if (msg.seq != 0)
                sendAckFor(dst, msg);
            break;
          case MsgType::trigger:
            dst.applyTrigger(msg.entity);
            if (msg.seq != 0)
                sendAckFor(dst, msg);
            break;
          case MsgType::registerEntity: {
            EntityBinding binding;
            binding.ref = EntityRef{msg.src, msg.entity};
            binding.ip = corm::net::IpAddr(
                static_cast<std::uint32_t>(
                    std::bit_cast<std::uint64_t>(msg.value)));
            dst.learnBinding(binding);
            // Registrations are acknowledged even without a seq so
            // the announcer can retry losses.
            sendAckFor(dst, msg);
            break;
          }
          case MsgType::ack: {
            auto it = ackObservers.find(msg.dst);
            if (it != ackObservers.end() && it->second)
                it->second(msg);
            dispatchAckMulti(msg);
            break;
          }
        }
    }

    /**
     * Dispatch an ack to the token observers at its endpoint. A
     * callback may register or unregister observers (even destroy
     * its own sender), so iterate a snapshot and re-check each
     * token's liveness before calling — a callback belonging to a
     * sender an earlier callback destroyed must not run.
     */
    void
    dispatchAckMulti(const CoordMessage &msg)
    {
        auto mit = ackMulti_.find(msg.dst);
        if (mit == ackMulti_.end())
            return;
        const std::vector<AckEntry> snap = mit->second;
        for (const AckEntry &e : snap) {
            auto again = ackMulti_.find(msg.dst);
            if (again == ackMulti_.end())
                break;
            bool alive = false;
            for (const AckEntry &cur : again->second) {
                if (cur.token == e.token) {
                    alive = true;
                    break;
                }
            }
            if (alive && e.fn)
                e.fn(msg);
        }
    }

    void
    sendAckFor(ResourceIsland &learner, const CoordMessage &msg)
    {
        CoordMessage ack;
        ack.type = MsgType::ack;
        ack.src = learner.id();
        ack.dst = msg.src;
        ack.entity = msg.entity;
        ack.seq = msg.seq;     // echo: the sender matches by seq
        ack.trace = msg.trace; // the return legs stay on the span
        send(ack);
    }

    /**
     * Endpoint dedup key. The type is part of the key: two reliable
     * senders sharing a source endpoint (an announcer and a trigger
     * sender, say) each start their sequence space at 1, and a
     * window keyed on (src, seq) alone would eat the second sender's
     * first messages as replays of the first's. The packed lanes are
     * (type:8 << 48) | (src:16 << 32) | seq:32 — full-width, so no
     * two distinct (type, src, seq) triples ever alias. The key is
     * independent of the route taken, which is what makes dedup
     * stable across a re-parent: a tune re-driven under a new route
     * still matches the copy that slipped through the old one.
     */
    static std::uint64_t
    seenKey(const CoordMessage &msg)
    {
        return (static_cast<std::uint64_t>(msg.type) << 48)
            | (static_cast<std::uint64_t>(msg.src) << 32)
            | static_cast<std::uint64_t>(msg.seq);
    }

    /** True if (type, src, seq) was recently applied at @p endpoint;
     *  records the key on a miss. */
    bool
    seenRecently(IslandId endpoint, const CoordMessage &msg)
    {
        const std::uint64_t key = seenKey(msg);
        SeenWindow &w = seen[endpoint];
        for (std::uint64_t k : w.keys) {
            if (k == key)
                return true;
        }
        w.keys[w.head++ % w.keys.size()] = key;
        return false;
    }

    /** Lookup-only probe of the dedup window (no recording): the
     *  forwarding path, where the old home must not claim keys it
     *  never applied. */
    bool
    seenContains(IslandId endpoint, const CoordMessage &msg) const
    {
        const std::uint64_t key = seenKey(msg);
        const SeenWindow &w = seen[endpoint];
        for (std::uint64_t k : w.keys)
            if (k == key)
                return true;
        return false;
    }

    /** Per-island trace track on @p st's recorder (lazy): relays,
     *  aggregation, applies. */
    int
    nodeTrackOn(ShardState &st, IslandId node)
    {
        auto it = st.nodeTracks.find(node);
        if (it != st.nodeTracks.end())
            return it->second;
        const int trk = st.rec->track(
            "fabric", cfg.name + "@" + std::to_string(node));
        st.nodeTracks[node] = trk;
        return trk;
    }

    /**
     * Directional lane track on @p st's recorder (lazy). Directional,
     * so each lane track is written only by its sender shard.
     */
    int
    laneTrackOn(ShardState &st, std::uint64_t laneId, IslandId from,
                IslandId to)
    {
        auto it = st.laneTracks.find(laneId);
        if (it != st.laneTracks.end())
            return it->second;
        const int trk = st.rec->track("fabric", laneName(from, to));
        st.laneTracks[laneId] = trk;
        return trk;
    }

    int
    laneTrackOn(ShardState &st, const Lane &lane)
    {
        return laneTrackOn(st, lane.id, lane.from, lane.to);
    }

    /** "<name>.<from>-<to>": lane and lane-track name. */
    std::string
    laneName(IslandId from, IslandId to) const
    {
        return cfg.name + "." + std::to_string(from) + "-"
            + std::to_string(to);
    }

    /**
     * Directional lane id: (linkKey << 1) | direction bit — a pure
     * function of the endpoint ids, 64-bit so the 32-bit link key
     * shifts without truncation.
     */
    static std::uint64_t
    laneIdOf(IslandId from, IslandId to)
    {
        return (static_cast<std::uint64_t>(linkKey(from, to)) << 1)
            | (from < to ? 0u : 1u);
    }

    struct SeenWindow
    {
        std::array<std::uint64_t, 64> keys{};
        std::size_t head = 0;
    };

    /** Shard owning @p node. */
    int
    shardOfNode(IslandId node) const
    {
        return static_cast<std::size_t>(node) < shardOf.size()
                   ? shardOf[node]
                   : 0;
    }

    ShardState &
    stateFor(IslandId node)
    {
        return states[static_cast<std::size_t>(shardOfNode(node))];
    }

    /** Simulator that @p node's events run on. */
    corm::sim::Simulator &
    simFor(IslandId node)
    {
        return engine_.sim(shardOfNode(node));
    }

    /** Fold @p s into @p into (counter sums, Summary merges). */
    static void
    foldStats(FabricStats &into, const FabricStats &s)
    {
        into.sent.add(s.sent.value());
        into.delivered.add(s.delivered.value());
        into.dropped.add(s.dropped.value());
        into.hubRelays.add(s.hubRelays.value());
        into.wireMessages.add(s.wireMessages.value());
        into.wireTunes.add(s.wireTunes.value());
        into.appliedTunes.add(s.appliedTunes.value());
        into.linkDrops.add(s.linkDrops.value());
        into.linkReplays.add(s.linkReplays.value());
        into.abandoned.add(s.abandoned.value());
        into.duplicates.add(s.duplicates.value());
        into.aggFolded.add(s.aggFolded.value());
        into.aggBatches.add(s.aggBatches.value());
        into.triggerBypass.add(s.triggerBypass.value());
        into.migForwards.add(s.migForwards.value());
        into.retries.add(s.retries.value());
        into.deliveryLatencyUs.merge(s.deliveryLatencyUs);
        into.hopsPerDelivery.merge(s.hopsPerDelivery);
    }

    corm::sim::ShardedEngine &engine_;
    FabricParams cfg;
    /** Per-shard mutable state, one entry per engine shard. */
    std::vector<ShardState> states;
    std::vector<int> shardOf; ///< island id -> shard
    mutable FabricStats merged_; ///< stats() scratch (several shards)
    IslandId hubId = 0;
    bool dirty = true;
    std::map<IslandId, ResourceIsland *> islands;
    std::map<std::uint32_t, Link> links;
    std::map<std::uint32_t, IslandId> nextHop;
    std::map<IslandId, IslandId> parent;
    std::map<IslandId, std::vector<IslandId>> children;
    // Node-indexed tallies, sized from the attached topology at
    // ensureBuilt() (highest island id + 1): the 16-bit id space is
    // too large for fixed flat tables, and small runs shouldn't pay
    // for islands they never attach. Each entry has a single writer
    // (the owner shard), and the vectors only grow, never shrink.
    std::vector<std::uint64_t> wireFrom;
    std::vector<std::uint64_t> wireInto;
    std::vector<std::size_t> aggDepth;
    std::vector<SeenWindow> seen;
    std::map<IslandId, std::function<void(const CoordMessage &)>>
        ackObservers;
    /** One token-registered ack observer (see addAckObserver). */
    struct AckEntry
    {
        std::uint64_t token = 0;
        std::function<void(const CoordMessage &)> fn;
    };
    std::map<IslandId, std::vector<AckEntry>> ackMulti_;
    std::uint64_t ackToken_ = 0;
    std::uint64_t routeEpoch_ = 0;
    ChurnCounters churn_;
    /** Barrier tick override while a churn action runs (ChurnScope). */
    corm::sim::Tick churnNow_ = 0;
    std::vector<PendingReparent> pendingReparents_;
    /** (old home, entity) -> new home forwarding pointers. */
    std::map<std::uint64_t, IslandId> migrated_;
    AbandonFn onAbandon;
    bool laneActivity_ = false;
    std::vector<LaneEvent> laneScratch_;     ///< drain scratch
    std::vector<AbandonRecord> abandonScratch_;
    corm::sim::Logger logger{"coord.fabric"};
};

} // namespace corm::coord
