/**
 * @file
 * Experiment scenario implementations. Parameter choices and their
 * calibration against the paper's reported shapes are documented in
 * EXPERIMENTS.md.
 */

#include "platform/scenarios.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "obs/flowprofile.hpp"
#include "obs/monitor.hpp"
#include "obs/shardcapture.hpp"
#include "sim/sharded.hpp"

namespace corm::platform {

using corm::net::IpAddr;
using corm::net::PacketPtr;
using corm::sim::msec;
using corm::sim::sec;
using corm::sim::Tick;
using corm::sim::usec;

//
// BackgroundLoad
//

BackgroundLoad::BackgroundLoad(corm::sim::Simulator &simulator,
                               corm::xen::Domain &dom, Tick slice_,
                               double duty_, int vcpu_)
    : sim(simulator), target(dom), slice(slice_), duty(duty_), vcpu(vcpu_)
{}

void
BackgroundLoad::start()
{
    running = true;
    pump();
}

void
BackgroundLoad::pump()
{
    if (!running)
        return;
    target.submit(slice, corm::xen::JobKind::user,
                  [this] {
                      if (duty >= 1.0) {
                          pump();
                          return;
                      }
                      const auto idle = static_cast<Tick>(
                          static_cast<double>(slice) * (1.0 - duty)
                          / duty);
                      sim.schedule(idle, [this] { pump(); });
                  },
                  vcpu);
}

//
// RUBiS scenario
//

RubisScenarioConfig::RubisScenarioConfig()
{
    client.concurrentSessions = 60;
    client.thinkTimeMean = 250 * msec;
    client.sessionLengthMean = 50.0;
    client.mix = apps::rubis::Mix::bidBrowseSell;

    // The 2010 prototype runs the literal credit1 scheduler; its
    // class-FIFO latency behaviour is what the coordination acts on.
    testbed.sched.creditOrderedDispatch = false;

    // Dom0 carries the messaging driver and every bridge hop; give
    // it the elevated weight operators configure so guest tuning
    // cannot starve the I/O path (applies to base and coordinated
    // runs alike).
    testbed.dom0Weight = 512.0;

    // Per-request tunes ride between these bounds (the XenCtl range
    // the operators expose); a narrow band keeps the bang-bang
    // dynamics responsive to request bursts at the ~100 ms scale.
    testbed.sched.minWeight = 64.0;
    testbed.sched.maxWeight = 1024.0;
}

RubisResult
runRubisScenario(const RubisScenarioConfig &cfg)
{
    Testbed tb(cfg.testbed);
    auto &web = tb.addGuest("web-server", IpAddr{10, 0, 0, 2},
                            cfg.tierWeight);
    auto &app = tb.addGuest("app-server", IpAddr{10, 0, 0, 3},
                            cfg.tierWeight);
    auto &db = tb.addGuest("db-server", IpAddr{10, 0, 0, 4},
                           cfg.tierWeight);

    apps::rubis::RubisServer server(tb.sim(), *web.vif, *app.vif, *db.vif,
                                    tb.bridge(), tb.packets(), cfg.server);
    apps::rubis::RubisClient client(tb.sim(), tb.ixp(), web.vif->ip(),
                                    tb.packets(), cfg.client);
    tb.setWireSink(cfg.client.clientIp,
                   [&client](const PacketPtr &p) { client.onWirePacket(p); });

    coord::RequestTypeTunePolicy policy(cfg.damping);
    std::unique_ptr<coord::ReliableSender> reliable;
    if (cfg.coordination) {
        tb.x86().setTuneDecay(cfg.tuneDecayTau);
        apps::rubis::installRubisAdjustments(policy, web.ref, app.ref,
                                             db.ref, cfg.tuneDelta,
                                             cfg.gains);
        tb.attachPolicy(policy);
        if (cfg.reliableTunes) {
            // Route Tunes through ack + retry instead of
            // fire-and-forget. The announcer's sender is pinned to
            // the x86 endpoint, so an IXP-side sender coexists.
            reliable = std::make_unique<coord::ReliableSender>(
                tb.sim(), tb.channel(), tb.ixp().id(),
                cfg.reliableParams);
            if (cfg.testbed.trace != nullptr)
                reliable->setTrace(cfg.testbed.trace);
            policy.attachSender(
                tb.ixp().id(),
                [&rel = *reliable](const coord::CoordMessage &m) {
                    rel.send(m);
                });
        }
    }

    // Let the entity registrations cross the coordination channel
    // before traffic arrives, as at real system bring-up.
    tb.run(1 * msec);
    client.start();
    tb.run(cfg.warmup);
    tb.beginMeasurement();
    client.resetStats();
    tb.run(cfg.measure);

    RubisResult r;
    const Tick elapsed = tb.measuredElapsed();
    for (const auto &spec : apps::rubis::requestCatalog()) {
        const auto &s = client.typeStats(spec.type).responseMs;
        RubisResult::TypeRow row;
        row.name = spec.name;
        row.count = s.count();
        row.minMs = s.min();
        row.maxMs = s.max();
        row.meanMs = s.mean();
        row.stddevMs = s.stddev();
        r.types.push_back(std::move(row));
    }
    r.throughputRps = static_cast<double>(client.completedRequests())
        / corm::sim::toSeconds(elapsed);
    r.sessionsCompleted = client.completedSessions();
    r.avgSessionSec = client.sessionSeconds().mean();
    r.webCpuPct = tb.guestCpuPct(web);
    r.appCpuPct = tb.guestCpuPct(app);
    r.dbCpuPct = tb.guestCpuPct(db);
    r.webIowaitPct = tb.guestIowaitPct(web);
    r.appIowaitPct = tb.guestIowaitPct(app);
    r.dbIowaitPct = tb.guestIowaitPct(db);
    {
        const auto &u = tb.dom0().cpuUsage();
        using K = corm::sim::UtilizationTracker::Kind;
        r.dom0CpuPct = 100.0
            * static_cast<double>(u.busy(K::user) + u.busy(K::system))
            / static_cast<double>(elapsed);
    }
    const double total_util =
        (r.webCpuPct + r.appCpuPct + r.dbCpuPct) / 100.0;
    r.platformEfficiency =
        total_util > 0.0 ? r.throughputRps / total_util : 0.0;
    r.tunesSent = policy.tunesSent();
    r.tunesApplied = tb.x86().totalTunes();
    {
        const auto &cs = tb.channel().stats();
        r.chanDropped = cs.dropped.value();
        r.chanDuplicates = cs.duplicates.value();
        r.chanReorders = cs.reorders.value();
        r.chanRetries = cs.retries.value();
        r.chanOutageMs = tb.channel().health().outageTimeUs / 1000.0;
        r.regsAcked = tb.announcer().acked();
        r.regsAbandoned = tb.announcer().abandoned();
        r.regsPending = tb.announcer().pendingCount();
    }
    r.meanResponseMs = client.allResponsesMs().mean();
    r.minResponseMs = client.allResponsesMs().min();
    r.dbLockWaitMeanMs = server.dbLockWaitMs().mean();
    r.dbLockWaitMaxMs = server.dbLockWaitMs().max();
    {
        const auto &bd = client.breakdown();
        r.ingressMs = bd.ingressMs.mean();
        r.webMs = bd.tierMs[0].mean();
        r.appMs = bd.tierMs[1].mean();
        r.dbMs = bd.tierMs[2].mean();
        r.hopsMs = bd.hopsMs.mean();
        r.egressMs = bd.egressMs.mean();
    }
    r.webWeight = web.dom->weight();
    r.appWeight = app.dom->weight();
    r.dbWeight = db.dom->weight();
    r.eventsExecuted = tb.sim().executedEvents();
    if (cfg.inspect)
        cfg.inspect(tb);
    return r;
}

//
// MPlayer weight QoS (Fig. 6)
//

MplayerQosConfig::MplayerQosConfig()
{
    testbed.dom0Vcpus = 1; // polling, bridge and qemu-dm share it
    testbed.sched.creditOrderedDispatch = false; // 2010 credit1

    stream1.fps = 20.0;
    stream1.bitrateBps = 300e3;
    stream1.prebufferSec = 3.0;
    stream1.streamId = 1;

    stream2.fps = 25.0;
    stream2.bitrateBps = 1e6;
    stream2.prebufferSec = 3.0;
    stream2.streamId = 2;

    // Decode costs put Domain-1 at ~0.52 and Domain-2 at ~0.66 of a
    // core at nominal rate — just above their default-weight shares
    // and just below their tuned shares, which is what makes the
    // Fig. 6 weight steps flip them between missing and meeting
    // their frame-rate floors. See EXPERIMENTS.md.
    decode1.baseCostPerFrame = 25 * msec;
    decode1.costPerKib = 1 * msec;
    decode1.lateDeadline = 700 * msec;

    decode2.baseCostPerFrame = 22400 * usec;
    decode2.costPerKib = 1 * msec;
    decode2.lateDeadline = 700 * msec;
}

MplayerQosResult
runMplayerQos(const MplayerQosConfig &cfg)
{
    TestbedParams tp = cfg.testbed;
    tp.dom0Weight = cfg.dom0Weight;
    Testbed tb(tp);

    auto &dom1 = tb.addGuest("mplayer-dom1", IpAddr{10, 0, 1, 2},
                             cfg.weight1);
    auto &dom2 = tb.addGuest("mplayer-dom2", IpAddr{10, 0, 1, 3},
                             cfg.weight2);

    apps::mplayer::MplayerClient c1(tb.sim(), *dom1.vif, cfg.decode1);
    apps::mplayer::MplayerClient c2(tb.sim(), *dom2.vif, cfg.decode2);

    apps::mplayer::StreamingServer::Params sp1;
    sp1.stream = cfg.stream1;
    sp1.serverIp = IpAddr{10, 0, 9, 2};
    apps::mplayer::StreamingServer s1(tb.sim(), tb.ixp(), dom1.vif->ip(),
                                      tb.packets(), sp1);
    apps::mplayer::StreamingServer::Params sp2;
    sp2.stream = cfg.stream2;
    sp2.serverIp = IpAddr{10, 0, 9, 3};
    apps::mplayer::StreamingServer s2(tb.sim(), tb.ixp(), dom2.vif->ip(),
                                      tb.packets(), sp2);

    // Heavy Dom0 device-emulation load (HVM qemu-dm era), the CPU
    // the guests' weight increases reclaim.
    BackgroundLoad qemu(tb.sim(), tb.dom0(), 2 * msec, 1.0, 0);
    if (cfg.dom0Background)
        qemu.start();

    coord::StreamQosTunePolicy policy(cfg.autoCfg);
    if (cfg.autoCoordination)
        tb.attachPolicy(policy);

    if (cfg.ixpThreadBonus2 > 0.0) {
        // "increase the number of IXP threads servicing Domain-2's
        // receive queue in tandem" — expressed through the island's
        // own Tune translation (threadsPerTuneUnit).
        tb.ixp().applyTune(dom2.entity,
                           cfg.ixpThreadBonus2 * 256.0);
    }

    tb.run(1 * msec); // registrations cross the channel first
    s1.start();
    s2.start();
    tb.run(cfg.warmup);
    tb.beginMeasurement();
    c1.resetStats();
    c2.resetStats();
    tb.run(cfg.measure);

    MplayerQosResult r;
    const Tick elapsed = tb.measuredElapsed();
    r.fps1 = c1.fps(elapsed);
    r.fps2 = c2.fps(elapsed);
    r.late1 = c1.framesDroppedLate();
    r.late2 = c2.framesDroppedLate();
    r.cpu1Pct = tb.guestCpuPct(dom1);
    r.cpu2Pct = tb.guestCpuPct(dom2);
    {
        const auto &u = tb.dom0().cpuUsage();
        using K = corm::sim::UtilizationTracker::Kind;
        r.dom0Pct = 100.0
            * static_cast<double>(u.busy(K::user) + u.busy(K::system))
            / static_cast<double>(elapsed);
    }
    r.weight1End = dom1.dom->weight();
    r.weight2End = dom2.dom->weight();
    r.eventsExecuted = tb.sim().executedEvents();
    if (cfg.inspect)
        cfg.inspect(tb);
    return r;
}

//
// Buffer-threshold Trigger (Fig. 7, Table 3)
//

TriggerScenarioConfig::TriggerScenarioConfig()
{
    testbed.dom0Vcpus = 2;
    testbed.sched.creditOrderedDispatch = false; // 2010 credit1
    testbed.ringSlots = 64; // small host ring: bursts back-pressure

    stream1.fps = 25.0;
    stream1.bitrateBps = 1e6;
    stream1.prebufferSec = 4.0;
    stream1.streamId = 1;

    decode1.baseCostPerFrame = 26 * msec;
    decode1.costPerKib = 1 * msec;
    // Streaming players keep a deep playout buffer; a frame is only
    // skipped once it is hopelessly behind.
    decode1.lateDeadline = 6600 * msec;

    triggerCfg.thresholdBytes = 128 * 1024;
    triggerCfg.minGap = 50 * msec;
}

TriggerScenarioResult
runTriggerScenario(const TriggerScenarioConfig &cfg)
{
    Testbed tb(cfg.testbed);
    auto &dom1 = tb.addGuest("mplayer-net", IpAddr{10, 0, 2, 2}, 256.0);
    auto &dom2 = tb.addGuest("mplayer-disk", IpAddr{10, 0, 2, 3}, 256.0);

    apps::mplayer::MplayerClient c1(tb.sim(), *dom1.vif, cfg.decode1);
    apps::mplayer::DiskPlayer d2(*dom2.dom, cfg.diskFrameCost);

    // Dom0 housekeeping load: keeps the host contended enough that
    // scheduling position matters during burst drains.
    BackgroundLoad dom0bg(tb.sim(), tb.dom0(), 2 * msec,
                          cfg.dom0BackgroundDuty, 1);
    if (cfg.dom0BackgroundDuty > 0.0)
        dom0bg.start();

    apps::mplayer::StreamingServer::Params sp;
    sp.stream = cfg.stream1;
    sp.pacing = apps::mplayer::Pacing::bursty;
    sp.burstSec = cfg.burstSec;
    apps::mplayer::StreamingServer server(tb.sim(), tb.ixp(),
                                          dom1.vif->ip(), tb.packets(),
                                          sp);

    coord::BufferThresholdTriggerPolicy policy(cfg.triggerCfg);
    if (cfg.trigger)
        tb.attachPolicy(policy);

    tb.run(1 * msec); // registrations cross the channel first
    d2.start();
    server.start();
    tb.run(cfg.warmup);
    tb.beginMeasurement();
    c1.resetStats();
    d2.resetStats();

    // Fig. 7 CPU-utilisation series for the boosted domain.
    TriggerScenarioResult r;
    Tick last_busy = 0;
    corm::sim::PeriodicEvent sampler(
        tb.sim(), cfg.cpuSamplePeriod, [&] {
            using K = corm::sim::UtilizationTracker::Kind;
            const auto &u = dom1.dom->cpuUsage();
            const Tick busy = u.busy(K::user) + u.busy(K::system);
            r.cpu1Series.record(
                tb.sim().now(),
                100.0 * static_cast<double>(busy - last_busy)
                    / static_cast<double>(cfg.cpuSamplePeriod));
            last_busy = busy;
        });

    const Tick measure_start = tb.sim().now();
    tb.run(cfg.measure);

    const Tick elapsed = tb.measuredElapsed();
    r.fps1 = c1.fps(elapsed);
    r.fps2 = d2.fps(elapsed);
    r.late1 = c1.framesDroppedLate();
    r.triggersSent = policy.triggersSent();
    r.boosts = tb.scheduler().stats().boosts.value();
    r.ixpQueueDrops = tb.ixp().queueDrops(dom1.entity);
    r.driverPolls = tb.driver().totalPolls();
    r.driverInterrupts = tb.driver().totalInterrupts();

    // Copy the measured window of the IXP occupancy trace.
    if (const auto *series = tb.ixp().occupancySeries(dom1.entity)) {
        for (const auto &p : series->data()) {
            if (p.when >= measure_start) {
                r.bufferSeries.record(p.when, p.value);
                r.bufferPeakBytes =
                    std::max(r.bufferPeakBytes, p.value);
            }
        }
    }
    r.eventsExecuted = tb.sim().executedEvents();
    if (cfg.inspect)
        cfg.inspect(tb);
    return r;
}

//
// Scale-out fabric scenario
//

namespace {

/**
 * A shard island: hosts per-tier weight state (a slice of a sharded
 * RUBiS deployment) and counts what the fabric delivers to it. The
 * root instance doubles as the classifier island, accumulating the
 * shards' upward load reports into the same per-tier weights.
 */
class ShardIsland final : public coord::ResourceIsland
{
  public:
    ShardIsland(coord::IslandId island_id, std::string island_name)
        : id_(island_id), name_(std::move(island_name))
    {}

    coord::IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }

    void
    applyTune(coord::EntityId entity, double delta) override
    {
        weights[entity] += delta;
        tunes.add();
    }

    void applyTrigger(coord::EntityId entity) override
    {
        (void)entity;
        triggers.add();
    }

    void learnBinding(const coord::EntityBinding &binding) override
    {
        learned.insert(binding.ref.entity);
    }

    double currentPowerWatts() const override { return 5.0; }

    double
    weight(coord::EntityId entity) const
    {
        auto it = weights.find(entity);
        return it == weights.end() ? 0.0 : it->second;
    }

    std::map<coord::EntityId, double> weights;
    std::set<coord::EntityId> learned;
    corm::sim::Counter tunes;
    corm::sim::Counter triggers;

  private:
    coord::IslandId id_;
    std::string name_;
};

} // namespace

FabricScenarioResult
runFabricScenario(const FabricScenarioConfig &cfg)
{
    FabricScenarioResult r;
    const int n = std::max(2, cfg.islands);
    r.islands = n;
    assert(cfg.firstIslandId >= 0
           && static_cast<std::size_t>(cfg.firstIslandId)
                   + static_cast<std::size_t>(n)
               <= coord::maxIslands
           && "island ids must fit IslandId");
    const auto rootId = static_cast<coord::IslandId>(cfg.firstIslandId);
    const coord::EntityId tierBase = 100;
    if (cfg.shards < 1)
        throw std::invalid_argument(
            "FabricScenarioConfig::shards must be >= 1 (got "
            + std::to_string(cfg.shards) + ")");
    const int K = std::min(cfg.shards, n);

    coord::FabricParams fp = cfg.fabric;
    fp.hub = rootId;

    // One Simulator per shard advancing concurrently under a one-hop
    // conservative lookahead. The root classifier always lives on
    // shard 0, so the reliable senders and the announcer (which keep
    // per-message state) stay single-shard and race-free.
    corm::sim::ShardedEngine engine(K, fp.hopLatency, cfg.seed);
    std::vector<int> shardOf(
        static_cast<std::size_t>(cfg.firstIslandId + n), 0);
    // Contiguous id-ordered placement: island index i lands on shard
    // i*K/n, so the root (i == 0) is always on shard 0.
    for (int i = 0; i < n; ++i)
        shardOf[static_cast<std::size_t>(cfg.firstIslandId + i)] =
            static_cast<int>(static_cast<long long>(i) * K / n);
    corm::sim::Simulator &sim = engine.sim(0);
    // Trace capture: every shard gets a window-local recorder, merged
    // at barriers in canonical order, so the merged JSON is
    // byte-identical for every shard count and the digest matches a
    // capture-off run (capture schedules nothing).
    corm::obs::TraceRecorder *const trace = cfg.trace;
    std::unique_ptr<corm::obs::ShardCapture> capture;
    if (trace)
        capture = std::make_unique<corm::obs::ShardCapture>(
            trace, K, [&engine](int k) { return engine.sim(k).now(); });
    // The recorder everything running on shard 0 — the scenario's
    // policy stand-in, the announcer, the trigger sender — writes to.
    corm::obs::TraceRecorder *const rootRec =
        capture ? capture->shardRecorder(0) : nullptr;
    coord::CoordFabric fabric(engine, fp, shardOf);

    std::vector<std::unique_ptr<ShardIsland>> islands;
    for (int i = 0; i < n; ++i) {
        const auto id = static_cast<coord::IslandId>(rootId + i);
        islands.push_back(std::make_unique<ShardIsland>(
            id, (i == 0 ? "classifier" : "shard")
                    + std::to_string(static_cast<int>(id))));
        fabric.attach(*islands.back());
    }
    ShardIsland &root = *islands.front();

    // Per-lane stall watchdogs: one heartbeat lane per link
    // direction. The fabric logs lane activity shard-locally and the
    // barrier probe replays it into the monitor in canonical order
    // with explicit timestamps — watchdog state is then a pure
    // function of the global event set, identical for every shard
    // count.
    corm::obs::MetricRegistry registry;
    std::unique_ptr<corm::obs::HealthMonitor> monitor;
    corm::obs::HealthMonitor::Params monitorParams;
    std::map<std::uint64_t, int> laneMon; // directional lane id -> monitor lane
    if (cfg.monitorLanes) {
        monitor = std::make_unique<corm::obs::HealthMonitor>(
            sim, registry, monitorParams);
        monitor->setMirrorTrace(trace);
        fabric.forEachLaneId(
            [&](const std::string &lane_name, std::uint64_t id) {
                laneMon[id] = monitor->lane(lane_name);
            });
        fabric.setLaneActivityRecording(true);
    }
    if (cfg.wire)
        cfg.wire(fabric);
    if (capture) {
        std::vector<corm::obs::TraceRecorder *> recs;
        for (int k = 0; k < K; ++k)
            recs.push_back(capture->shardRecorder(k));
        fabric.setShardTrace(recs);
    }

    // Self-observability: fabric counters plus the engine's
    // per-window accounting as shard{k}-labelled metrics.
    // Everything is read through callbacks at snapshot/sample time;
    // nothing here schedules events, so capture cannot perturb the
    // digest. Host-time costs (barrier waits) stay out of the
    // registry — they are nondeterministic and would poison replay
    // comparisons.
    {
        const coord::FabricStats &fs = fabric.stats();
        const auto cnt = [&](const char *metric_name,
                             const corm::sim::Counter &c) {
            registry.counterFn(metric_name, {},
                               [&c] { return c.value(); });
        };
        cnt("fabric.wire.messages", fs.wireMessages);
        cnt("fabric.wire.tunes", fs.wireTunes);
        cnt("fabric.tunes.applied", fs.appliedTunes);
        cnt("fabric.agg.batches", fs.aggBatches);
        cnt("fabric.agg.folded", fs.aggFolded);
        cnt("fabric.link.drops", fs.linkDrops);
        cnt("fabric.link.replays", fs.linkReplays);
        cnt("fabric.abandoned", fs.abandoned);
        cnt("fabric.duplicates", fs.duplicates);
        corm::sim::ShardedEngine *const eng = &engine;
        registry.counterFn("shard.windows", {}, [eng] {
            return eng->stats().windows;
        });
        registry.counterFn("shard.boundary.messages", {}, [eng] {
            return eng->stats().messages;
        });
        registry.counterFn("shard.boundary.batches", {}, [eng] {
            return eng->stats().batches;
        });
        registry.gaugeFn("shard.boundary.depth_high_water", {},
                         [eng] {
                             return static_cast<double>(
                                 eng->stats().maxBoundaryDepth);
                         });
        for (int k = 0; k < K; ++k) {
            const corm::obs::Labels lbl = {
                {"shard", std::to_string(k)}};
            registry.counterFn("shard.posted", lbl, [eng, k] {
                return eng->postedBy(k);
            });
            registry.counterFn("shard.received", lbl, [eng, k] {
                return eng->receivedBy(k);
            });
            registry.counterFn("shard.events", lbl, [eng, k] {
                return eng->sim(k).executedEvents();
            });
        }
    }

    // Policy intent: the exact weight every (island, tier) should
    // settle at — adjusted down when the fabric reports a delta as
    // abandoned, so convergence targets what the fabric still owes.
    std::map<std::uint64_t, double> intent;
    const auto intentKey = [](coord::IslandId island,
                              coord::EntityId entity) {
        return (static_cast<std::uint64_t>(island) << 32) | entity;
    };
    std::uint64_t abandonedLogicalTunes = 0;
    fabric.setAbandonObserver([&](const coord::CoordMessage &m) {
        // Only fire-and-forget tunes carry conservation-ledger deltas
        // (sequenced messages belong to a ReliableSender, which owns
        // their terminal abandon). A tune bound for a migrated entity
        // is attributed against the entity's *current* home — its
        // intent entry moved there with the migration handoff.
        if (m.type == coord::MsgType::tune && m.seq == 0) {
            abandonedLogicalTunes += m.coalesced;
            intent[intentKey(fabric.currentHome(m.dst, m.entity),
                             m.entity)] -= m.value;
        }
        if (monitor)
            monitor->noteAbandon(
                std::string("fabric:") + coord::msgTypeName(m.type)
                + ",dst=" + std::to_string(static_cast<int>(m.dst)));
    });

    // Phase 1 — registration bring-up: the root announces every
    // tier binding to every shard through the reliable announcer
    // (which owns the root's ack observer until it is retired).
    const Tick bringup = 150 * msec;
    std::uint64_t regsAcked = 0, regsAbandoned = 0, regsPending = 0;
    {
        coord::ReliableAnnouncer::Params ap;
        ap.retryTimeout = 2 * msec;
        ap.maxAttempts = 6;
        coord::ReliableAnnouncer announcer(sim, fabric, ap);
        announcer.setTrace(rootRec);
        for (int i = 1; i < n; ++i) {
            for (int t = 0; t < cfg.tiers; ++t) {
                coord::EntityBinding b;
                b.ref = coord::EntityRef{
                    rootId, tierBase + static_cast<coord::EntityId>(t)};
                b.name = "tier" + std::to_string(t);
                // Island index spread across two octets: ids past
                // 255 must keep distinct network identities.
                b.ip = corm::net::IpAddr(
                    10, static_cast<std::uint8_t>((i >> 8) & 0xff),
                    static_cast<std::uint8_t>(i & 0xff),
                    static_cast<std::uint8_t>(t));
                announcer.announce(
                    static_cast<coord::IslandId>(rootId + i), b);
                ++r.bindingsAnnounced;
            }
        }
        engine.runFor(bringup);
        regsAcked = announcer.acked();
        regsAbandoned = announcer.abandoned();
        regsPending = announcer.pendingCount();
    } // announcer retires; the trigger sender may now own the root

    // Phase 2 — workload, scheduled up front from one seeded stream
    // so replays are identical under any --jobs fan-out. Integer
    // deltas keep every aggregated sum exact in double arithmetic.
    corm::sim::Rng rng(cfg.seed);
    coord::ReliableSender triggerSender(sim, fabric, rootId,
                                        cfg.reliable);
    triggerSender.setTrace(rootRec);
    std::uint64_t triggersSent = 0;

    // Causal spans for root-originated messages, following the
    // policy-layer idiom (decide instant + flow begin). Flows are
    // allocated ONLY on shard 0 — the root's shard — so flow ids and
    // their allocation order are placement-independent; the fabric
    // and the reliable layer step/end any message whose trace id is
    // set, stitching the flow across lane and island tracks (and so
    // across shards). Shard-originated load reports stay unflowed.
    const int policyTrk = CORM_TRACE_ACTIVE(rootRec)
        ? rootRec->track("coord",
                         "policy@" + std::to_string(
                             static_cast<int>(rootId)))
        : -1;
    const auto beginSpan = [rootRec, policyTrk,
                            &sim](coord::CoordMessage &m) {
        if (policyTrk < 0 || !CORM_TRACE_ACTIVE(rootRec))
            return;
        m.trace = rootRec->newFlow();
        const Tick now = sim.now();
        rootRec->complete(
            policyTrk, now, 0,
            std::string("decide:") + coord::msgTypeName(m.type),
            "coord",
            {{"entity", static_cast<std::uint64_t>(m.entity)},
             {"dst", static_cast<std::uint64_t>(m.dst)}});
        rootRec->flowBegin(policyTrk, now, m.trace, "coord.span",
                           "coord");
    };

    // Pre-size the event queues for the up-front scheduled workload,
    // so heap growth never lands mid-run (Simulator::reserve).
    const std::size_t expectedSends =
        static_cast<std::size_t>(std::max(n - 1, 1))
        * static_cast<std::size_t>(std::max(cfg.tiers, 1))
        * static_cast<std::size_t>(std::max(cfg.tunesPerPair, 1)) * 2;
    engine.reserve(expectedSends / static_cast<std::size_t>(K) + 256);
    const Tick span = std::max<Tick>(cfg.workloadSpan, 1);
    // Tunes fire in policy epochs (the paper's managers evaluate
    // periodically), with a small per-sender skew. Bursting is what
    // gives tree hubs something to aggregate: every shard's load
    // report for one tier lands within the same window.
    const Tick epochPeriod = std::max<Tick>(
        span / static_cast<Tick>(std::max(cfg.tunesPerPair, 1)), 1);
    const Tick jitter =
        std::min<Tick>(cfg.epochJitter, epochPeriod - 1);
    for (int i = 1; i < n; ++i) {
        const auto shard = static_cast<coord::IslandId>(rootId + i);
        for (int t = 0; t < cfg.tiers; ++t) {
            const auto tier =
                tierBase + static_cast<coord::EntityId>(t);
            for (int k = 0; k < cfg.tunesPerPair; ++k) {
                // Root -> shard allocation tune (aggregates at tree
                // hubs along the downward path, per shard + tier).
                {
                    const Tick at = sim.now()
                        + static_cast<Tick>(k) * epochPeriod
                        + rng.uniformInt(jitter + 1);
                    double d = static_cast<double>(
                        1 + rng.uniformInt(8));
                    if (rng.chance(0.5))
                        d = -d;
                    coord::CoordMessage m;
                    m.type = coord::MsgType::tune;
                    m.src = rootId;
                    m.dst = shard;
                    m.entity = tier;
                    m.value = d;
                    intent[intentKey(shard, tier)] += d;
                    ++r.logicalTunes;
                    sim.scheduleAt(at, [&fabric, beginSpan, m] {
                        auto msg = m;
                        beginSpan(msg);
                        fabric.send(msg);
                    });
                }
                // Shard -> root load report for the same shared tier
                // entity (aggregates across shards at hubs).
                {
                    const Tick at = sim.now()
                        + static_cast<Tick>(k) * epochPeriod
                        + rng.uniformInt(jitter + 1);
                    double d = static_cast<double>(
                        1 + rng.uniformInt(8));
                    if (rng.chance(0.5))
                        d = -d;
                    coord::CoordMessage m;
                    m.type = coord::MsgType::tune;
                    m.src = shard;
                    m.dst = rootId;
                    m.entity = tier;
                    m.value = d;
                    intent[intentKey(rootId, tier)] += d;
                    ++r.logicalTunes;
                    // A send must run on the shard owning its source.
                    engine.sim(shardOf[shard]).scheduleAt(at, [&fabric, m] {
                        auto msg = m;
                        fabric.send(msg);
                    });
                }
                // Occasionally the classifier needs a shard serviced
                // right now: a Trigger on the reliable low-latency
                // path (bypasses aggregation).
                if (rng.chance(cfg.triggerProb)) {
                    const Tick at = sim.now() + rng.uniformInt(span);
                    coord::CoordMessage m;
                    m.type = coord::MsgType::trigger;
                    m.src = rootId;
                    m.dst = shard;
                    m.entity = tier;
                    ++triggersSent;
                    sim.scheduleAt(at, [&triggerSender, beginSpan, m] {
                        auto msg = m;
                        beginSpan(msg);
                        triggerSender.send(msg);
                    });
                }
            }
        }
    }

    // Churn schedule: membership and placement changes mid-workload.
    // Due events apply at the first window barrier at-or-after their
    // tick (below, in the probe), in schedule order, passing the
    // barrier tick so re-driven flushes land placement-independently
    // and a seed replays exactly.
    using ChurnEvent = FabricScenarioConfig::ChurnEvent;
    std::vector<ChurnEvent> churnPlan = cfg.churn;
    std::stable_sort(churnPlan.begin(), churnPlan.end(),
                     [](const ChurnEvent &a, const ChurnEvent &b) {
                         return a.at < b.at;
                     });
    const Tick workloadStart = sim.now();
    std::uint64_t churnSkipped = 0;

    // Re-wire watchdog lanes after a membership change: links born
    // from a join or re-parent get lanes registered, links that
    // departed with an island retire (no spurious stall breach for
    // traffic that will never resume). Lane ids and names are pure
    // functions of the endpoint ids, so a re-joined pair revives its
    // old lane rather than growing a new one.
    const auto resyncLanes = [&] {
        if (!monitor)
            return;
        std::vector<std::string> live;
        fabric.forEachLaneId(
            [&](const std::string &lane_name, std::uint64_t id) {
                if (!laneMon.count(id))
                    laneMon[id] = monitor->lane(lane_name);
                live.push_back(lane_name);
            });
        monitor->retireLanesExcept(live);
    };

    const auto applyChurn = [&](const ChurnEvent &ev, Tick now) {
        using Kind = ChurnEvent::Kind;
        if (ev.island <= 0 || ev.island >= n) {
            ++churnSkipped;
            return;
        }
        const auto id =
            static_cast<coord::IslandId>(rootId + ev.island);
        switch (ev.kind) {
          case Kind::join:
            if (fabric.attached(id)) {
                ++churnSkipped;
                return;
            }
            fabric.join(*islands[static_cast<std::size_t>(ev.island)],
                        now);
            break;
          case Kind::leave:
          case Kind::crash:
            if (!fabric.attached(id)) {
                ++churnSkipped;
                return;
            }
            if (ev.kind == Kind::leave)
                fabric.leave(id, now);
            else
                fabric.crash(id, now);
            // Cancel the trigger retry timers still aimed at the
            // departed island through finish(): each pending counts
            // as abandoned, so the trigger ledger stays balanced
            // without waiting out the full retry budget.
            triggerSender.abandonDestination(id);
            break;
          case Kind::migrate: {
            if (ev.dstIsland <= 0 || ev.dstIsland >= n
                || ev.tier < 0 || ev.tier >= std::max(cfg.tiers, 1)) {
                ++churnSkipped;
                return;
            }
            const auto tier =
                tierBase + static_cast<coord::EntityId>(ev.tier);
            const auto dst =
                static_cast<coord::IslandId>(rootId + ev.dstIsland);
            // The handoff moves coordination state from the entity's
            // *current* home — it may have migrated before.
            const coord::IslandId from = fabric.currentHome(id, tier);
            if (!fabric.migrateEntity(from, dst, tier, now)) {
                ++churnSkipped;
                return;
            }
            ShardIsland &fromIsl =
                *islands[static_cast<std::size_t>(from - rootId)];
            ShardIsland &dstIsl =
                *islands[static_cast<std::size_t>(ev.dstIsland)];
            auto wit = fromIsl.weights.find(tier);
            if (wit != fromIsl.weights.end()) {
                dstIsl.weights[tier] += wit->second;
                fromIsl.weights.erase(wit);
            }
            auto iit = intent.find(intentKey(from, tier));
            if (iit != intent.end()) {
                intent[intentKey(dst, tier)] += iit->second;
                intent.erase(iit);
            }
            break;
          }
        }
    };

    // Convergence probe: the first poll tick (after which no later
    // poll disagrees) where every island's applied weights equal the
    // policy intent, exactly.
    const Tick workloadEnd = sim.now() + span;
    const Tick deadline = workloadEnd + cfg.settleLimit;
    Tick convergedAt = 0;
    bool haveConverged = false;
    const auto converged = [&] {
        for (const auto &[key, want] : intent) {
            const auto island = static_cast<std::size_t>(key >> 32);
            const auto entity =
                static_cast<coord::EntityId>(key & 0xffffffffu);
            if (islands[island - rootId]->weight(entity) != want)
                return false;
        }
        return true;
    };
    const auto pollCheck = [&](Tick at) {
        if (at > deadline)
            return;
        if (converged()) {
            if (!haveConverged) {
                haveConverged = true;
                convergedAt = at;
            }
        } else {
            haveConverged = false;
        }
    };
    const Tick pollPeriod = std::max<Tick>(cfg.convergencePoll, 1);
    // The window's lane activity, replayed into the watchdogs.
    const auto replayLaneActivity = [&] {
        fabric.drainLaneActivity(
            [&](const coord::CoordFabric::LaneEvent &e) {
                const int lane = laneMon.at(e.lane);
                if (e.delivered)
                    monitor->laneDeliveredAt(lane, e.when);
                else
                    monitor->laneSentAt(lane, e.when);
            });
    };
    // The convergence check reads weights across every shard, so it
    // may only run at a window barrier (all shards parked) — the
    // engine's probe. A no-op heartbeat on shard 0 keeps windows (and
    // therefore probes) coming at poll cadence even after the
    // workload's own events dry out; gating the check on nextPollAt
    // keeps its cost off the per-window path. The window sequence is
    // a pure function of the global event set, so every probe
    // decision replays identically under any shard count.
    corm::sim::PeriodicEvent poll(sim, pollPeriod, [] {});
    Tick nextPollAt = sim.now() + pollPeriod;
    Tick nextMonAt = sim.now() + monitorParams.samplePeriod;
    // Barrier-time capture sequence (all workers parked):
    //  0. apply churn events due by this window's end (and any
    //     re-parents whose delay elapsed) at the barrier tick;
    //  1. merge the shards' window trace buffers (canonical order),
    //     so everything below lands after window events;
    //  2. drain abandons (observer feeds intent + monitor);
    //  3. replay the window's lane activity into the watchdogs;
    //  4. monitor sample/rule/stall pass at its own cadence;
    //  5. the convergence check.
    // Every step is a pure function of the global event set, so the
    // whole sequence replays identically for any shard count — churn
    // included: the window sequence is shard-count invariant, so each
    // event lands at the same barrier tick.
    std::size_t nextChurnIdx = 0;
    engine.setProbe([&](Tick windowEnd) {
        if (nextChurnIdx < churnPlan.size()
            || fabric.pendingReparentCount() != 0) {
            const std::uint64_t epoch = fabric.routeEpoch();
            while (nextChurnIdx < churnPlan.size()
                   && workloadStart + churnPlan[nextChurnIdx].at
                       <= windowEnd) {
                applyChurn(churnPlan[nextChurnIdx], windowEnd);
                ++nextChurnIdx;
            }
            fabric.churnTick(windowEnd);
            if (fabric.routeEpoch() != epoch)
                resyncLanes();
        }
        if (capture)
            capture->mergeWindow();
        fabric.drainAbandoned();
        if (monitor) {
            replayLaneActivity();
            if (windowEnd >= nextMonAt) {
                monitor->poll(windowEnd);
                nextMonAt = windowEnd + monitorParams.samplePeriod;
            }
        }
        if (windowEnd >= nextPollAt) {
            pollCheck(windowEnd);
            nextPollAt = windowEnd + pollPeriod;
        }
        return false;
    });
    engine.runFor(span + cfg.settleLimit);
    poll.stop();
    engine.setProbe({});
    // Final pass over anything queued after the last window.
    if (capture)
        capture->mergeWindow();
    fabric.drainAbandoned();
    if (monitor) {
        replayLaneActivity();
        monitor->poll(sim.now());
    }

    // Harvest.
    const coord::FabricStats &fs = fabric.stats();
    r.appliedTunes = fs.appliedTunes.value();
    r.abandonedTunes = abandonedLogicalTunes;
    r.wireTuneMessages = fs.wireTunes.value();
    r.wireMessages = fs.wireMessages.value();
    r.msgsPerAppliedTune = r.appliedTunes
        ? static_cast<double>(r.wireTuneMessages)
            / static_cast<double>(r.appliedTunes)
        : 0.0;
    r.hubWireMessages = fabric.wireHandledAt(rootId);
    r.hubMsgsPerAppliedTune = r.appliedTunes
        ? static_cast<double>(r.hubWireMessages)
            / static_cast<double>(r.appliedTunes)
        : 0.0;
    r.hubRelays = fs.hubRelays.value();
    r.aggBatches = fs.aggBatches.value();
    r.aggFolded = fs.aggFolded.value();
    r.triggerBypass = fs.triggerBypass.value();
    r.linkDrops = fs.linkDrops.value();
    r.linkReplays = fs.linkReplays.value();
    r.abandonedWire = fs.abandoned.value();
    r.duplicates = fs.duplicates.value();
    r.fabricDropped = fs.dropped.value();
    r.meanDeliveryUs = fs.deliveryLatencyUs.mean();
    r.meanHops = fs.hopsPerDelivery.mean();
    r.migForwards = fs.migForwards.value();
    {
        const coord::CoordFabric::ChurnCounters &cc =
            fabric.churnCounters();
        r.churnJoins = cc.joins;
        r.churnLeaves = cc.leaves;
        r.churnCrashes = cc.crashes;
        r.churnMigrations = cc.migrations;
        r.churnReparents = cc.reparents;
    }
    r.churnSkipped = churnSkipped;
    r.routeEpochs = fabric.routeEpoch();
    r.tunesLost = static_cast<std::int64_t>(r.logicalTunes)
        - static_cast<std::int64_t>(r.appliedTunes)
        - static_cast<std::int64_t>(r.abandonedTunes);

    r.triggersSent = triggersSent;
    r.triggersAcked = triggerSender.acked();
    r.triggersAbandoned = triggerSender.abandoned();
    std::uint64_t shardTriggers = 0;
    for (int i = 1; i < n; ++i)
        shardTriggers += islands[i]->triggers.value();
    r.triggersApplied = shardTriggers;
    r.triggersAccounted =
        triggerSender.pendingCount() == 0
        && r.triggersAcked + r.triggersAbandoned == r.triggersSent
        && r.triggersApplied >= r.triggersAcked;

    std::uint64_t learnedBindings = 0;
    for (int i = 1; i < n; ++i)
        learnedBindings += islands[i]->learned.size();
    r.bindingsLearned = learnedBindings;
    r.bindingsAbandoned = regsAbandoned;
    r.bindingsOk = regsPending == 0
        && regsAcked + regsAbandoned == r.bindingsAnnounced
        && r.bindingsLearned >= regsAcked;

    r.hubQueueHighWater = fabric.maxLaneQueueHighWater();
    r.aggOpenHighWater = fabric.aggPendingHighWater();
    r.maxIslandWireSends = fabric.maxWireSends();
    r.healthBreaches = monitor ? monitor->breaches() : 0;
    if (monitor)
        r.healthReport = monitor->healthReport();
    if (cfg.captureMetrics)
        r.metricsJson = registry.jsonSnapshot();
    if (trace)
        r.traceEvents = trace->events().size();
    if (cfg.profileFlows && trace) {
        // Post-run, read-only over the merged trace: digest-neutral,
        // and byte-identical across shard counts because the merged
        // trace is (DESIGN.md §11/§12).
        corm::obs::FlowProfiler prof;
        prof.ingest(*trace);
        r.flowProfileJson = prof.reportJson(cfg.profileTopK);
        r.profiledFlows = prof.flows().size();
    }

    r.converged = haveConverged;
    r.convergenceMs = haveConverged
        ? corm::sim::toSeconds(convergedAt - (bringup)) * 1000.0
        : corm::sim::toSeconds(deadline - bringup) * 1000.0;

    // Exact-sum invariant: every applied weight equals the intent
    // (which already excludes abandoned deltas), and the logical
    // tune count balances applied + abandoned.
    r.deltaSumsExact = converged()
        && r.appliedTunes + r.abandonedTunes == r.logicalTunes;
    if (!converged()) {
        int rows = 0;
        for (const auto &[key, want] : intent) {
            const auto island = static_cast<std::size_t>(key >> 32);
            const auto entity =
                static_cast<coord::EntityId>(key & 0xffffffffu);
            const double got =
                islands[island - rootId]->weight(entity);
            if (got == want)
                continue;
            char line[96];
            std::snprintf(line, sizeof(line),
                          "island %zu entity %u want %g got %g\n",
                          island, entity, want, got);
            r.convergenceMismatch += line;
            if (++rows >= 8)
                break;
        }
    }

    // Replay-identity digest over final weights and counters.
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (const auto &isl : islands) {
        mix(isl->id());
        for (const auto &[entity, w] : isl->weights) {
            mix(entity);
            mix(std::bit_cast<std::uint64_t>(w));
        }
        mix(isl->tunes.value());
        mix(isl->triggers.value());
        for (coord::EntityId e : isl->learned)
            mix(e);
    }
    mix(root.tunes.value());
    r.digest = h;
    r.eventsExecuted = engine.eventsExecuted();
    const corm::sim::ShardEngineStats &es = engine.stats();
    r.shardWindows = es.windows;
    r.boundaryMessages = es.messages;
    r.boundaryBatches = es.batches;
    r.boundaryDepthHighWater = es.maxBoundaryDepth;
    r.barrierWaitNs = es.barrierWaitNs;
    return r;
}

} // namespace corm::platform
