/**
 * @file
 * Prebuilt experiment scenarios reproducing the paper's evaluation
 * (§3): the RUBiS coordinated-vs-base comparison (Figs. 2/4/5,
 * Tables 1/2), the MPlayer weight-QoS experiment (Fig. 6), and the
 * buffer-threshold Trigger experiment (Fig. 7, Table 3).
 *
 * Benches, examples and the integration tests all run these same
 * scenario functions, so the numbers in EXPERIMENTS.md are exactly
 * what the test suite asserts against.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/mplayer.hpp"
#include "apps/rubis.hpp"
#include "coord/fabric.hpp"
#include "coord/policy.hpp"
#include "coord/reliable.hpp"
#include "platform/testbed.hpp"
#include "sim/stats.hpp"

namespace corm::platform {

//
// RUBiS (§3.1)
//

/** Configuration of one RUBiS run. */
struct RubisScenarioConfig
{
    TestbedParams testbed;
    apps::rubis::RubisClient::Params client;
    apps::rubis::RubisServer::Params server;

    /** Initial weight of each tier VM (the paper's defaults). */
    double tierWeight = 256.0;

    /** Enable the request-type Tune coordination scheme. */
    bool coordination = false;
    /** Per-request weight step of the coordination table. */
    double tuneDelta = 2.0;
    /** Gain multipliers of the coordination table. */
    apps::rubis::AdjustmentGains gains;
    /**
     * Decay time constant of tuned weights toward baseline on the
     * x86 island (0 = off). With decay, a tier's weight tracks the
     * Tune inflow of the last ~tau — the recent request mix.
     */
    corm::sim::Tick tuneDecayTau = 2 * corm::sim::sec;
    /** Optional damping (oscillation ablation; off = paper baseline). */
    coord::RequestTypeTunePolicy::Damping damping;

    /**
     * Send Tunes through a ReliableSender (ack + retry) instead of
     * fire-and-forget. Not the paper's configuration — used by the
     * latency-breakdown bench to expose the full decide → send →
     * apply → ack chain, and by fault studies.
     */
    bool reliableTunes = false;
    coord::ReliableSender::Params reliableParams;

    /**
     * Invoked on the live testbed after the measured window, before
     * teardown — the hook harnesses use to snapshot the metric
     * registry or other component state.
     */
    std::function<void(Testbed &)> inspect;

    corm::sim::Tick warmup = 20 * corm::sim::sec;
    corm::sim::Tick measure = 120 * corm::sim::sec;

    RubisScenarioConfig();
};

/** Results of one RUBiS run, shaped like the paper's artefacts. */
struct RubisResult
{
    /** One Table 1 / Fig. 2 / Fig. 4 row. */
    struct TypeRow
    {
        std::string name;
        std::uint64_t count = 0;
        double minMs = 0.0;
        double maxMs = 0.0;
        double meanMs = 0.0;
        double stddevMs = 0.0;
    };

    std::vector<TypeRow> types; ///< indexed by RequestType ordinal

    // Table 2 metrics.
    double throughputRps = 0.0;
    std::uint64_t sessionsCompleted = 0;
    double avgSessionSec = 0.0;
    double platformEfficiency = 0.0; ///< throughput / (Σ guest util/100)

    // Fig. 5 metrics (percent of one core).
    double webCpuPct = 0.0, appCpuPct = 0.0, dbCpuPct = 0.0;
    double dom0CpuPct = 0.0;
    double webIowaitPct = 0.0, appIowaitPct = 0.0, dbIowaitPct = 0.0;

    // Coordination machinery counters.
    std::uint64_t tunesSent = 0;
    std::uint64_t tunesApplied = 0;

    // Coordination-channel health under fault injection (zeros on a
    // perfect channel). Drops/duplicates/reorders are the channel's
    // accounting view; outage time is scheduled-outage overlap with
    // the run.
    std::uint64_t chanDropped = 0;
    std::uint64_t chanDuplicates = 0;
    std::uint64_t chanReorders = 0;
    std::uint64_t chanRetries = 0;
    double chanOutageMs = 0.0;

    // Registration convergence through the reliable announcer.
    std::uint64_t regsAcked = 0;
    std::uint64_t regsAbandoned = 0;
    std::uint64_t regsPending = 0;

    double meanResponseMs = 0.0;
    double minResponseMs = 0.0;

    // Database write-transaction lock behaviour.
    double dbLockWaitMeanMs = 0.0;
    double dbLockWaitMaxMs = 0.0;

    // E2Eprof-style latency breakdown (means, ms).
    double ingressMs = 0.0;
    double webMs = 0.0, appMs = 0.0, dbMs = 0.0;
    double hopsMs = 0.0;
    double egressMs = 0.0;

    // Final tier weights (where the per-request tuning settled).
    double webWeight = 0.0, appWeight = 0.0, dbWeight = 0.0;

    /** Host-side cost: simulator events dispatched during the run. */
    std::uint64_t eventsExecuted = 0;
};

/** Run one RUBiS experiment end to end. */
RubisResult runRubisScenario(const RubisScenarioConfig &cfg);

//
// MPlayer weight QoS (Fig. 6, §3.2 scheme 1)
//

struct MplayerQosConfig
{
    TestbedParams testbed;

    /** Guest weights for the run (the Fig. 6 x-axis). */
    double weight1 = 256.0;
    double weight2 = 256.0;

    /**
     * Extra dequeue-thread share for Domain-2's IXP queue (the
     * "increase the number of IXP threads servicing Domain-2's
     * receive queue in tandem" step of the third configuration).
     */
    double ixpThreadBonus2 = 0.0;

    /**
     * Run with the StreamQosTunePolicy driving the weights instead
     * of static settings (the automated version of the scheme).
     */
    bool autoCoordination = false;
    coord::StreamQosTunePolicy::Config autoCfg;

    /** Dom0 device-emulation background load (HVM qemu-dm model). */
    bool dom0Background = true;
    double dom0Weight = 512.0;

    apps::mplayer::StreamSpec stream1;
    apps::mplayer::StreamSpec stream2;
    apps::mplayer::DecodeParams decode1;
    apps::mplayer::DecodeParams decode2;

    /** Post-measurement inspection hook (see RubisScenarioConfig). */
    std::function<void(Testbed &)> inspect;

    corm::sim::Tick warmup = 10 * corm::sim::sec;
    corm::sim::Tick measure = 60 * corm::sim::sec;

    MplayerQosConfig();
};

struct MplayerQosResult
{
    double fps1 = 0.0;
    double fps2 = 0.0;
    std::uint64_t late1 = 0, late2 = 0;
    double cpu1Pct = 0.0, cpu2Pct = 0.0, dom0Pct = 0.0;
    double weight1End = 0.0, weight2End = 0.0;

    /** Host-side cost: simulator events dispatched during the run. */
    std::uint64_t eventsExecuted = 0;
};

/** Run one Fig. 6 configuration. */
MplayerQosResult runMplayerQos(const MplayerQosConfig &cfg);

//
// Buffer-threshold Trigger (Fig. 7, Table 3; §3.2 scheme 2)
//

struct TriggerScenarioConfig
{
    TestbedParams testbed;

    /** Enable the buffer-threshold Trigger policy. */
    bool trigger = false;
    coord::BufferThresholdTriggerPolicy::Config triggerCfg;

    /** Domain-1's bursty network stream. */
    apps::mplayer::StreamSpec stream1;
    double burstSec = 8.0;
    apps::mplayer::DecodeParams decode1;

    /** Domain-2's local-disk decode cost per frame. */
    corm::sim::Tick diskFrameCost = 12500 * corm::sim::usec;

    /** Dom0 housekeeping/device-emulation duty cycle (0 = none). */
    double dom0BackgroundDuty = 0.5;

    /** Sampling period of the Fig. 7 CPU-utilisation series. */
    corm::sim::Tick cpuSamplePeriod = 1 * corm::sim::sec;

    /** Post-measurement inspection hook (see RubisScenarioConfig). */
    std::function<void(Testbed &)> inspect;

    corm::sim::Tick warmup = 8 * corm::sim::sec;
    corm::sim::Tick measure = 120 * corm::sim::sec;

    TriggerScenarioConfig();
};

struct TriggerScenarioResult
{
    double fps1 = 0.0; ///< network-stream domain
    double fps2 = 0.0; ///< local-disk domain
    std::uint64_t late1 = 0;
    std::uint64_t triggersSent = 0;
    std::uint64_t boosts = 0;
    std::uint64_t ixpQueueDrops = 0;
    double bufferPeakBytes = 0.0;
    std::uint64_t driverPolls = 0;
    std::uint64_t driverInterrupts = 0;

    /** Fig. 7 series: Dom-1 CPU utilisation (%) over time. */
    corm::sim::TimeSeries cpu1Series;
    /** Fig. 7 series: Dom-1 IXP buffer occupancy (bytes) over time. */
    corm::sim::TimeSeries bufferSeries;

    /** Host-side cost: simulator events dispatched during the run. */
    std::uint64_t eventsExecuted = 0;
};

/** Run one Fig. 7 / Table 3 configuration. */
TriggerScenarioResult runTriggerScenario(const TriggerScenarioConfig &cfg);

//
// Scale-out coordination fabric (§5: "scalability of such
// mechanisms to large-scale multicore platforms")
//

/**
 * Configuration of one many-island fabric run: a classifier island
 * at the fabric root plus N-1 islands hosting sharded RUBiS tiers.
 * The root drives per-(island, tier) Tune streams downward (these
 * aggregate at tree hubs); every shard island reports per-tier load
 * Tunes upward to the same root tier entities (these aggregate
 * across shards at intermediate hubs); Triggers ride the reliable
 * low-latency path and bypass aggregation.
 */
struct FabricScenarioConfig
{
    /** Total islands including the root classifier (>= 2). */
    int islands = 8;

    /**
     * Event-loop shards running concurrently within the trial (>= 1;
     * runFabricScenario throws std::invalid_argument otherwise). The
     * islands are partitioned contiguously by id across that many
     * ShardedEngine simulators (clamped to the island count); every
     * wire hop crosses a window barrier, so results are
     * digest-identical for any shard count. Capture rides along:
     * trace and monitorLanes use window-local per-shard recorders
     * and lane logs merged at barriers (obs/shardcapture.hpp), with
     * the merged trace byte-identical for every shard count and the
     * digest identical to a capture-off run.
     */
    int shards = 1;

    /**
     * Id of the root/classifier island; islands occupy ids
     * [firstIslandId, firstIslandId + islands), which must fit
     * IslandId (uint16, coord::maxIslands ids). Default 1 preserves
     * historical digests.
     */
    int firstIslandId = 1;

    /**
     * Fabric parameters: topology, hop latency, aggregation window,
     * link fault weather, replay budget. The hub is forced to the
     * root island's id.
     */
    coord::FabricParams fabric;

    /** Shared tier entities (web/app/db by default). */
    int tiers = 3;
    /** Tunes per (shard island, tier), in each direction. */
    int tunesPerPair = 20;
    /** Probability a downward tune round also fires a Trigger. */
    double triggerProb = 0.1;

    /** Workload seed (drives send times, deltas, trigger picks). */
    std::uint64_t seed = 1;

    /** Window over which the workload sends are spread. */
    corm::sim::Tick workloadSpan = 200 * corm::sim::msec;
    /**
     * Per-sender skew within a policy epoch. Tune k of every
     * (shard, tier) pair fires at k * (workloadSpan / tunesPerPair)
     * plus up to this much jitter — the bursty cadence of periodic
     * policy managers, and what hub aggregation feeds on.
     */
    corm::sim::Tick epochJitter = 100 * corm::sim::usec;
    /** Extra time allowed after the span for convergence. */
    corm::sim::Tick settleLimit = 2 * corm::sim::sec;
    /** Convergence polling cadence. */
    corm::sim::Tick convergencePoll = 500 * corm::sim::usec;

    /** Reliable-delivery knobs of the Trigger path. */
    coord::ReliableSender::Params reliable;

    /**
     * Register per-lane stall watchdogs with a health monitor, fed by
     * replaying the fabric's shard-local lane logs at barriers.
     */
    bool monitorLanes = true;

    /**
     * Optional trace recorder (multi-hop coordination spans). Capture
     * never touches the digest, and the merged JSON is shard-count
     * independent.
     */
    corm::obs::TraceRecorder *trace = nullptr;

    /**
     * Fill FabricScenarioResult::metricsJson with a registry snapshot
     * (fabric counters plus the engine's per-shard self-metrics)
     * taken after the run.
     */
    bool captureMetrics = false;

    /**
     * Post-run flow-latency attribution (obs/flowprofile.hpp): with a
     * trace recorder attached, fill FabricScenarioResult::
     * flowProfileJson with the per-leg/per-link attribution report.
     * Runs strictly after the simulation over the merged trace, so it
     * is digest-neutral and shard-count independent by construction
     * (a byte-identical trace yields a byte-identical report).
     */
    bool profileFlows = false;
    /** Slowest-flow entries in the report (see FlowProfiler). */
    std::size_t profileTopK = 5;

    /**
     * One scheduled membership/placement change. Times are offsets
     * from the start of the workload phase (after binding bring-up);
     * islands are named by index in [0, islands), and index 0 — the
     * root/hub — is never churned. An event that does not apply to
     * the live membership at its tick (leaving an island that already
     * left, joining one still attached, migrating to the entity's own
     * home) is skipped and tallied in churnSkipped, so randomly
     * generated schedules need no pre-validation.
     */
    struct ChurnEvent
    {
        enum class Kind : std::uint8_t { join, leave, crash, migrate };
        Kind kind = Kind::leave;
        corm::sim::Tick at = 0;
        int island = 0;    ///< target island index (1 .. islands-1)
        int dstIsland = 0; ///< migrate: new home island index
        int tier = 0;      ///< migrate: tier index in [0, tiers)
    };

    /**
     * Churn schedule applied during the workload. Due events apply
     * at the first window barrier at-or-after their tick — the only
     * placement-independent point, with every worker parked — so
     * results stay digest-identical for every shard count. Deltas
     * stranded by churn are attributed through the abandon observer
     * (against the entity's current home), so the exact-sum
     * conservation invariant holds under any schedule.
     */
    std::vector<ChurnEvent> churn;

    /** Invoked after islands attach, before the workload starts. */
    std::function<void(coord::CoordFabric &)> wire;
};

/** Results and invariant verdicts of one fabric run. */
struct FabricScenarioResult
{
    int islands = 0;

    // Tune accounting (logical = un-aggregated deltas).
    std::uint64_t logicalTunes = 0;
    std::uint64_t appliedTunes = 0;   ///< Σ coalesced at destinations
    std::uint64_t abandonedTunes = 0; ///< logical, after replay budget
    std::uint64_t wireTuneMessages = 0;
    std::uint64_t wireMessages = 0;
    /** The scale-out cost metric: wire tunes per applied tune. */
    double msgsPerAppliedTune = 0.0;

    /** Wire messages the hub island handled (sent + received). */
    std::uint64_t hubWireMessages = 0;
    /**
     * The hub-bottleneck metric: hub wire messages per applied
     * tune. A star's hub touches every message; a tree offloads
     * relaying and folds incast load reports at intermediate hubs.
     */
    double hubMsgsPerAppliedTune = 0.0;

    std::uint64_t hubRelays = 0;
    std::uint64_t aggBatches = 0;
    std::uint64_t aggFolded = 0;
    std::uint64_t triggerBypass = 0;
    std::uint64_t linkDrops = 0;
    std::uint64_t linkReplays = 0;
    std::uint64_t abandonedWire = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t fabricDropped = 0; ///< unroutable destinations

    // Churn accounting (all zero without a churn schedule).
    std::uint64_t churnJoins = 0;
    std::uint64_t churnLeaves = 0;
    std::uint64_t churnCrashes = 0;
    std::uint64_t churnMigrations = 0;
    std::uint64_t churnReparents = 0;
    std::uint64_t churnSkipped = 0; ///< events invalid at their tick
    std::uint64_t migForwards = 0;  ///< deliveries re-routed to a new home
    std::uint64_t routeEpochs = 0;  ///< route-table rebuild epochs
    /**
     * logicalTunes - appliedTunes - abandonedTunes: zero iff every
     * root-issued tune was applied exactly once or attributed as
     * abandoned, across any migration or re-parent (the churn
     * bench's machine-checked conservation gate).
     */
    std::int64_t tunesLost = 0;

    // Trigger delivered-or-abandoned accounting.
    std::uint64_t triggersSent = 0;
    std::uint64_t triggersAcked = 0;
    std::uint64_t triggersAbandoned = 0;
    std::uint64_t triggersApplied = 0;

    // Binding propagation root -> shards.
    std::uint64_t bindingsAnnounced = 0;
    std::uint64_t bindingsLearned = 0;
    std::uint64_t bindingsAbandoned = 0;

    /**
     * Deepest in-flight queue on any lane (hub pressure): wire
     * copies sent but not yet due, counted by the sender.
     */
    std::size_t hubQueueHighWater = 0;
    /** Most aggregation buckets open at one hub. */
    std::size_t aggOpenHighWater = 0;
    /** Highest per-island wire-send load (hub bottleneck). */
    std::uint64_t maxIslandWireSends = 0;

    /** Sim-time until every island's weights match policy intent. */
    double convergenceMs = 0.0;
    bool converged = false;
    /**
     * When not converged: up to the first few (island, entity,
     * want, got) rows where applied weight disagrees with intent,
     * one per line. Empty on convergence. Diagnostic only — never
     * part of the digest.
     */
    std::string convergenceMismatch;

    // Invariant verdicts (the fuzz harness asserts these).
    bool deltaSumsExact = false; ///< Σ applied == intent, exactly
    bool bindingsOk = false;     ///< learned + abandoned == announced
    bool triggersAccounted = false; ///< acked+abandoned == sent

    std::uint64_t healthBreaches = 0; ///< lane stalls + abandons seen
    /** Monitor event log + summary (empty without monitorLanes). */
    std::string healthReport;
    /** Registry snapshot (empty unless cfg.captureMetrics). */
    std::string metricsJson;
    /** Events in the trace recorder after the run (0 untraced). */
    std::uint64_t traceEvents = 0;
    /** Attribution report (empty unless cfg.profileFlows + trace). */
    std::string flowProfileJson;
    /** Flows the profiler reassembled (0 unless profiled). */
    std::uint64_t profiledFlows = 0;
    double meanDeliveryUs = 0.0;
    double meanHops = 0.0;

    /** FNV-1a digest of final weights + counters (replay identity). */
    std::uint64_t digest = 0;
    std::uint64_t eventsExecuted = 0;

    // Sharded-engine accounting. Windows and boundary messages are
    // pure functions of the global event set, so they are identical
    // for every shard count — the bench gate pins them; batches and
    // depth depend on placement.
    std::uint64_t shardWindows = 0;
    std::uint64_t boundaryMessages = 0;
    std::uint64_t boundaryBatches = 0;
    std::size_t boundaryDepthHighWater = 0;
    /**
     * Host nanoseconds the coordinator spent parked at barriers.
     * Wall-clock, nondeterministic — keep it out of digests, replay
     * comparisons and bench baselines.
     */
    std::uint64_t barrierWaitNs = 0;
};

/** Run one scale-out fabric experiment end to end. */
FabricScenarioResult runFabricScenario(const FabricScenarioConfig &cfg);

//
// Shared helpers
//

/**
 * A CPU-hungry background load inside a domain (device emulation,
 * kernel housekeeping): back-to-back jobs of the given slice length
 * on one VCPU, optionally duty-cycled.
 */
class BackgroundLoad
{
  public:
    /**
     * @param simulator Event engine (paces duty-cycled loads).
     * @param dom Domain to load.
     * @param slice Job length (2 ms gives tick-grained interleaving).
     * @param duty Fraction of time busy in (0, 1]; 1 = saturating.
     * @param vcpu VCPU index to load.
     */
    BackgroundLoad(corm::sim::Simulator &simulator, corm::xen::Domain &dom,
                   corm::sim::Tick slice, double duty = 1.0, int vcpu = 0);

    void start();
    void stop() { running = false; }

  private:
    void pump();

    corm::sim::Simulator &sim;
    corm::xen::Domain &target;
    corm::sim::Tick slice;
    double duty;
    int vcpu;
    bool running = false;
};

} // namespace corm::platform
