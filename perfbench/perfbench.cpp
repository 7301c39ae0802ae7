/**
 * @file
 * Measurement core of the host-cost benchmark (see README.md).
 *
 * Runs one workload in this process and prints one JSON document on
 * stdout: the host record, one record per scenario run (host times,
 * simulated counters, correctness verdicts) and, when traced, the
 * spans recorded around every call made into a simulator layer.
 * perfbench/run.py builds this binary, checks the records against the
 * pins and turns them into the benchmark's metrics.
 *
 *   corm_perfbench --workload fabric_dense --seed 7 --pin-seed 1 \
 *       --seconds 12 --trace 0 [--size toy]
 *
 * Every layer is measured from outside: this file times its own calls
 * into runFabricScenario/runRubisScenario, the wire/inspect hooks,
 * CoordFabric, TraceRecorder and FlowProfiler, and reads their public
 * counters. Nothing here feeds the simulation, so traced and untraced
 * runs of one seed produce the same digests.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory_resource>
#include <string>
#include <thread>
#include <vector>

#include "coord/fabric.hpp"
#include "obs/flowprofile.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "platform/harness.hpp"
#include "platform/scenarios.hpp"
#include "sim/random.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using corm::obs::JsonWriter;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Peak resident set of this process so far, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Current resident set of this process, in MB. */
double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident)
        * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** A JSON number, or null where the value is not finite. */
void
number(JsonWriter &j, const char *key, double v)
{
    if (std::isfinite(v))
        j.field(key, v);
    else
        j.fieldRaw(key, "null");
}

/**
 * Spans around the benchmark's calls into the simulator's layers:
 * name, start, end, parent span and run id, kept in memory and written
 * out with the results. Disabled, it records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
        int run;
    };

    bool enabled = false;

    int
    open(const char *name, int run)
    {
        if (!enabled)
            return -1;
        const int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, now(), 0.0, parent, run});
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        spans[static_cast<std::size_t>(idx)].end = now();
        stack.pop_back();
    }

    void
    write(JsonWriter &j) const
    {
        j.beginArray("spans");
        for (const Span &s : spans) {
            j.beginObject();
            j.field("name", std::string(s.name));
            j.field("start", s.start);
            j.field("end", s.end);
            j.field("parent", s.parent);
            j.field("run", s.run);
            j.endObject();
        }
        j.endArray();
    }

  private:
    double now() const { return secondsBetween(origin, Clock::now()); }

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<int> stack;
};

class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, int run)
        : tracer(t), idx(t.open(name, run))
    {}
    ~SpanScope() { tracer.close(idx); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer;
    int idx;
};

//
// Workloads
//

/** One fabric workload: tree, fanout 4, 500 us hops, 300 us windows. */
struct FabricSpec
{
    int islands = 0;
    int tunesPerPair = 0;
    int shards = 1;
    bool lossy = false;   ///< 10% loss + 5% dup link weather
    bool capture = false; ///< trace + lane monitor + metrics + profile
};

/**
 * fabric_dense times 2 shards, not the 4 of the shard_scale cell: on a
 * 4-vCPU host, 4 shard threads wait at every barrier for whichever vCPU
 * the host stalls, which made run_s spread twice as wide. The traced
 * run still times 4 shards for sim.sharded.speedup.
 */
bool
fabricSpec(const std::string &workload, bool toy, FabricSpec &out)
{
    if (workload == "fabric_dense")
        out = {toy ? 16 : 256, toy ? 20 : 150, 2, false, false};
    else if (workload == "fabric_wide")
        out = {toy ? 128 : 2048, 5, 1, false, false};
    else if (workload == "fabric_captured")
        out = {toy ? 16 : 64, toy ? 20 : 150, 2, true, true};
    else
        return false;
    return true;
}

corm::platform::FabricScenarioConfig
fabricConfig(const FabricSpec &s, std::uint64_t seed, int shards,
             bool capture)
{
    corm::platform::FabricScenarioConfig cfg;
    cfg.islands = s.islands;
    cfg.shards = shards;
    cfg.firstIslandId = 0;
    cfg.fabric.topology = corm::coord::FabricTopology::tree;
    cfg.fabric.treeFanout = 4;
    cfg.fabric.hopLatency = 500 * corm::sim::usec;
    cfg.fabric.aggWindow = 300 * corm::sim::usec;
    if (s.lossy) {
        cfg.fabric.faults.lossProb = 0.10;
        cfg.fabric.faults.dupProb = 0.05;
        cfg.fabric.faults.seed = corm::sim::SplitMix64(seed).next();
    }
    cfg.tiers = 3;
    cfg.tunesPerPair = s.tunesPerPair;
    cfg.triggerProb = 0.02;
    cfg.settleLimit = 500 * corm::sim::msec;
    cfg.convergencePoll = 2 * corm::sim::msec;
    cfg.seed = seed;
    cfg.monitorLanes = capture;
    cfg.captureMetrics = capture;
    return cfg;
}

/**
 * A set-up shorter than this is timed again on extra runs without
 * tunes, up to kMaxSetupProbes of them, so one set-up figure never
 * rests on a single sub-millisecond interval.
 */
constexpr double kSetupFloorS = 0.020;
constexpr int kMaxSetupProbes = 32;

/**
 * Host seconds from the runFabricScenario call until the routes are
 * built, on a run of the same fabric with no tunes and no triggers.
 * Nothing before the wire hook depends on the tunes, so its set-up is
 * the workload's.
 */
double
fabricSetupProbe(const FabricSpec &s, std::uint64_t seed, int shards,
                 bool capture)
{
    corm::platform::FabricScenarioConfig cfg =
        fabricConfig(s, seed, shards, capture);
    cfg.tunesPerPair = 0;
    cfg.triggerProb = 0.0;
    corm::obs::TraceRecorder rec;
    if (capture) {
        rec.setEnabled(true);
        cfg.trace = &rec;
    }
    Clock::time_point built{};
    cfg.wire = [&](corm::coord::CoordFabric &fabric) {
        fabric.parentOf(0);
        built = Clock::now();
    };
    const Clock::time_point t0 = Clock::now();
    corm::platform::runFabricScenario(cfg);
    return secondsBetween(t0, built);
}

/**
 * One fabric scenario run. Set-up ends when the routes are built: the
 * wire hook forces the build with parentOf(root). run_s covers the rest
 * of the scenario and, with capture on, the trace serialisation and the
 * flow profile the benchmark computes from it. setup_s is the mean
 * set-up of this run and of any probes kSetupFloorS calls for.
 */
void
runFabric(JsonWriter &j, const FabricSpec &s, const char *variant,
          std::uint64_t seed, int shards, bool capture, Tracer &tr,
          int run)
{
    corm::platform::FabricScenarioConfig cfg =
        fabricConfig(s, seed, shards, capture);
    corm::obs::TraceRecorder rec;
    if (capture) {
        rec.setEnabled(true);
        cfg.trace = &rec;
    }
    Clock::time_point built{};
    double buildS = 0.0, buildRssMb = 0.0;
    cfg.wire = [&](corm::coord::CoordFabric &fabric) {
        const double rss0 = currentRssMb();
        const Clock::time_point b0 = Clock::now();
        {
            SpanScope sp(tr, "coord.fabric.build", run);
            fabric.parentOf(0);
        }
        built = Clock::now();
        buildS = secondsBetween(b0, built);
        buildRssMb = currentRssMb() - rss0;
    };

    SpanScope iteration(tr, "bench.iteration", run);
    const Clock::time_point t0 = Clock::now();
    corm::platform::FabricScenarioResult r;
    {
        SpanScope sp(tr, "platform.runFabricScenario", run);
        r = corm::platform::runFabricScenario(cfg);
    }
    double traceJsonS = 0.0, flowProfileS = 0.0;
    std::uint64_t flows = 0;
    if (capture) {
        Clock::time_point a = Clock::now();
        {
            SpanScope sp(tr, "obs.trace_json", run);
            rec.json();
        }
        Clock::time_point b = Clock::now();
        traceJsonS = secondsBetween(a, b);
        {
            SpanScope sp(tr, "obs.flowprofile", run);
            corm::obs::FlowProfiler prof;
            prof.ingest(rec);
            prof.reportJson();
            flows = prof.flows().size();
        }
        flowProfileS = secondsBetween(b, Clock::now());
    }
    const Clock::time_point end = Clock::now();

    double setupSum = secondsBetween(t0, built);
    int setups = 1;
    if (setupSum < kSetupFloorS) {
        SpanScope sp(tr, "platform.fabric_setup", run);
        const bool spans = tr.enabled;
        tr.enabled = false;
        while (setupSum < kSetupFloorS && setups <= kMaxSetupProbes) {
            setupSum += fabricSetupProbe(s, seed, shards, capture);
            ++setups;
        }
        tr.enabled = spans;
    }

    char digest[24];
    std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, r.digest);
    j.beginObject();
    j.field("variant", std::string(variant));
    j.field("run", run);
    j.field("seed", seed);
    j.field("shards", shards);
    j.field("capture", capture);
    j.field("setup_s", setupSum / setups);
    j.field("run_s", secondsBetween(built, end));
    j.field("build_s", buildS);
    j.field("build_rss_mb", buildRssMb);
    j.field("trace_json_s", traceJsonS);
    j.field("flowprofile_s", flowProfileS);
    j.field("peak_rss_mb", peakRssMb());
    j.field("digest", std::string(digest));
    j.field("events", r.eventsExecuted);
    j.field("windows", r.shardWindows);
    j.field("boundary_messages", r.boundaryMessages);
    j.field("batches", r.boundaryBatches);
    j.field("barrier_wait_s", static_cast<double>(r.barrierWaitNs) / 1e9);
    j.field("wire_messages", r.wireMessages);
    j.field("hub_relays", r.hubRelays);
    j.field("agg_folded", r.aggFolded);
    j.field("link_replays", r.linkReplays);
    number(j, "msgs_per_applied_tune", r.msgsPerAppliedTune);
    j.field("triggers_sent", r.triggersSent);
    j.field("triggers_acked", r.triggersAcked);
    j.field("triggers_abandoned", r.triggersAbandoned);
    j.field("trace_events", r.traceEvents);
    j.field("flows", flows);
    j.beginObject("checks");
    j.field("delta_sums_exact", r.deltaSumsExact);
    j.field("converged", r.converged);
    j.field("bindings_ok", r.bindingsOk);
    j.field("triggers_accounted", r.triggersAccounted);
    j.field("tunes_lost", static_cast<int>(r.tunesLost));
    j.field("fabric_dropped", r.fabricDropped);
    j.endObject();
    j.endObject();
}

/** RUBiS on the two-island Xen+IXP testbed (paper Table 2). */
struct RubisSpec
{
    corm::sim::Tick warmup = 0;
    corm::sim::Tick measure = 0;
};

/** Testbed counters read from the registry in the inspect hook. */
const char *const kTestbedCounters[] = {
    "xen.sched.context_switches", "xen.sched.accountings",
    "xen.sched.boosts",           "ixp.classified",
    "ixp.wire_rx",                "coord.channel.tunes",
    "driver.polls",
};
constexpr std::size_t kTestbedCounterCount =
    sizeof(kTestbedCounters) / sizeof(kTestbedCounters[0]);

corm::platform::RubisResult
rubisOnce(bool coordination, std::uint64_t seed, corm::sim::Tick warmup,
          corm::sim::Tick measure, Tracer &tr, int run,
          std::vector<double> &counters)
{
    corm::platform::RubisScenarioConfig cfg;
    cfg.coordination = coordination;
    cfg.warmup = warmup;
    cfg.measure = measure;
    corm::platform::applyTrialSeed(cfg, seed);
    cfg.inspect = [&](corm::platform::Testbed &tb) {
        SpanScope sp(tr, "platform.inspect", run);
        tb.metrics().forEach([&](const auto &sample) {
            for (std::size_t i = 0; i < kTestbedCounterCount; ++i)
                if (sample.name == kTestbedCounters[i])
                    counters[i] += sample.value;
        });
    };
    SpanScope sp(tr, "platform.runRubisScenario", run);
    return corm::platform::runRubisScenario(cfg);
}

/** Zero-length pairs timed together for one RUBiS set-up figure. */
constexpr int kRubisSetupPairs = 256;

/**
 * One base + coordinated pair. Set-up is the mean host time of
 * kRubisSetupPairs zero-length pairs (testbed bring-up and teardown,
 * no workload events), timed as one block because one pair takes only
 * tens of microseconds. run_s is the full pair less that set-up.
 */
void
runRubis(JsonWriter &j, const RubisSpec &s, const char *variant,
         std::uint64_t seed, Tracer &tr, int run)
{
    SpanScope iteration(tr, "bench.iteration", run);
    double setup = 0.0;
    {
        // One span over all probes: each is too short to time alone.
        SpanScope sp(tr, "platform.rubis_setup", run);
        const bool spans = tr.enabled;
        tr.enabled = false;
        std::vector<double> ignored(kTestbedCounterCount, 0.0);
        const Clock::time_point a = Clock::now();
        for (int i = 0; i < kRubisSetupPairs; ++i) {
            rubisOnce(false, seed, 0, 0, tr, run, ignored);
            rubisOnce(true, seed, 0, 0, tr, run, ignored);
        }
        setup = secondsBetween(a, Clock::now()) / kRubisSetupPairs;
        tr.enabled = spans;
    }

    std::vector<double> counters(kTestbedCounterCount, 0.0);
    const Clock::time_point t0 = Clock::now();
    const corm::platform::RubisResult base =
        rubisOnce(false, seed, s.warmup, s.measure, tr, run, counters);
    const corm::platform::RubisResult coord =
        rubisOnce(true, seed, s.warmup, s.measure, tr, run, counters);
    const double pair = secondsBetween(t0, Clock::now());

    j.beginObject();
    j.field("variant", std::string(variant));
    j.field("run", run);
    j.field("seed", seed);
    j.field("setup_s", setup);
    j.field("run_s", pair - setup);
    j.field("peak_rss_mb", peakRssMb());
    j.field("events", base.eventsExecuted + coord.eventsExecuted);
    j.field("base.throughput_rps", base.throughputRps);
    j.field("coord.throughput_rps", coord.throughputRps);
    j.field("coord.tunes_sent", coord.tunesSent);
    j.field("coord.tunes_applied", coord.tunesApplied);
    for (std::size_t i = 0; i < kTestbedCounterCount; ++i)
        j.field(kTestbedCounters[i], counters[i]);
    j.beginObject("checks");
    // A perfect channel applies every Tune it carries; only those sent
    // within one channel latency of the end may still be in flight.
    j.field("tunes_applied_or_in_flight",
            coord.tunesApplied <= coord.tunesSent
                && coord.tunesSent - coord.tunesApplied <= 16);
    j.field("base.tunes_sent", base.tunesSent);
    j.field("regs_pending", base.regsPending + coord.regsPending);
    j.field("regs_abandoned", base.regsAbandoned + coord.regsAbandoned);
    j.field("chan_dropped", base.chanDropped + coord.chanDropped);
    j.endObject();
    j.endObject();
}

//
// Host record
//

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

const char *
sanitizer()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "none";
#endif
}

/** Fixed integer loop: the calibration work unit. */
std::uint64_t
spin(std::uint64_t seed)
{
    corm::sim::SplitMix64 sm(seed);
    std::uint64_t acc = 0;
    for (int i = 0; i < 100'000'000; ++i)
        acc ^= sm.next();
    return acc;
}

/** Seconds for @p threads concurrent copies of the work unit. */
double
timeSpin(unsigned threads)
{
    std::vector<std::uint64_t> sink(threads, 0);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&sink, t] { sink[t] = spin(t + 1); });
    for (std::thread &th : pool)
        th.join();
    const double s = secondsBetween(t0, Clock::now());
    if (std::find(sink.begin(), sink.end(), 0u) != sink.end())
        std::fprintf(stderr, "corm_perfbench: degenerate calibration\n");
    return s;
}

/**
 * The host's own parallel ceiling: aggregate throughput of nproc
 * concurrent copies of a fixed loop over one copy alone (median of
 * three). The sharded engine's speedup cannot exceed it.
 */
void
calibrate(JsonWriter &j, unsigned nproc, Tracer &tr)
{
    SpanScope sp(tr, "host.calibrate", -1);
    std::vector<double> ratios;
    double one = 0.0, all = 0.0;
    for (int i = 0; i < 3; ++i) {
        one = timeSpin(1);
        all = timeSpin(nproc);
        ratios.push_back(static_cast<double>(nproc) * one / all);
    }
    std::sort(ratios.begin(), ratios.end());
    j.beginObject("calibration");
    j.field("one_thread_s", one);
    j.field("all_threads_s", all);
    j.field("parallel_ceiling", ratios[1]);
    j.endObject();
}

/**
 * The reference kernel: fixed work timed between the timed repeats, so
 * that run.py can express each repeat in units of the host's speed at
 * that moment (see README.md, "Statistics"). It mixes integers and
 * churns a std::map of small vectors, the same kind of work as the
 * simulator's event loop. It runs one copy per shard at once, because a
 * sharded run waits at every barrier for its slowest thread and so
 * feels a stall on any of the vCPUs it uses. Each copy's map lives on
 * an arena of its own, so the kernel's time depends on the host and not
 * on what the simulator left in the heap. The arenas are small, so they
 * add little to peak memory.
 */
class Reference
{
  public:
    explicit Reference(int copies)
        : arenas(static_cast<std::size_t>(copies),
                 std::vector<std::byte>(4u << 20)),
          sinks(arenas.size(), 0)
    {}

    /** Host seconds until every copy of the fixed work is done. */
    double
    time()
    {
        const Clock::time_point t0 = Clock::now();
        std::vector<std::thread> pool;
        for (std::size_t i = 1; i < arenas.size(); ++i)
            pool.emplace_back([this, i] { sinks[i] ^= work(arenas[i]); });
        sinks[0] ^= work(arenas[0]);
        for (std::thread &th : pool)
            th.join();
        return secondsBetween(t0, Clock::now());
    }

    /** The work's results, so the compiler cannot drop the work. */
    std::uint64_t
    sink() const
    {
        std::uint64_t all = 0;
        for (std::uint64_t s : sinks)
            all ^= s;
        return all;
    }

  private:
    static std::uint64_t
    work(std::vector<std::byte> &arena)
    {
        corm::sim::SplitMix64 sm(3);
        std::uint64_t acc = 0;
        for (int i = 0; i < 8'000'000; ++i)
            acc ^= sm.next();

        std::pmr::monotonic_buffer_resource buffer(
            arena.data(), arena.size(), std::pmr::null_memory_resource());
        std::pmr::unsynchronized_pool_resource pool(&buffer);
        std::pmr::map<std::uint64_t, std::pmr::vector<char>> m(&pool);
        for (int i = 0; i < 150'000; ++i) {
            const std::uint64_t k = sm.next() % 12'000;
            const auto it = m.find(k);
            if (it == m.end())
                m.emplace(k, 64 + k % 256);
            else {
                acc += it->second.size();
                m.erase(it);
            }
        }
        return acc;
    }

    std::vector<std::vector<std::byte>> arenas;
    std::vector<std::uint64_t> sinks;
};

void
hostRecord(JsonWriter &j, unsigned nproc)
{
    j.beginObject("host");
    j.field("nproc", static_cast<int>(nproc));
    j.field("cpu_model", cpuModel());
    j.field("compiler", std::string("g++ ") + __VERSION__);
    j.field("build_type", std::string(CORM_BENCH_BUILD_TYPE));
    j.field("cxx_flags", std::string(CORM_BENCH_CXX_FLAGS));
#ifdef NDEBUG
    j.field("ndebug", true);
#else
    j.field("ndebug", false);
#endif
#ifdef __OPTIMIZE__
    j.field("optimized", true);
#else
    j.field("optimized", false);
#endif
    j.field("sanitizer", std::string(sanitizer()));
    j.endObject();
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "corm_perfbench: %s\n"
                 "usage: corm_perfbench --workload W --seed N "
                 "--pin-seed N --seconds S --trace 0|1 "
                 "[--size full|toy]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const char *s, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (end == s || *end != '\0') {
        std::string why = std::string("bad value for ") + flag;
        usage(why.c_str());
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1, pinSeed = 1;
    double seconds = 10.0;
    bool traced = false, toy = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = parseU64(v, "--seed");
        else if (a == "--pin-seed")
            pinSeed = parseU64(v, "--pin-seed");
        else if (a == "--seconds")
            seconds = static_cast<double>(parseU64(v, "--seconds"));
        else if (a == "--trace")
            traced = parseU64(v, "--trace") != 0;
        else if (a == "--size" && (!std::strcmp(v, "full")
                                   || !std::strcmp(v, "toy")))
            toy = !std::strcmp(v, "toy");
        else
            usage(("unknown argument " + a).c_str());
    }

    FabricSpec fabric;
    const bool isFabric = fabricSpec(workload, toy, fabric);
    if (!isFabric && workload != "rubis_testbed")
        usage(("unknown workload '" + workload + "'").c_str());
    RubisSpec rubis;
    rubis.warmup = (toy ? 1 : 20) * corm::sim::sec;
    rubis.measure = (toy ? 5 : 300) * corm::sim::sec;

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    Tracer tr;
    JsonWriter j;
    j.beginObject();
    j.field("workload", workload);
    j.field("traced", traced);
    j.field("seed", seed);
    j.field("pin_seed", pinSeed);
    hostRecord(j, nproc);

    // A variant is one way of running the workload: its tracer state,
    // shard count and capture switch. The untraced benchmark runs only
    // "main"; the traced one cycles through its variants so each gets
    // samples spread over the whole run.
    struct Variant
    {
        const char *name;
        bool spans;
        int shards;
        bool capture;
    };
    std::vector<Variant> cycle;
    if (!traced)
        cycle = {{"main", false, fabric.shards, fabric.capture}};
    else {
        cycle = {{"traced", true, fabric.shards, fabric.capture},
                 {"untraced", false, fabric.shards, fabric.capture}};
        if (workload == "fabric_dense") {
            cycle.push_back({"shards1", true, 1, false});
            cycle.push_back({"shards4", true, 4, false});
        }
        if (fabric.capture)
            cycle.push_back({"bare", true, fabric.shards, false});
    }
    const auto runOne = [&](const Variant &v, std::uint64_t s, int run) {
        tr.enabled = v.spans;
        if (isFabric)
            runFabric(j, fabric, v.name, s, v.shards, v.capture, tr, run);
        else
            runRubis(j, rubis, v.name, s, tr, run);
    };

    // The whole process, pin run and calibration included, keeps to
    // --seconds: a cycle starts only while one more like the last fits.
    const Clock::time_point start = Clock::now();
    Reference reference(isFabric ? fabric.shards : 1);
    reference.time(); // first touch of its arenas, before any timing

    j.beginArray("untimed");
    int run = 0;
    // The capture's memory is measured against a process that has so
    // far run the same fabric bare.
    if (traced && fabric.capture) {
        runOne(cycle.back(), seed, run++);
        runOne(cycle.back(), seed, run++);
    }
    // The pin run: the default seed, checked against the pinned
    // digests. It also warms the allocator and caches before timing.
    runOne({"pin", traced, fabric.shards, fabric.capture}, pinSeed, run++);
    j.endArray();
    if (traced) {
        tr.enabled = true;
        calibrate(j, nproc, tr);
    }
    // The reference kernel runs before the first timed repeat and after
    // every one, so reference_s[i] and reference_s[i + 1] bracket
    // timed repeat i.
    std::vector<double> refs{reference.time()};
    j.beginArray("timed");
    const int minCycles = traced ? 2 : 3;
    double cycleS = 0.0;
    for (int c = 0; c < minCycles
                    || secondsBetween(start, Clock::now()) + cycleS < seconds;
         ++c) {
        const Clock::time_point c0 = Clock::now();
        for (const Variant &v : cycle) {
            runOne(v, seed, run++);
            refs.push_back(reference.time());
        }
        cycleS = secondsBetween(c0, Clock::now());
    }
    j.endArray();
    j.beginArray("reference_s");
    for (double r : refs)
        j.field(nullptr, r);
    j.endArray();
    j.field("reference_sink", reference.sink());
    j.field("measured_s", secondsBetween(start, Clock::now()));
    j.field("peak_rss_mb", peakRssMb());
    tr.write(j);
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}
