/**
 * @file
 * Flow-latency attribution: reassemble the causal coordination spans
 * a TraceRecorder captured (decide -> send -> deliver -> apply -> ack)
 * into per-flow leg breakdowns, and aggregate them into per-leg and
 * per-(link, message-type) log2 histograms with p50/p99/p999.
 *
 * The paper's argument (§2.3) is that coordination pays off only when
 * the end-to-end cost of a Tune/Trigger stays small against the
 * workload's timescale. The trace side-band (DESIGN.md §8, §11)
 * records *where* every flow went; this profiler answers *where it
 * spent its time* — splitting each flow into legs:
 *
 *   decide  policy decision slice (decide:* companion of the begin)
 *   queue   un-attributed dwell between legs: hub relay turnaround,
 *           aggregation-buffer hold, ack turnaround at the endpoint
 *   wire    transit of forward hops (hop:* slices, per link)
 *   retry   reliable-sender backoff waits and link-layer replay gaps
 *   apply   delivery-to-apply dispatch delay (tune:apply and
 *           trigger:apply companions)
 *   ack     transit of the ack return hop (hop:ack slices)
 *
 * and blaming each flow on its dominant leg. Flows folded into an
 * aggregate at a tree hub count as `coalesced`; flows whose span
 * dangles (a link-layer abandon deliberately emits no flow end) or
 * that carry an abandon marker count as `abandoned` — never silently
 * dropped. Flow fragments without a begin (a ring-buffer flight
 * window that evicted the decide leg) are counted as `orphans` and
 * excluded from leg accounting.
 *
 * Two feeders share one normalized event stream, so their reports are
 * byte-identical by construction:
 *
 *  * ingest(TraceRecorder) — the in-process path (benches, the
 *    flight recorder's breach snapshots);
 *  * ingestTraceJson(JsonValue) — the offline path
 *    (bench/trace_analyze.cpp over a merged Perfetto JSON file).
 *
 * The JSON serializer prints ts/dur as `<us>.<3-digit ns remainder>`,
 * so llround(value * 1000) recovers the original nanosecond Tick
 * exactly (sim ticks are far below 2^53/1000); every histogram input
 * is derived from those integers, never from intermediate doubles.
 *
 * Digest neutrality: the profiler only *reads* a recorder after (or
 * outside) the simulated run; it schedules nothing, allocates no sim
 * state and touches no RNG stream, so enabling attribution cannot
 * move a scenario digest. Determinism: flows accumulate into a
 * std::map keyed by flow id and links into a std::map keyed by
 * (track, type), so aggregation order — and the serialized report —
 * is independent of event interleaving beyond what the merged trace
 * itself fixes. A byte-identical trace yields a byte-identical
 * report, which is how the shard-count invariance of PR 8 carries
 * over to attribution.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace corm::obs {

/** The fixed leg order of every report and blame tie-break. */
enum class FlowLeg : std::uint8_t
{
    decide = 0,
    queue,
    wire,
    retry,
    apply,
    ack
};

inline constexpr std::size_t flowLegCount = 6;

/** Canonical leg name (report keys, blame labels). */
constexpr const char *
flowLegName(FlowLeg leg)
{
    switch (leg) {
      case FlowLeg::decide: return "decide";
      case FlowLeg::queue: return "queue";
      case FlowLeg::wire: return "wire";
      case FlowLeg::retry: return "retry";
      case FlowLeg::apply: return "apply";
      case FlowLeg::ack: return "ack";
    }
    return "?";
}

/** How one reassembled flow terminated. */
enum class FlowOutcome : std::uint8_t
{
    completed, ///< begin and end seen, not folded
    coalesced, ///< folded into an aggregate at a tree hub
    abandoned, ///< abandon marker, or span left dangling
    orphan     ///< fragments without a begin (evicted window)
};

/** Canonical outcome name. */
constexpr const char *
flowOutcomeName(FlowOutcome o)
{
    switch (o) {
      case FlowOutcome::completed: return "completed";
      case FlowOutcome::coalesced: return "coalesced";
      case FlowOutcome::abandoned: return "abandoned";
      case FlowOutcome::orphan: return "orphan";
    }
    return "?";
}

/** One flow's reconstructed latency story. */
struct FlowBreakdown
{
    TraceId id = 0;
    FlowOutcome outcome = FlowOutcome::completed;
    /** Nanoseconds attributed to each leg (FlowLeg order). */
    std::uint64_t legNs[flowLegCount] = {};
    std::uint64_t beginTs = 0; ///< ns; flow-begin timestamp
    std::uint64_t lastTs = 0;  ///< ns; latest flow event seen
    std::uint64_t hops = 0;    ///< forward wire hops
    std::uint64_t retries = 0; ///< retransmit markers
    std::uint64_t dups = 0;    ///< duplicate deliveries observed

    /** End-to-end nanoseconds (begin to last event). */
    std::uint64_t totalNs() const
    {
        return lastTs > beginTs ? lastTs - beginTs : 0;
    }

    /**
     * Dominant leg: the largest leg in FlowLeg order (earliest wins
     * ties). Abandoned flows are blamed "abandoned" regardless — an
     * abandon's cost is unbounded retry wait by definition, and the
     * label must surface in breach forensics, not hide under `retry`.
     */
    const char *
    blame() const
    {
        if (outcome == FlowOutcome::abandoned)
            return "abandoned";
        std::size_t best = 0;
        for (std::size_t i = 1; i < flowLegCount; ++i) {
            if (legNs[i] > legNs[best])
                best = i;
        }
        return flowLegName(static_cast<FlowLeg>(best));
    }
};

/**
 * Reassembles coordination flows from trace events and aggregates
 * leg/link latency distributions. Feed with ingest() and/or
 * ingestTraceJson(), then read flows()/report()/reportJson().
 */
class FlowProfiler
{
  public:
    /** Aggregated distribution of one leg or link. */
    struct Dist
    {
        std::uint64_t count = 0;
        std::uint64_t sumNs = 0; ///< exact integer nanoseconds
        Histogram hist;          ///< microsecond observations

        void
        record(std::uint64_t ns)
        {
            ++count;
            sumNs += ns;
            hist.record(static_cast<double>(ns) / 1000.0);
        }
    };

    /** Per-(link track, message type) wire distribution. */
    using LinkKey = std::pair<std::string, std::string>;

    /**
     * Ingest every event of @p rec (the in-process feeder). Track
     * identity is "process/thread" — the same join the JSON feeder
     * reconstructs from trace metadata.
     */
    void
    ingest(const TraceRecorder &rec)
    {
        for (const TraceEvent &e : rec.events()) {
            Ev ev;
            ev.phase = e.phase;
            ev.ts = static_cast<std::uint64_t>(e.ts);
            ev.dur = static_cast<std::uint64_t>(e.dur);
            ev.track = internTrack(rec.trackProcess(e.track) + "/"
                                   + rec.trackThread(e.track));
            ev.flow = e.flow;
            ev.name = e.name;
            feed(std::move(ev));
        }
        dirty_ = true;
    }

    /**
     * Ingest a parsed Chrome trace-event document (the offline
     * feeder). Returns false (and fills @p err) when the document
     * lacks a traceEvents array or an event is malformed beyond
     * skipping. Timestamps are reconverted from the serialized
     * microsecond decimals to exact nanosecond integers.
     */
    bool
    ingestTraceJson(const JsonValue &doc, std::string *err = nullptr)
    {
        const JsonValue *events = doc.get("traceEvents");
        if (!events || !events->isArray()) {
            if (err)
                *err = "missing traceEvents array";
            return false;
        }
        // First pass: track names from metadata. writeJson emits all
        // metadata before any timed event, but a foreign trace may
        // interleave, so resolve names before decoding events.
        std::map<double, std::string> processes;
        std::map<std::pair<double, double>, std::string> threads;
        for (const JsonValue &e : events->items) {
            const JsonValue *ph = e.get("ph");
            if (!ph || !ph->isString() || ph->str != "M")
                continue;
            const JsonValue *name = e.get("name");
            const JsonValue *pid = e.get("pid");
            const JsonValue *tid = e.get("tid");
            const JsonValue *args = e.get("args");
            const JsonValue *value = args ? args->get("name") : nullptr;
            if (!name || !name->isString() || !pid || !pid->isNumber()
                || !tid || !tid->isNumber() || !value
                || !value->isString())
                continue;
            if (name->str == "process_name")
                processes[pid->num] = value->str;
            else if (name->str == "thread_name")
                threads[{pid->num, tid->num}] = value->str;
        }
        auto trackName = [&](double pid, double tid) {
            auto p = processes.find(pid);
            auto t = threads.find({pid, tid});
            const std::string proc =
                p != processes.end() ? p->second : "?";
            const std::string thr = t != threads.end() ? t->second : "?";
            return proc + "/" + thr;
        };
        for (const JsonValue &e : events->items) {
            if (!e.isObject())
                continue;
            const JsonValue *ph = e.get("ph");
            if (!ph || !ph->isString() || ph->str.size() != 1
                || ph->str == "M")
                continue;
            const JsonValue *name = e.get("name");
            const JsonValue *ts = e.get("ts");
            const JsonValue *pid = e.get("pid");
            const JsonValue *tid = e.get("tid");
            if (!name || !name->isString() || !ts || !ts->isNumber()
                || !pid || !pid->isNumber() || !tid || !tid->isNumber())
                continue;
            Ev ev;
            ev.phase = ph->str[0];
            ev.ts = exactNs(ts->num);
            const JsonValue *dur = e.get("dur");
            ev.dur = dur && dur->isNumber() ? exactNs(dur->num) : 0;
            ev.track = internTrack(trackName(pid->num, tid->num));
            const JsonValue *id = e.get("id");
            ev.flow = id && id->isNumber()
                ? static_cast<TraceId>(id->num)
                : 0;
            ev.name = name->str;
            feed(std::move(ev));
        }
        dirty_ = true;
        return true;
    }

    /** Parse @p text and ingest (see ingestTraceJson). */
    bool
    ingestTraceText(std::string_view text, std::string *err = nullptr)
    {
        JsonValue doc;
        std::string perr;
        if (!parseJson(text, doc, &perr)) {
            if (err)
                *err = "malformed JSON: " + perr;
            return false;
        }
        return ingestTraceJson(doc, err);
    }

    /** Reassembled flows keyed by id (profiles lazily). */
    const std::map<TraceId, FlowBreakdown> &
    flows() const
    {
        profileIfDirty();
        return flows_;
    }

    /** Aggregated leg distribution (profiles lazily). */
    const Dist &
    leg(FlowLeg l) const
    {
        profileIfDirty();
        return legs_[static_cast<std::size_t>(l)];
    }

    /** End-to-end latency distribution over non-orphan flows. */
    const Dist &
    total() const
    {
        profileIfDirty();
        return total_;
    }

    /** Per-(link, message type) wire distributions. */
    const std::map<LinkKey, Dist> &
    links() const
    {
        profileIfDirty();
        return links_;
    }

    /** Flows with the given outcome. */
    std::uint64_t
    outcomeCount(FlowOutcome o) const
    {
        profileIfDirty();
        return outcomes_[static_cast<std::size_t>(o)];
    }

    /** Flows blamed on @p label ("wire", "retry", ..., "abandoned"). */
    std::uint64_t
    blameCount(const std::string &label) const
    {
        profileIfDirty();
        auto it = blame_.find(label);
        return it == blame_.end() ? 0 : it->second;
    }

    /**
     * The @p k slowest non-orphan flows, by end-to-end time
     * descending, ties broken by ascending flow id (deterministic).
     */
    std::vector<FlowBreakdown>
    slowest(std::size_t k) const
    {
        profileIfDirty();
        std::vector<FlowBreakdown> out;
        out.reserve(flows_.size());
        for (const auto &[id, f] : flows_) {
            if (f.outcome != FlowOutcome::orphan)
                out.push_back(f);
        }
        std::sort(out.begin(), out.end(),
                  [](const FlowBreakdown &a, const FlowBreakdown &b) {
                      if (a.totalNs() != b.totalNs())
                          return a.totalNs() > b.totalNs();
                      return a.id < b.id;
                  });
        if (out.size() > k)
            out.resize(k);
        return out;
    }

    /**
     * Serialize the attribution report into @p j: outcome counts,
     * per-leg and total distributions, blame table, per-link wire
     * distributions, and the top-@p top_k slowest flows with their
     * leg breakdowns. Field order is fixed, so byte-equal traces
     * produce byte-equal reports.
     */
    void
    writeReport(JsonWriter &j, std::size_t top_k = 5) const
    {
        profileIfDirty();
        j.beginObject();
        j.field("flows", static_cast<std::uint64_t>(flows_.size()));
        j.field("completed", outcomeCount(FlowOutcome::completed));
        j.field("coalesced", outcomeCount(FlowOutcome::coalesced));
        j.field("abandoned", outcomeCount(FlowOutcome::abandoned));
        j.field("orphans", outcomeCount(FlowOutcome::orphan));
        j.beginObject("legs");
        for (std::size_t i = 0; i < flowLegCount; ++i)
            writeDist(j, flowLegName(static_cast<FlowLeg>(i)),
                      legs_[i]);
        j.endObject();
        writeDist(j, "total", total_);
        j.beginObject("blame");
        for (std::size_t i = 0; i < flowLegCount; ++i) {
            const char *name = flowLegName(static_cast<FlowLeg>(i));
            j.field(name, blameCount(name));
        }
        j.field("abandoned", blameCount("abandoned"));
        j.endObject();
        j.beginArray("links");
        for (const auto &[key, d] : links_) {
            j.beginObject();
            j.field("link", key.first);
            j.field("type", key.second);
            j.field("count", d.count);
            j.field("sum_ns", d.sumNs);
            j.field("p50_us", d.hist.quantile(0.50));
            j.field("p99_us", d.hist.quantile(0.99));
            j.field("p999_us", d.hist.quantile(0.999));
            j.field("max_us", d.hist.max());
            j.endObject();
        }
        j.endArray();
        j.beginArray("slowest");
        for (const FlowBreakdown &f : slowest(top_k)) {
            j.beginObject();
            j.field("id", static_cast<std::uint64_t>(f.id));
            j.field("outcome",
                    std::string(flowOutcomeName(f.outcome)));
            j.field("blame", std::string(f.blame()));
            j.field("total_ns", f.totalNs());
            j.beginObject("legs_ns");
            for (std::size_t i = 0; i < flowLegCount; ++i)
                j.field(flowLegName(static_cast<FlowLeg>(i)),
                        f.legNs[i]);
            j.endObject();
            j.field("hops", f.hops);
            j.field("retries", f.retries);
            j.field("dups", f.dups);
            j.field("begin_ts_ns", f.beginTs);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }

    /** The report as a standalone JSON string. */
    std::string
    reportJson(std::size_t top_k = 5) const
    {
        JsonWriter j;
        writeReport(j, top_k);
        return j.str();
    }

  private:
    /** Normalized event: the shared substrate of both feeders. */
    struct Ev
    {
        char phase = 'i';
        std::uint64_t ts = 0;  ///< ns
        std::uint64_t dur = 0; ///< ns, 'X' only
        int track = 0;
        TraceId flow = 0;
        std::string name;
    };

    /** Serialized "<us>.<ns%1000>" decimal back to integer ns. */
    static std::uint64_t
    exactNs(double micros)
    {
        return micros <= 0.0
            ? 0
            : static_cast<std::uint64_t>(std::llround(micros * 1000.0));
    }

    static bool
    startsWith(const std::string &s, std::string_view prefix)
    {
        return s.size() >= prefix.size()
            && s.compare(0, prefix.size(), prefix) == 0;
    }

    int
    internTrack(const std::string &name)
    {
        for (std::size_t i = 0; i < trackNames_.size(); ++i) {
            if (trackNames_[i] == name)
                return static_cast<int>(i);
        }
        trackNames_.push_back(name);
        return static_cast<int>(trackNames_.size() - 1);
    }

    void
    feed(Ev &&e)
    {
        evs_.push_back(std::move(e));
    }

    /** Working state of one flow while scanning the stream. */
    struct FlowWork
    {
        FlowBreakdown out;
        bool began = false;
        bool ended = false;
        bool coalesced = false;
        bool abandonMarked = false;
        std::uint64_t cursor = 0; ///< attribution frontier (ns)
        /** A retransmit marker opened a retry interval that the next
         *  wire hop's pre-gap still belongs to. */
        bool pendingRetry = false;
    };

    void
    profileIfDirty() const
    {
        if (!dirty_)
            return;
        dirty_ = false;
        flows_.clear();
        links_.clear();
        for (Dist &d : legs_)
            d = Dist{};
        total_ = Dist{};
        for (std::uint64_t &c : outcomes_)
            c = 0;
        blame_.clear();

        std::map<TraceId, FlowWork> work;
        for (std::size_t i = 0; i < evs_.size(); ++i) {
            const Ev &e = evs_[i];
            if (e.phase == 'X' && startsWith(e.name, "hop:")
                && !startsWith(e.name, "hop:dup:")) {
                // Per-link wire weather, flow-linked or not: every
                // first-copy transit slice, keyed (track, type).
                links_[{trackNames_[static_cast<std::size_t>(e.track)],
                        e.name.substr(4)}]
                    .record(e.dur);
            }
            if (e.phase != 's' && e.phase != 't' && e.phase != 'f')
                continue;
            if (e.flow == 0)
                continue;
            attribute(work[e.flow], e, i);
        }

        for (auto &[id, w] : work) {
            FlowBreakdown &f = w.out;
            f.id = id;
            if (!w.began)
                f.outcome = FlowOutcome::orphan;
            else if (w.abandonMarked || !w.ended)
                f.outcome = FlowOutcome::abandoned;
            else if (w.coalesced)
                f.outcome = FlowOutcome::coalesced;
            else
                f.outcome = FlowOutcome::completed;
            ++outcomes_[static_cast<std::size_t>(f.outcome)];
            if (f.outcome != FlowOutcome::orphan) {
                for (std::size_t l = 0; l < flowLegCount; ++l) {
                    if (f.legNs[l] != 0)
                        legs_[l].record(f.legNs[l]);
                }
                total_.record(f.totalNs());
                ++blame_[f.blame()];
            }
            flows_.emplace(id, f);
        }
    }

    /**
     * Fold one flow event (with its companion markers) into @p w.
     *
     * Companion rule: the recorder emits a flow event immediately
     * after the slice or instant it annotates, on the same track —
     * either at the marker's own timestamp (shard fabric hops, decide
     * slices, retry/abandon/fold instants) or at a transit slice's
     * *end* (CoordChannel emits hop slices at delivery with
     * ts = send tick). Scan backwards over consecutive same-track
     * non-flow events matching either convention; companion adjacency
     * survives the barrier-time shard merge because the pair shares
     * (emitTick, track) with consecutive emitSeqs (DESIGN.md §11).
     */
    void
    attribute(FlowWork &w, const Ev &e, std::size_t index) const
    {
        const Ev *hop = nullptr;     // forward or ack transit slice
        const Ev *decide = nullptr;  // decide:* slice
        bool retransmit = false;     // retry:* / replay:* instant
        bool abandon = false;        // abandon instant
        bool fold = false;           // agg:fold instant
        bool apply = false;          // tune:apply / trigger:apply
        bool dup = false;            // hop:dup:* instant
        for (std::size_t j = index; j-- > 0;) {
            const Ev &c = evs_[j];
            if (c.phase == 's' || c.phase == 't' || c.phase == 'f')
                break;
            if (c.track != e.track)
                break;
            const bool atTs = c.ts == e.ts;
            const bool endsAtTs =
                c.phase == 'X' && c.ts + c.dur == e.ts;
            if (!atTs && !endsAtTs)
                break;
            if (c.phase == 'X' && startsWith(c.name, "hop:")
                && !startsWith(c.name, "hop:dup:")) {
                hop = &c;
            } else if (c.phase == 'X'
                       && startsWith(c.name, "decide:")) {
                decide = &c;
            } else if (c.name == "tune:apply"
                       || c.name == "trigger:apply") {
                apply = true;
            } else if (startsWith(c.name, "retry:")
                       || startsWith(c.name, "replay:")) {
                retransmit = true;
            } else if (c.name == "abandon") {
                abandon = true;
            } else if (c.name == "agg:fold") {
                fold = true;
            } else if (startsWith(c.name, "hop:dup:")) {
                dup = true;
            }
        }

        FlowBreakdown &f = w.out;
        if (dup)
            ++f.dups;
        if (!w.began && f.lastTs == 0 && f.beginTs == 0
            && e.phase != 's') {
            // Orphan fragment (the window evicted the begin): anchor
            // the frontier at the first surviving event so leg gaps
            // measure within the fragment, not from time zero.
            f.beginTs = e.ts;
            w.cursor = e.ts;
        }
        if (e.phase == 's') {
            if (!w.began) {
                w.began = true;
                f.beginTs = e.ts;
                f.lastTs = std::max(f.lastTs, e.ts);
                w.cursor = e.ts;
                if (decide)
                    f.legNs[static_cast<std::size_t>(
                        FlowLeg::decide)] += decide->dur;
            }
            return;
        }

        auto addLeg = [&f](FlowLeg l, std::uint64_t ns) {
            f.legNs[static_cast<std::size_t>(l)] += ns;
        };
        const std::uint64_t gap =
            e.ts > w.cursor ? e.ts - w.cursor : 0;
        if (hop) {
            // Transit interval [hs, he]; the dwell before the hop is
            // backoff wait when a retransmit opened it, queueing
            // otherwise. Clamps keep overlapping markers from double
            // counting: only time past the frontier is attributed.
            const std::uint64_t hs = hop->ts;
            const std::uint64_t he = hop->ts + hop->dur;
            const std::uint64_t pre =
                hs > w.cursor ? hs - w.cursor : 0;
            const bool wasRetry = retransmit || w.pendingRetry;
            addLeg(wasRetry ? FlowLeg::retry : FlowLeg::queue, pre);
            const std::uint64_t from = std::max(hs, w.cursor);
            const std::uint64_t transit = he > from ? he - from : 0;
            const bool isAck = hop->name == "hop:ack";
            addLeg(isAck ? FlowLeg::ack : FlowLeg::wire, transit);
            if (!isAck)
                ++f.hops;
            if (retransmit)
                ++f.retries;
            w.pendingRetry = false;
            w.cursor = std::max(w.cursor, he);
        } else if (retransmit) {
            addLeg(FlowLeg::retry, gap);
            ++f.retries;
            w.pendingRetry = true;
            w.cursor = std::max(w.cursor, e.ts);
        } else if (apply) {
            addLeg(FlowLeg::apply, gap);
            w.cursor = std::max(w.cursor, e.ts);
        } else if (abandon) {
            addLeg(FlowLeg::retry, gap);
            w.abandonMarked = true;
            w.cursor = std::max(w.cursor, e.ts);
        } else if (fold) {
            addLeg(FlowLeg::queue, gap);
            w.coalesced = true;
            w.cursor = std::max(w.cursor, e.ts);
        } else {
            // Naked checkpoint: hub relay arrival or final delivery
            // on a node track. Wire time was attributed by the lane
            // hop; any residue is dwell.
            addLeg(FlowLeg::queue, gap);
            w.cursor = std::max(w.cursor, e.ts);
        }
        f.lastTs = std::max(f.lastTs, e.ts);
        if (e.phase == 'f')
            w.ended = true;
    }

    static void
    writeDist(JsonWriter &j, const char *key, const Dist &d)
    {
        j.beginObject(key);
        j.field("count", d.count);
        j.field("sum_ns", d.sumNs);
        j.field("p50_us", d.hist.quantile(0.50));
        j.field("p99_us", d.hist.quantile(0.99));
        j.field("p999_us", d.hist.quantile(0.999));
        j.field("max_us", d.hist.max());
        j.endObject();
    }

    std::vector<Ev> evs_;
    std::vector<std::string> trackNames_;
    mutable bool dirty_ = false;
    mutable std::map<TraceId, FlowBreakdown> flows_;
    mutable Dist legs_[flowLegCount];
    mutable Dist total_;
    mutable std::map<LinkKey, Dist> links_;
    mutable std::uint64_t outcomes_[4] = {};
    mutable std::map<std::string, std::uint64_t> blame_;
};

} // namespace corm::obs
