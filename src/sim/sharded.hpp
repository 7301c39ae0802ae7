/**
 * @file
 * Sharded parallel event loop: conservative-lookahead PDES.
 *
 * One Simulator is single-threaded by design; --jobs parallelism
 * lives at the trial level (platform/harness.hpp). This file adds
 * the missing axis: intra-trial parallelism. A ShardedEngine owns K
 * Simulators ("shards"), each modelling a disjoint subset of the
 * platform's islands, and advances them concurrently in lockstep
 * windows under the classic conservative-lookahead rule: with every
 * cross-shard interaction carried by a modelled link of latency L, a
 * message sent at time t cannot take effect before t + L, so every
 * shard may safely execute all events up to
 *
 *     windowEnd = min(until, earliestPendingEventAnywhere + L)
 *
 * without ever seeing a message from the "future" of another shard.
 *
 * Cross-shard traffic crosses only at window barriers. During a
 * window each shard appends ShardMessage PODs to per-(src, dst)
 * boundary queues — single-writer per queue. After the window every
 * shard meets at a barrier, then each destination shard drains its
 * own inbound queues on its own thread: it sorts its arrivals into
 * the canonical (when, lane, seq) order and injects them into its
 * Simulator as batch events. A second barrier hands the drained
 * shards back to the coordinator, which runs the probe and plans the
 * next window. The barriers are atomic counters (release/acquire:
 * all the happens-before the queues need, clean under TSan) that
 * spin briefly and then park on a mutex/condvar — a worker that had
 * to park for the last window spins only 200 us for the next — and
 * never spin when the shards outnumber the host's hardware threads.
 *
 * Determinism contract: the window sequence is a pure function of
 * the global live-event set (Simulator::nextEventAt() deliberately
 * ignores tombstone timing), the canonical order is a pure function
 * of placement-independent lane ids and per-lane send sequences, and
 * a message's injection barrier is the window of its send time. None
 * of those depend on how islands are partitioned, so a scenario
 * digest is bit-identical for any shard count — the property the
 * shard-determinism ctests and the FabricFuzz extension enforce.
 *
 * Allocation discipline (this wraps the innermost loop): boundary
 * payloads live in per-destination ingress arenas that grow but are
 * never reshuffled, and injected batch events capture only
 * {engine, shard, offset, count} — 24 bytes, inside SmallCallback's
 * inline buffer — so parallel delivery performs no per-message heap
 * allocation.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace corm::sim {

/**
 * One message crossing a shard boundary. POD: queues and arenas
 * shuffle these by memcpy. The payload words are opaque to the
 * engine — the fabric packs its wire words plus side-band fields
 * (origin timestamp, trace flow, coalesced count) the same way the
 * interconnect mailboxes carry (w0, w1, w2, tag, flow) tuples.
 */
struct ShardMessage
{
    /** Absolute delivery time at the destination shard. */
    Tick when = 0;
    /** Per-lane send sequence: canonical tiebreak within a lane. */
    std::uint64_t seq = 0;
    /**
     * Placement-independent lane id (one per link direction).
     * Canonical tiebreak between lanes delivering at the same tick —
     * deliberately NOT the source shard index, which would change
     * with the partition and break cross-shard-count determinism.
     * 64-bit: the fabric derives it from a 32-bit link key plus a
     * direction bit, which no longer fits 32 bits.
     */
    std::uint64_t lane = 0;
    /** Destination node, for the sink's routing context. */
    std::uint16_t node = 0;
    /** ShardMessage::flagDuplicate etc. */
    std::uint8_t flags = 0;
    /** Link hops completed before this one. */
    std::uint16_t hops = 0;
    /** Opaque payload words (the fabric's encoded wire message). */
    std::uint64_t w0 = 0, w1 = 0, w2 = 0;
    /** Side-band: logical origin timestamp of the message. */
    Tick origin = 0;
    /** Side-band: trace flow id. */
    std::uint64_t flow = 0;
    /** Side-band: payload multiplicity (coalesced tune count). */
    std::uint32_t aux = 1;

    /** Second copy of a weather-duplicated wire message. */
    static constexpr std::uint8_t flagDuplicate = 1;
};

/** Host-side counters of the sharded engine itself. */
struct ShardEngineStats
{
    std::uint64_t windows = 0;  ///< lookahead windows executed
    std::uint64_t messages = 0; ///< boundary messages carried
    std::uint64_t batches = 0;  ///< injection batch events scheduled
    std::size_t maxBoundaryDepth = 0; ///< deepest (src,dst) queue
    /**
     * Host nanoseconds the coordinator spent parked at barriers
     * waiting for the slowest worker — the load-imbalance signal
     * behind the shard_scale speedup numbers. Host time, hence
     * nondeterministic: report it, never digest or baseline it.
     */
    std::uint64_t barrierWaitNs = 0;
};

/**
 * K Simulators advancing concurrently under a conservative-lookahead
 * barrier. Shard 0 runs on the calling thread; shards 1..K-1 each
 * own a persistent worker. With K == 1 no threads are spawned and
 * the engine is an ordinary (windowed) single-threaded run — the
 * honest baseline the shard_scale bench compares against.
 *
 * Usage protocol: configure sinks/probe, schedule initial events on
 * the shard simulators, then runUntil()/runFor() from one thread.
 * Between runs the caller may freely touch any shard simulator (all
 * workers are parked). During a run, shard code must only touch its
 * own simulator and post() boundary messages.
 */
class ShardedEngine
{
  public:
    /** Destination-shard delivery callback (runs on that shard). */
    using Sink = std::function<void(const ShardMessage &)>;
    /**
     * Barrier probe: runs on the coordinator thread at every window
     * barrier (all shards quiescent at the window end, boundary
     * messages already injected). Return true to stop the run —
     * the sharded analogue of Simulator::requestStop(), used for
     * convergence polling. May inspect and schedule on any shard.
     */
    using Probe = std::function<bool(Tick)>;

    /**
     * @param shards Number of shards (>= 1).
     * @param lookahead Conservative lookahead L (> 0): the minimum
     *        cross-shard latency the model guarantees.
     * @param seed Master seed the per-shard RNG streams split from.
     */
    ShardedEngine(int shards, Tick lookahead,
                  std::uint64_t seed = 0x5eedc0de5eedc0deULL)
        : nShards_(shards > 1 ? shards : 1), lookahead_(lookahead),
          spin_(static_cast<unsigned>(nShards_) <= hardwareThreads())
    {
        assert(lookahead_ > 0 && "lookahead must be positive");
        const auto k = static_cast<std::size_t>(nShards_);
        sims_.reserve(k);
        for (int i = 0; i < nShards_; ++i) {
            sims_.push_back(std::make_unique<ShardSim>());
            rngs_.push_back(Rng::stream(
                seed, static_cast<std::uint64_t>(i)));
        }
        sinks_.resize(k);
        shards_.resize(k);
        outbox_.resize(k * k);
        workers_.reserve(k - 1);
        for (int i = 1; i < nShards_; ++i)
            workers_.emplace_back([this, i] { workerLoop(i); });
    }

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    ~ShardedEngine()
    {
        quit_.store(true);
        wake();
        for (auto &w : workers_)
            w.join();
    }

    /** Number of shards. */
    int shardCount() const { return nShards_; }

    /** Simulator of @p shard. */
    Simulator &
    sim(int shard)
    {
        return sims_[static_cast<std::size_t>(shard)]->sim;
    }

    /**
     * Independent RNG stream of @p shard, split statelessly from the
     * master seed (Rng::stream), so stream k is identical no matter
     * how many shards exist.
     */
    Rng &
    rng(int shard)
    {
        return rngs_[static_cast<std::size_t>(shard)];
    }

    /** Coordinator clock: end of the last completed window. */
    Tick now() const { return clock_; }

    /** Conservative lookahead the engine was built with. */
    Tick lookahead() const { return lookahead_; }

    /** Install the delivery callback of @p shard (before running). */
    void
    setSink(int shard, Sink s)
    {
        sinks_[static_cast<std::size_t>(shard)] = std::move(s);
    }

    /** Install the barrier probe (see Probe). */
    void setProbe(Probe p) { probe_ = std::move(p); }

    /** True if the last run was ended early by the probe. */
    bool stopped() const { return stopped_; }

    /**
     * Queue a boundary message from @p src to @p dst. Runs on shard
     * @p src (its worker thread, mid-window) or on the coordinator
     * between windows. The delivery time must respect the lookahead
     * contract: at or after the current window's end.
     */
    void
    post(int src, int dst, const ShardMessage &m)
    {
        assert(m.when >= windowEnd_ &&
               "boundary message violates the lookahead contract");
        outbox(src, dst).push_back(m);
        ++shards_[static_cast<std::size_t>(src)].posted;
    }

    /**
     * Advance every shard to @p until (or until the probe stops the
     * run), window by window. On return all shard clocks sit at
     * @p until unless the probe stopped early, in which case they
     * sit at the stopping window's end (== now()).
     */
    void
    runUntil(Tick until)
    {
        stopped_ = false;
        // Boundary messages posted between runs (scenario setup
        // traffic) sit in the outboxes, not in any simulator yet:
        // inject them before planning the first window.
        for (int d = 0; d < nShards_; ++d)
            drainInto(d);
        for (;;) {
            Tick minNext = maxTick;
            for (auto &s : sims_)
                minNext = std::min(minNext, s->sim.nextEventAt());
            if (minNext > until)
                break;
            const Tick wEnd = (until - minNext < lookahead_)
                                  ? until
                                  : minNext + lookahead_;
            runWindow(wEnd);
            ++windows_;
            clock_ = wEnd;
            if (probe_ && probe_(wEnd)) {
                stopped_ = true;
                return;
            }
        }
        // No pending event at or before `until` anywhere: advance
        // every clock without running anything.
        for (auto &s : sims_)
            s->sim.runUntil(until);
        clock_ = until;
    }

    /** Run @p duration ticks from now(). */
    void runFor(Tick duration) { runUntil(clock_ + duration); }

    /**
     * Call @p fn(k) once for every shard k, each on that shard's own
     * thread (shard 0 on the caller's), and return when all calls
     * have returned. Between runs only. @p fn(k) may touch shard k's
     * simulator and state no other call writes — the parallel form
     * of scheduling a large workload shard by shard.
     */
    void
    forEachShard(const std::function<void(int)> &fn)
    {
        if (nShards_ == 1) {
            fn(0);
            return;
        }
        task_ = &fn;
        const std::uint64_t gen = ++gen_;
        arrive(go_);
        fn(0);
        arrive(ran_);
        await(drained_, gen * static_cast<std::uint64_t>(nShards_ - 1),
              barrierSpin);
        task_ = nullptr;
    }

    /** Total events dispatched across every shard simulator. */
    std::uint64_t
    eventsExecuted() const
    {
        std::uint64_t n = 0;
        for (const auto &s : sims_)
            n += s->sim.executedEvents();
        return n;
    }

    /** Engine-level counters (read at barriers or between runs). */
    ShardEngineStats
    stats() const
    {
        ShardEngineStats st;
        st.windows = windows_;
        st.barrierWaitNs = barrierWaitNs_;
        for (const PerShard &p : shards_) {
            st.messages += p.received;
            st.batches += p.batches;
            st.maxBoundaryDepth =
                std::max(st.maxBoundaryDepth, p.maxDepth);
        }
        return st;
    }

    // Per-shard self-observability. Deterministic for a fixed shard
    // count (they describe the partition, so they differ across
    // shard counts — report them per `shard{k}`, never digest them
    // across K). Read at barriers or between runs only.

    /** Boundary messages posted by @p shard so far. */
    std::uint64_t
    postedBy(int shard) const
    {
        return shards_[static_cast<std::size_t>(shard)].posted;
    }

    /** Boundary messages injected into @p shard so far. */
    std::uint64_t
    receivedBy(int shard) const
    {
        return shards_[static_cast<std::size_t>(shard)].received;
    }

  private:
    /** A boundary message's canonical sort key. */
    struct OrderKey
    {
        Tick when;
        std::uint64_t lane;
        std::uint64_t seq;
        const ShardMessage *msg;
    };

    /** Canonical boundary order: (when, lane, seq). */
    static bool
    canonicalBefore(const OrderKey &a, const OrderKey &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.lane != b.lane)
            return a.lane < b.lane;
        return a.seq < b.seq;
    }

    /** One (src, dst) boundary queue, alone on its cache line(s). */
    struct alignas(64) Outbox
    {
        std::vector<ShardMessage> msgs;
    };

    /**
     * State one shard writes every window, padded so that no two
     * shards' counters share a cache line. `posted` is written by the
     * shard as a source; everything else by the shard as a
     * destination (its drain and its batch events).
     */
    struct alignas(64) PerShard
    {
        std::uint64_t posted = 0;
        std::uint64_t received = 0;
        std::uint64_t batches = 0;
        std::size_t maxDepth = 0;
        /** Payload arena the batch events index into. */
        std::vector<ShardMessage> ingress;
        /** Arena entries already delivered. */
        std::size_t consumed = 0;
        /** Drain scratch: this window's arrivals, being ordered. */
        std::vector<OrderKey> keys;
    };

    /** A barrier counter on its own cache line. */
    struct alignas(64) Counter
    {
        std::atomic<std::uint64_t> value{0};
    };

    std::vector<ShardMessage> &
    outbox(int src, int dst)
    {
        return outbox_[static_cast<std::size_t>(src * nShards_ + dst)]
            .msgs;
    }

    /**
     * Wait until @p c reaches @p target (or the engine quits): spin
     * on the counter — pausing for pauseSpin, then yielding until
     * @p spinFor has passed — only when every shard can have its own
     * hardware thread, then park on the condvar.
     * @return true if the wait had to park.
     */
    bool
    await(const Counter &c, std::uint64_t target,
          std::chrono::microseconds spinFor)
    {
        const auto reached = [&] {
            return c.value.load(std::memory_order_acquire) >= target
                || quit_.load(std::memory_order_relaxed);
        };
        if (spin_) {
            using Clock = std::chrono::steady_clock;
            const Clock::time_point start = Clock::now();
            const Clock::time_point yieldAt = start + pauseSpin;
            const Clock::time_point deadline = start + spinFor;
            bool yielding = false;
            for (unsigned i = 1; !reached(); ++i) {
                if (yielding)
                    std::this_thread::yield();
                else
                    cpuRelax();
                if (yielding || i % 64 == 0) {
                    const Clock::time_point now = Clock::now();
                    if (now > deadline)
                        break;
                    yielding = now > yieldAt;
                }
            }
            if (reached())
                return false;
        }
        std::unique_lock<std::mutex> lk(m_);
        parked_.fetch_add(1);
        cv_.wait(lk, [&] {
            return c.value.load() >= target || quit_.load();
        });
        parked_.fetch_sub(1);
        return true;
    }

    /** Advance @p c by one and wake whoever parked on it. */
    void
    arrive(Counter &c)
    {
        c.value.fetch_add(1);
        wake();
    }

    void
    wake()
    {
        // seq_cst against await()'s parked_ increment: either the
        // waiter sees the new count, or this sees the waiter. Passing
        // through m_ puts a waiter that checked the count under m_
        // to sleep before the notify.
        if (parked_.load() != 0) {
            { std::lock_guard<std::mutex> lk(m_); }
            cv_.notify_all();
        }
    }

    /** The host's hardware threads, asked once per process (the
     *  query reads sysfs, which costs more than a small engine's
     *  whole set-up). */
    static unsigned
    hardwareThreads()
    {
        static const unsigned n = std::thread::hardware_concurrency();
        return n;
    }

    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }

    /** Window body of shard @p idx: run, meet, drain own inbound. */
    void
    shardWindow(int idx, std::uint64_t gen)
    {
        sims_[static_cast<std::size_t>(idx)]->sim.runUntil(windowEnd_);
        arrive(ran_);
        await(ran_, gen * static_cast<std::uint64_t>(nShards_),
              barrierSpin);
        drainInto(idx);
    }

    void
    workerLoop(int idx)
    {
        // Windows that follow each other closely keep a worker
        // spinning the full budget for the next one; a gap it had to
        // park through (set-up or harvest between runs) drops it to
        // the short budget until windows come quickly again.
        std::chrono::microseconds gapSpin = windowGapSpin;
        for (std::uint64_t gen = 1;; ++gen) {
            gapSpin = await(go_, gen, gapSpin) ? windowGapSpin
                                               : barrierSpin;
            if (quit_.load())
                return;
            if (task_) {
                (*task_)(idx);
                arrive(ran_);
            } else {
                shardWindow(idx, gen);
            }
            arrive(drained_);
        }
    }

    /**
     * Run every shard to @p wEnd and drain every shard's inbound
     * queues; blocks until all are parked.
     */
    void
    runWindow(Tick wEnd)
    {
        windowEnd_ = wEnd;
        if (nShards_ == 1) {
            sims_[0]->sim.runUntil(wEnd);
            drainInto(0);
            return;
        }
        const std::uint64_t gen = ++gen_;
        arrive(go_);
        // Shard 0 rides the caller's thread.
        sims_[0]->sim.runUntil(wEnd);
        const auto parkedAt = std::chrono::steady_clock::now();
        arrive(ran_);
        await(ran_, gen * static_cast<std::uint64_t>(nShards_),
              barrierSpin);
        const auto drainAt = std::chrono::steady_clock::now();
        drainInto(0);
        const auto drainedAt = std::chrono::steady_clock::now();
        await(drained_,
              gen * static_cast<std::uint64_t>(nShards_ - 1),
              barrierSpin);
        barrierWaitNs_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                (drainAt - parkedAt)
                + (std::chrono::steady_clock::now() - drainedAt))
                .count());
    }

    /**
     * Barrier work of destination @p d, on its own thread: move every
     * message bound for @p d into its ingress arena in canonical
     * order and schedule one batch event per equal-timestamp run.
     */
    void
    drainInto(int d)
    {
        PerShard &me = shards_[static_cast<std::size_t>(d)];
        auto &arena = me.ingress;
        if (!arena.empty() && me.consumed == arena.size()) {
            // Fully drained: recycle the arena's memory. Indices
            // held by still-pending batch events would dangle,
            // hence the full-consumption check.
            arena.clear();
            me.consumed = 0;
        }
        // Order 32-byte keys rather than the 80-byte messages, then
        // copy each message once, straight into the arena.
        auto &keys = me.keys;
        keys.clear();
        for (int s = 0; s < nShards_; ++s) {
            const auto &q = outbox(s, d);
            me.maxDepth = std::max(me.maxDepth, q.size());
            for (const ShardMessage &m : q)
                keys.push_back({m.when, m.lane, m.seq, &m});
        }
        if (keys.empty())
            return;
        std::sort(keys.begin(), keys.end(), canonicalBefore);
        const std::size_t base = arena.size();
        for (const OrderKey &k : keys)
            arena.push_back(*k.msg);
        for (int s = 0; s < nShards_; ++s)
            outbox(s, d).clear();
        const std::size_t end = arena.size();
        me.received += end - base;
        Simulator &sim = sims_[static_cast<std::size_t>(d)]->sim;
        std::size_t i = base;
        while (i < end) {
            const Tick when = arena[i].when;
            std::size_t j = i + 1;
            while (j < end && arena[j].when == when)
                ++j;
            const std::uint32_t count =
                static_cast<std::uint32_t>(j - i);
            sim.scheduleAt(when, [this, d, at = i, count] {
                deliverRun(d, at, count);
            });
            ++me.batches;
            i = j;
        }
    }

    /** Deliver @p count arena entries starting at @p at to @p d. */
    void
    deliverRun(int d, std::size_t at, std::uint32_t count)
    {
        const auto dd = static_cast<std::size_t>(d);
        Sink &sink = sinks_[dd];
        PerShard &me = shards_[dd];
        for (std::uint32_t k = 0; k < count; ++k)
            sink(me.ingress[at + k]);
        me.consumed += count;
    }

    /** Spin budgets before a wait parks: in-window barriers (and a
     *  worker's wait for the next window while windows come quickly),
     *  and a worker's wait for the next window after a long gap. The
     *  first pauseSpin of any spin pauses, the rest yields. */
    static constexpr std::chrono::microseconds barrierSpin{2000};
    static constexpr std::chrono::microseconds windowGapSpin{200};
    static constexpr std::chrono::microseconds pauseSpin{50};

    const int nShards_;
    const Tick lookahead_;
    /** Spin at barriers: every shard has a hardware thread. */
    const bool spin_;
    /** A shard's simulator on cache lines of its own: every event
     *  writes the clock and counters, which must not share a line
     *  with the next shard's. */
    struct alignas(64) ShardSim
    {
        Simulator sim;
    };

    std::vector<std::unique_ptr<ShardSim>> sims_;
    std::vector<Rng> rngs_;
    std::vector<Sink> sinks_;
    Probe probe_;

    /** outbox_[src * K + dst]: written by src mid-window, drained by
     *  dst after the window's first barrier. */
    std::vector<Outbox> outbox_;
    std::vector<PerShard> shards_;

    Tick clock_ = 0;
    Tick windowEnd_ = 0;
    bool stopped_ = false;
    std::uint64_t windows_ = 0;
    /** Dispatches so far (windows and forEachShard calls). */
    std::uint64_t gen_ = 0;
    /** forEachShard's function while one runs, else null. */
    const std::function<void(int)> *task_ = nullptr;
    std::uint64_t barrierWaitNs_ = 0;

    // Window barrier for the persistent workers. Cumulative counts:
    // dispatch g (a window or a forEachShard call) starts at
    // go_ == g, its shards have run once ran_ reaches g*K, and have
    // drained once drained_ reaches g*(K-1).
    Counter go_, ran_, drained_;
    std::atomic<bool> quit_{false};
    std::atomic<int> parked_{0};
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<std::thread> workers_;
};

} // namespace corm::sim
