/**
 * @file
 * Window-local trace capture for the sharded engine, merged at
 * window barriers (DESIGN.md §11).
 *
 * Under ShardedEngine, islands run concurrently inside a lookahead
 * window, so a single TraceRecorder would be a data race and — worse
 * for this codebase's contract — its emission order would depend on
 * shard placement. ShardCapture restores `--trace` under sharding
 * without giving up byte-identical output across `--shards 1/2/4`:
 *
 *  * each shard gets its own window-local TraceRecorder; during a
 *    window, instrumentation only ever touches the recorder of the
 *    shard it runs on (no locks, no sharing);
 *  * every event carries a merge key (emitting shard's simulated
 *    time + per-recorder monotone seq), stamped via the recorder's
 *    merge clock;
 *  * at each barrier — all workers parked — the coordinator sorts
 *    the union of the window buffers by (tick, track name, seq) and
 *    re-emits into the merged recorder. The order is placement
 *    independent because every track has exactly one writing shard
 *    (lane tracks belong to the sender's shard, node tracks to the
 *    node's shard, sender-object tracks to shard 0), and within one
 *    shard same-tick events execute in an order that is itself a
 *    pure function of the global event set;
 *  * flow 'f'-ends are deduplicated globally by the merged recorder
 *    (TraceRecorder::absorb), since a flow's legs span shards;
 *  * merged track registration happens in canonical sorted order,
 *    so pid/tid assignment is deterministic too.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/types.hpp"

namespace corm::obs {

/**
 * Owns the per-shard window recorders and performs the barrier-time
 * merge into a caller-supplied recorder. Construct before traffic
 * starts, call mergeWindow() from the engine's barrier probe (and
 * once after the run), read the merged recorder as usual.
 */
class ShardCapture
{
  public:
    /**
     * @param merged   destination recorder (the `--trace` target).
     * @param shards   shard count K.
     * @param shardNow per-shard simulated-time clock (shard k's
     *                 Simulator::now); called only from code running
     *                 on shard k, so no synchronization is needed.
     */
    ShardCapture(TraceRecorder *merged, int shards,
                 std::function<corm::sim::Tick(int)> shardNow)
        : merged_(merged)
    {
        recs_.reserve(static_cast<std::size_t>(shards));
        for (int k = 0; k < shards; ++k) {
            auto rec = std::make_unique<TraceRecorder>();
            rec->setEnabled(merged ? merged->enabled() : false);
            rec->setDetail(merged ? merged->detail() : true);
            rec->setMergeClock(
                [shardNow, k] { return shardNow(k); });
            recs_.push_back(std::move(rec));
        }
    }

    /** Shard @p k's window-local recorder. */
    TraceRecorder *shardRecorder(int k)
    {
        return recs_[static_cast<std::size_t>(k)].get();
    }

    int shards() const { return static_cast<int>(recs_.size()); }

    /** Events re-emitted into the merged recorder so far. */
    std::uint64_t mergedEvents() const { return mergedEvents_; }

    /**
     * Merge and clear every shard's window buffer. Must run with all
     * workers parked (the window barrier probe or after runUntil).
     */
    void mergeWindow()
    {
        if (!merged_)
            return;
        order_.clear();
        for (std::size_t k = 0; k < recs_.size(); ++k) {
            const std::size_t n = recs_[k]->events().size();
            for (std::size_t i = 0; i < n; ++i)
                order_.push_back({k, i});
        }
        std::sort(order_.begin(), order_.end(),
                  [this](const Ref &a, const Ref &b) {
                      return before(at(a), a, at(b), b);
                  });
        for (const Ref &r : order_) {
            const TraceEvent &e = at(r);
            merged_->absorb(e, recs_[r.shard]->trackProcess(e.track),
                            recs_[r.shard]->trackThread(e.track));
            ++mergedEvents_;
        }
        for (auto &rec : recs_)
            rec->clear();
    }

  private:
    struct Ref
    {
        std::size_t shard;
        std::size_t index;
    };

    const TraceEvent &at(const Ref &r) const
    {
        return recs_[r.shard]->events()[r.index];
    }

    bool before(const TraceEvent &ea, const Ref &a,
                const TraceEvent &eb, const Ref &b) const
    {
        if (ea.emitTick != eb.emitTick)
            return ea.emitTick < eb.emitTick;
        const TraceRecorder &ra = *recs_[a.shard];
        const TraceRecorder &rb = *recs_[b.shard];
        if (const int c = ra.trackProcess(ea.track)
                              .compare(rb.trackProcess(eb.track)))
            return c < 0;
        if (const int c = ra.trackThread(ea.track)
                              .compare(rb.trackThread(eb.track)))
            return c < 0;
        if (ea.emitSeq != eb.emitSeq)
            return ea.emitSeq < eb.emitSeq;
        // Same (tick, track, seq) from two shards would mean a track
        // with two writers — excluded by construction; the tiebreak
        // only keeps the sort total.
        return a.shard < b.shard;
    }

    TraceRecorder *merged_;
    std::vector<std::unique_ptr<TraceRecorder>> recs_;
    std::vector<Ref> order_;
    std::uint64_t mergedEvents_ = 0;
};

} // namespace corm::obs
