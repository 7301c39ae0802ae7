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
 *    moves them into the merged recorder (track names enter the
 *    sort as precomputed integer ranks, and each window track maps
 *    to its merged track once, so the per-event merge cost compares
 *    and copies no strings). The order is placement
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
#include <tuple>
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
        window_.resize(recs_.size());
        rank_.resize(recs_.size());
        mergedTrack_.resize(recs_.size());
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
        bool newTracks = false;
        for (std::size_t k = 0; k < recs_.size(); ++k) {
            recs_[k]->swapEvents(window_[k]);
            newTracks = newTracks
                || recs_[k]->trackCount() > rank_[k].size();
        }
        if (newTracks)
            rankTracks();
        order_.clear();
        for (std::size_t k = 0; k < recs_.size(); ++k) {
            const std::vector<TraceEvent> &w = window_[k];
            for (std::size_t i = 0; i < w.size(); ++i)
                order_.push_back(
                    {w[i].emitTick,
                     rank_[k][static_cast<std::size_t>(w[i].track)],
                     w[i].emitSeq, k, i});
        }
        std::sort(order_.begin(), order_.end(), before);
        const bool on = merged_->enabled();
        for (const Ref &r : order_) {
            TraceEvent &e = window_[r.shard][r.index];
            if (on)
                merged_->absorb(std::move(e),
                                mergedTrack(r.shard, e.track));
            ++mergedEvents_;
        }
        for (auto &w : window_)
            w.clear();
    }

  private:
    /** One window event's place in the merge order. */
    struct Ref
    {
        corm::sim::Tick emitTick;
        std::uint32_t rank; ///< the track's (process, thread) rank
        std::uint64_t emitSeq;
        std::size_t shard;
        std::size_t index;
    };

    /**
     * Merge order (tick, track name, seq). Same (tick, track, seq)
     * from two shards would mean a track with two writers — excluded
     * by construction; the shard tiebreak only keeps the sort total.
     */
    static bool before(const Ref &a, const Ref &b)
    {
        if (a.emitTick != b.emitTick)
            return a.emitTick < b.emitTick;
        if (a.rank != b.rank)
            return a.rank < b.rank;
        if (a.emitSeq != b.emitSeq)
            return a.emitSeq < b.emitSeq;
        return a.shard < b.shard;
    }

    /**
     * Rank every window track by its (process, thread) names, equal
     * names sharing a rank, so the merge sort compares integers
     * instead of strings. Re-run whenever a shard registers a track.
     */
    void rankTracks()
    {
        std::vector<std::pair<std::size_t, int>> all;
        for (std::size_t k = 0; k < recs_.size(); ++k) {
            const auto n = recs_[k]->trackCount();
            rank_[k].resize(n);
            for (std::size_t t = 0; t < n; ++t)
                all.emplace_back(k, static_cast<int>(t));
        }
        const auto names = [this](const std::pair<std::size_t, int> &p) {
            const TraceRecorder &r = *recs_[p.first];
            return std::tie(r.trackProcess(p.second),
                            r.trackThread(p.second));
        };
        std::sort(all.begin(), all.end(),
                  [&](const auto &a, const auto &b) {
                      return names(a) < names(b);
                  });
        std::uint32_t rank = 0;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (i > 0 && names(all[i - 1]) < names(all[i]))
                ++rank;
            rank_[all[i].first][static_cast<std::size_t>(
                all[i].second)] = rank;
        }
    }

    /** The merged recorder's track for shard @p k's track @p trk,
     *  registered on first use — in merge order, so pid/tid
     *  assignment stays canonical. */
    int mergedTrack(std::size_t k, int trk)
    {
        std::vector<int> &map = mergedTrack_[k];
        const auto t = static_cast<std::size_t>(trk);
        if (t >= map.size())
            map.resize(recs_[k]->trackCount(), -1);
        if (map[t] < 0)
            map[t] = merged_->track(recs_[k]->trackProcess(trk),
                                    recs_[k]->trackThread(trk));
        return map[t];
    }

    TraceRecorder *merged_;
    std::vector<std::unique_ptr<TraceRecorder>> recs_;
    /** Per shard: the window's events, swapped out of its recorder. */
    std::vector<std::vector<TraceEvent>> window_;
    /** Per shard and track: merge rank (see rankTracks). */
    std::vector<std::vector<std::uint32_t>> rank_;
    /** Per shard and track: merged-recorder track, -1 until used. */
    std::vector<std::vector<int>> mergedTrack_;
    std::vector<Ref> order_;
    std::uint64_t mergedEvents_ = 0;
};

} // namespace corm::obs
