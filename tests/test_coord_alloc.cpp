/**
 * @file
 * Steady-state allocation test of the fabric's per-message path.
 *
 * A counting global operator new tallies every heap allocation, on
 * every thread. It replaces the allocator for the whole executable,
 * which is why this test is a binary of its own. A clean fanout-4
 * tree with hub aggregation runs a periodic tune workload past
 * warm-up, at 1 and at 2 shards; over a further window of tune folds,
 * bucket flushes, hub relays and applies, no allocation may happen.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "coord/fabric.hpp"
#include "sim/sharded.hpp"

namespace {

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
        ? std::malloc(n)
        : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace corm::sim;
using namespace corm::coord;

namespace {

/** An island that sums what it is sent, without allocating. */
class SumIsland : public ResourceIsland
{
  public:
    explicit SumIsland(IslandId island_id)
        : id_(island_id), name_("isl" + std::to_string(island_id))
    {}

    IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }
    void applyTune(EntityId, double d) override { sum += d; }
    void applyTrigger(EntityId) override {}

    double sum = 0.0;

  private:
    IslandId id_;
    std::string name_;
};

/**
 * Island @p src's periodic sender. Every period it sends one tune:
 * a leaf reports upward to the root, the root tunes the next leaf
 * of its rotation. Runs on the source island's shard.
 */
struct Pump
{
    CoordFabric *fabric = nullptr;
    Simulator *sim = nullptr;
    IslandId src = 0;
    int islands = 0;
    Tick period = 0;
    IslandId next = 2; ///< root's rotation over islands 2..n

    void
    fire()
    {
        CoordMessage m;
        m.type = MsgType::tune;
        m.src = src;
        m.value = 1.0;
        if (src == 1) {
            m.dst = next;
            m.entity = 7;
            next = next == islands ? 2 : static_cast<IslandId>(next + 1);
        } else {
            m.dst = 1;
            m.entity = src % 4;
        }
        fabric->send(m);
        sim->schedule(period, [this] { fire(); });
    }
};

/** The tree at @p shards shards; island i on shard (i-1)*K/n. */
void
expectNoSteadyStateAllocation(int shards)
{
    constexpr int n = 64;
    FabricParams p;
    p.topology = FabricTopology::tree;
    p.treeFanout = 4;
    p.hub = 1;
    p.hopLatency = 10 * usec;
    p.aggWindow = 50 * usec;
    ShardedEngine engine(shards, p.hopLatency);
    std::vector<int> shardOf(n + 1, 0);
    for (int i = 1; i <= n; ++i)
        shardOf[static_cast<std::size_t>(i)] = (i - 1) * shards / n;
    CoordFabric fabric(engine, p, shardOf);
    std::vector<std::unique_ptr<SumIsland>> islands;
    for (int i = 1; i <= n; ++i) {
        islands.push_back(
            std::make_unique<SumIsland>(static_cast<IslandId>(i)));
        fabric.attach(*islands.back());
    }
    std::vector<Pump> pumps(n);
    for (int i = 1; i <= n; ++i) {
        Pump &pump = pumps[static_cast<std::size_t>(i - 1)];
        pump.fabric = &fabric;
        pump.sim = &engine.sim(shardOf[static_cast<std::size_t>(i)]);
        pump.src = static_cast<IslandId>(i);
        pump.islands = n;
        pump.period = 40 * usec + static_cast<Tick>(i % 5) * usec;
        pump.sim->schedule(static_cast<Tick>(i) * usec,
                           [&pump] { pump.fire(); });
    }

    engine.runUntil(20 * msec); // warm-up: tables reach working size
    const FabricStats before = fabric.stats();
    const std::uint64_t allocsBefore = allocations.load();
    engine.runUntil(40 * msec);
    const std::uint64_t allocs = allocations.load() - allocsBefore;
    const FabricStats &after = fabric.stats();

    EXPECT_EQ(allocs, 0u) << "heap allocations in the measured window";
    // The window really ran the per-message path.
    EXPECT_GT(after.aggFolded.value(), before.aggFolded.value() + 1000);
    EXPECT_GT(after.aggBatches.value(), before.aggBatches.value() + 1000);
    EXPECT_GT(after.hubRelays.value(), before.hubRelays.value() + 1000);
    EXPECT_GT(after.appliedTunes.value(),
              before.appliedTunes.value() + 10000);
    EXPECT_EQ(after.dropped.value(), 0u);
    EXPECT_EQ(fabric.flightsPending(), 0u);
}

TEST(FabricAllocation, CleanTreeSteadyStateAllocatesNothingAtOneShard)
{
    expectNoSteadyStateAllocation(1);
}

TEST(FabricAllocation, CleanTreeSteadyStateAllocatesNothingAtTwoShards)
{
    expectNoSteadyStateAllocation(2);
}

TEST(FabricAllocation, CounterSeesAllocations)
{
    // The replacement operator new is the one in use.
    const std::uint64_t before = allocations.load();
    auto p = std::make_unique<std::vector<int>>(100);
    EXPECT_GE(allocations.load() - before, 2u);
}

} // namespace
