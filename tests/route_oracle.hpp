/**
 * @file
 * Route oracle for the fabric tests: the hop distance between two
 * attached islands derived from the topology alone — mesh 1, star 1
 * or 2 (through the hub), tree depth(a) + depth(b) - 2 * depth(lca)
 * over the parentOf chains — checked against CoordFabric::hopCount
 * for every ordered pair; and the link set a rebuild of the live
 * topology would wire, checked against the fabric's live lanes.
 */

#pragma once

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coord/fabric.hpp"

namespace corm::coord::testing {

/** @p id and its ancestors up to the tree root, @p id first. */
inline std::vector<IslandId>
pathToRoot(CoordFabric &fabric, IslandId id)
{
    std::vector<IslandId> path{id};
    while (fabric.parentOf(path.back()) != path.back())
        path.push_back(fabric.parentOf(path.back()));
    return path;
}

/** Hops from @p a to @p b the topology implies (0 for self). */
inline int
expectedHops(CoordFabric &fabric, IslandId hub, IslandId a, IslandId b)
{
    if (a == b)
        return 0;
    switch (fabric.params().topology) {
      case FabricTopology::mesh:
        return 1;
      case FabricTopology::star:
        return a == hub || b == hub ? 1 : 2;
      case FabricTopology::tree: {
        const std::vector<IslandId> up = pathToRoot(fabric, a);
        const std::vector<IslandId> down = pathToRoot(fabric, b);
        EXPECT_EQ(up.back(), hub) << a << " is not under the root";
        EXPECT_EQ(down.back(), hub) << b << " is not under the root";
        // depth(x) = path length - 1; the shared suffix is the lca's
        // own path, of length depth(lca) + 1.
        std::size_t shared = 0;
        while (shared < up.size() && shared < down.size()
               && up[up.size() - 1 - shared]
                      == down[down.size() - 1 - shared])
            ++shared;
        const int depthA = static_cast<int>(up.size()) - 1;
        const int depthB = static_cast<int>(down.size()) - 1;
        const int depthLca = static_cast<int>(shared) - 1;
        return depthA + depthB - 2 * depthLca;
      }
    }
    return -1;
}

/** hopCount equals the oracle for every ordered pair of @p ids. */
inline void
expectRoutesMatchTopology(CoordFabric &fabric, IslandId hub,
                          const std::vector<IslandId> &ids)
{
    for (IslandId a : ids)
        for (IslandId b : ids)
            EXPECT_EQ(fabric.hopCount(a, b),
                      expectedHops(fabric, hub, a, b))
                << fabricTopologyName(fabric.params().topology) << " "
                << a << " -> " << b;
}

/** An undirected link as its (lower id, higher id) pair. */
using LinkPair = std::pair<IslandId, IslandId>;

/** The fabric's live links, read back from its lane names
 *  ("<name>.<from>-<to>", two directions per link). */
inline std::set<LinkPair>
liveLinks(CoordFabric &fabric)
{
    std::set<LinkPair> out;
    fabric.forEachLaneId([&](const std::string &name, std::uint64_t) {
        const std::size_t dot = name.rfind('.');
        const std::size_t dash = name.find('-', dot);
        const auto from =
            static_cast<IslandId>(std::stoul(name.substr(dot + 1)));
        const auto to =
            static_cast<IslandId>(std::stoul(name.substr(dash + 1)));
        out.insert({std::min(from, to), std::max(from, to)});
    });
    return out;
}

/**
 * The links a full rebuild of the live topology over @p live would
 * wire: every pair (mesh), every spoke to the hub (star), or every
 * parentOf edge whose parent is live (tree; an orphan awaiting
 * re-parenting has none).
 */
inline std::set<LinkPair>
rebuiltLinks(CoordFabric &fabric, IslandId hub,
             const std::vector<IslandId> &live)
{
    std::set<LinkPair> out;
    const std::set<IslandId> members(live.begin(), live.end());
    for (IslandId a : live) {
        switch (fabric.params().topology) {
          case FabricTopology::mesh:
            for (IslandId b : live)
                if (a < b)
                    out.insert({a, b});
            break;
          case FabricTopology::star:
            if (a != hub)
                out.insert({std::min(a, hub), std::max(a, hub)});
            break;
          case FabricTopology::tree: {
            const IslandId p = fabric.parentOf(a);
            if (p != a && members.count(p))
                out.insert({std::min(a, p), std::max(a, p)});
            break;
          }
        }
    }
    return out;
}

/** The fabric's live links equal a rebuild's over @p live. */
inline void
expectLinksMatchRebuild(CoordFabric &fabric, IslandId hub,
                        const std::vector<IslandId> &live)
{
    EXPECT_EQ(liveLinks(fabric), rebuiltLinks(fabric, hub, live))
        << fabricTopologyName(fabric.params().topology);
}

} // namespace corm::coord::testing
