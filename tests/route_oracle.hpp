/**
 * @file
 * Route oracle for the fabric tests: the hop distance between two
 * attached islands derived from the topology alone — mesh 1, star 1
 * or 2 (through the hub), tree depth(a) + depth(b) - 2 * depth(lca)
 * over the parentOf chains — checked against CoordFabric::hopCount
 * for every ordered pair.
 */

#pragma once

#include <gtest/gtest.h>

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

} // namespace corm::coord::testing
