/**
 * @file
 * Whole-tree include-layer enforcement for the remora module diagram.
 *
 * The paper's separation of concerns maps onto a strict layering of
 * `src/` modules; an include edge must always point *down* the diagram
 * (toward more primitive layers), and the include DAG must be acyclic
 * even within one module. The enforced ranks, bottom to top:
 *
 *     util(0) < sim(1) < obs(2) < net(3) < mem(4) < rmem(5)
 *             < rpc(6) < names(7) = dfs(7) < trace(8) < cluster(9)
 *
 * This refines the coarse diagram in ISSUE 9 (`util → sim → mem/net →
 * rmem → rpc/names/dfs/obs`) to match the tree's reality: obs is the
 * observability *substrate* (counters, trace sinks) that net/mem/rmem
 * all instrument themselves with, so it sits just above sim rather
 * than at the top; trace is the consumer that renders other modules'
 * events, and cluster, which assembles whole clusters out of every
 * module below it, is the top. Equal-rank modules (names, dfs) may not
 * include each other.
 *
 * An edge is allowed iff the includer and includee are in the same
 * module, or rank(includee) < rank(includer). Files outside `src/`
 * (tests, tools, bench, examples) are application-layer: they may
 * include anything and are excluded from the DAG. Violations report
 * as `remora-include-layer` (error) and honor NOLINT on the include
 * line like every other rule.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "lint.h"

namespace remora::lint {

/**
 * Layer rank of a src-relative module name ("util", "rmem", …), or -1
 * when the module is unknown (itself reported as a layer error so the
 * diagram and the tree cannot drift apart silently).
 */
int layerRank(std::string_view module);

/**
 * Check the include-layer rules over a set of files.
 *
 * @param files (repo-relative path, full source text) pairs. Only
 *        `src/<module>/...` files contribute DAG nodes and are checked
 *        for upward edges; other files are ignored, so the caller can
 *        pass everything it scanned.
 * @return Findings: upward/lateral include edges, includes of unknown
 *         modules, and include cycles (each cycle reported once, on
 *         its lexicographically first file).
 */
std::vector<Finding>
checkIncludeLayers(const std::vector<std::pair<std::string, std::string>> &files);

} // namespace remora::lint
