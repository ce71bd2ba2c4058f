"""Nested clusterings of a graph's node set.

A Hierarchy assigns every node a label path: a tuple of cluster ids,
one per level from coarsest to finest.  A flat hierarchy (levels = 1)
has empty label paths and every node shares the single implicit
cluster, which is the whole graph.  Cluster ids are globally unique per
level (creation order), so a (level, id) pair names a cluster
unambiguously and proper nesting is checkable as "all members of a
cluster share one parent prefix".

Invariants of a well-formed hierarchy over a graph:

  1. at every level the clusters partition the node set (with the
     label-path encoding this reduces to every path having the same
     length, levels - 1);
  2. label paths are properly nested, i.e. no cluster id is shared by
     nodes whose coarser prefixes differ;
  3. every cluster induces a connected subgraph.

``validate`` reports violations instead of raising so broken files can
be inspected.  Builders only ever produce valid hierarchies:
``build_grid_blocks`` raises on the first violation ``validate`` finds
in its blocks.  ``validate`` floods each level once
(``graphs._split_labels``, the Graph constructor's check with one label
per cluster): the 40x40 torus at level 5 went from 2.0 to 0.8 ms
against one search per cluster.

``build_balanced`` grows each region breadth-first and never takes a
node whose loss would disconnect the nodes still unassigned.  That test
is exact but local: a node with just two unassigned neighbours that
share a third unassigned one is cleared at once, and otherwise searches
from the node's unassigned neighbours stop as soon as they all meet or
one runs dry (``_severed``).  A node with more than four unassigned
neighbours is searched with bit sets, Python ints with one bit per node
id, so that one AND of an adjacency row with the remainder finds all of
a node's unassigned neighbours (``_search_masks``): the candidate's own
row gives the search's starts, and every later row a front's new nodes.
That pays on dense graphs, where nearly every candidate has many.  The
rows exist only when some node of the graph has more than four
neighbours; grids, tori and rings build neither a row nor the
remainder's bit set.  Each row is built the first time a search needs
it and takes at most n/8 bytes; the rows are freed when
``build_balanced`` returns.
Each seed gets the same test, so the remainder is known to be connected
from a part's first candidate on unless the seed cut it.  A node found
to cut the remainder keeps a memo of the cut, counted down as nodes are
taken, which answers for it without a search while nodes are left on
both sides of the cut.  Until then a deferred node is also held off the
frontier, so it is not asked either (see ``_grow_regions``): the 40x40
torus at level 5 asks 3,207 cut questions instead of 7,467 for the same
3,209 searches.  A candidate whose neighbours meet only far away still
costs a search of the whole remainder, so the worst case stays
quadratic in the cluster size.
A part that grows past its seed leaves the remainder connected, so the
last part of each split, every node still unassigned, is taken whole
without growing it or testing a single cut (when parts are single nodes,
so is the last).

File format: one line per node, ``node_id path_0 path_1 ...``, sorted
by node id; ``#`` comments and blank lines are skipped.  ``load`` parses
a file in the form ``save`` writes with one ``np.loadtxt`` call and
hands any other to a line reader (see ``load``).
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .graphs import (
    FileFormatError,
    Graph,
    _components,
    _connected_set,
    _parsed,
    _split_labels,
)


class HierarchyFormatError(FileFormatError):
    """A hierarchy file failed to parse."""


class HierarchyBuildError(ValueError):
    """A builder could not produce connected balanced clusters."""


@dataclass(frozen=True)
class Hierarchy:
    """Label-path clustering; method tags how it was built (not compared)."""

    levels: int
    label_paths: tuple[tuple[int, ...], ...]
    method: str = field(default="custom", compare=False)

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1 (got {self.levels})")
        if not self.label_paths:
            raise ValueError("a hierarchy needs at least one node")

    @property
    def n_nodes(self) -> int:
        return len(self.label_paths)

    def _require_uniform(self) -> None:
        want = self.levels - 1
        for u, p in enumerate(self.label_paths):
            if len(p) != want:
                raise ValueError(
                    f"node {u} has a label path of length {len(p)}, expected {want}; "
                    "run validate() for a full report"
                )


def stats(hierarchy: Hierarchy) -> tuple[int, ...]:
    """Cluster count per level, coarsest first; () for a flat hierarchy."""
    hierarchy._require_uniform()
    return tuple(
        len({p[k] for p in hierarchy.label_paths}) for k in range(hierarchy.levels - 1)
    )


def flat_hierarchy(graph: Graph) -> Hierarchy:
    """The trivial single-level hierarchy (every table keeps all N entries)."""
    return Hierarchy(1, tuple(() for _ in range(graph.n_nodes)), method="flat")


_MASK_STARTS = 4  # candidates with more unassigned neighbours take _search_masks


def _bits(ids) -> int:
    """The bit set of `ids`: a Python int with bit x set for node x."""
    mask = 0
    for x in ids:
        mask |= 1 << x
    return mask


def _ids(mask: int) -> set[int]:
    digits = bin(mask)
    top = len(digits) - 1
    return {top - i for i, c in enumerate(digits) if c == "1"}


def _severed(w: int, nodes: set[int], adj, rows, rest: int) -> set[int] | None:
    """Whether taking w out of a connected set left `nodes` (the rest)
    disconnected: None if not, else one closed component of `nodes`.

    Every node of `nodes` reaches w through one of w's neighbours in
    `nodes`, so `nodes` is connected exactly when those neighbours reach
    one another inside it.  Two neighbours that share a neighbour in
    `nodes` do so at once; a scan of one adjacency list finds that, and
    it settles most candidates on a torus.  Otherwise searches start at
    the neighbours and stop once they all meet or one runs dry.  Up to
    four neighbours take ``_search_sets``, with a set probe per edge.
    More take ``_search_masks``, where one AND of a bit row with the
    remainder absorbs a node's whole adjacency: 695 of the 700 cut tests
    of G(700, 0.043) at level 3 have more than four.  Every mask
    operation costs n/64 words, which a candidate with four neighbours
    does not win back: sending those to the masks too made the 100x100
    torus at level 4 cluster 15-17% slower.  `rows` holds the bit rows
    (None on graphs of degree at most four, which never search masks)
    and `rest` is `nodes` as a bit set, with or without w; the masks get
    it without w.
    """
    starts = [x for x in adj[w] if x in nodes]
    if len(starts) <= 1:
        return None
    if len(starts) > _MASK_STARTS:
        return _search_masks(w, rest & ~(1 << w), adj, rows)
    if len(starts) == 2:
        # a neighbour shared by both starts joins them (w is not in nodes)
        a, b = starts
        for x in adj[a]:
            if x in nodes and b in adj[x]:
                return None
    return _search_sets(starts, nodes, adj)


def _search_sets(starts: list[int], nodes: set[int], adj) -> set[int] | None:
    """None if `starts` reach one another inside `nodes`, else a closed
    component of `nodes` that holds some but not all of them.

    One BFS starts at each start; the searches take turns expanding one
    node each and merge when they meet.  When all have merged the answer
    is None; a search that runs dry first has explored a whole component,
    which is returned.
    """
    owner = {x: i for i, x in enumerate(starts)}
    merged_into = list(range(len(starts)))

    def root(i: int) -> int:
        while merged_into[i] != i:
            i = merged_into[i]
        return i

    queues = [deque([x]) for x in starts]
    alive = len(starts)
    while True:
        for i, queue in enumerate(queues):
            if merged_into[i] != i:
                continue
            if not queue:
                return {x for x, j in owner.items() if root(j) == i}
            u = queue.popleft()
            for x in adj[u]:
                if x not in nodes:
                    continue
                j = owner.get(x)
                if j is None:
                    owner[x] = i
                    queue.append(x)
                elif j != i:
                    j = root(j)
                    if j != i:
                        merged_into[j] = i
                        queue.extend(queues[j])
                        alive -= 1
                        if alive == 1:
                            return None


def _search_masks(w: int, rest: int, adj, rows: dict[int, int]) -> set[int] | None:
    """``_search_sets``'s answer for w's neighbours in the bit set `rest`
    (which holds no w), found with two fronts held as bit sets.

    The starts are one AND, w's row with `rest`.  Each front keeps the
    nodes it reached and those it has still to expand.  Front A starts
    at the lowest start, front B at the lowest start A has not reached,
    and they take turns expanding their lowest pending node: one AND of
    its row with `rest`, less what the front reached, gives the new
    nodes.  When the fronts meet, they merge into A and B restarts at
    the next start A has not reached; once there is none, the starts are
    joined.  A front that runs dry first holds a whole component,
    returned as node ids.  `rows` maps a node to its adjacency row, built
    the first time it is needed and kept for the caller's next search.
    """
    left = rows.get(w)
    if left is None:
        left = rows[w] = _bits(adj[w])
    left &= rest
    # (seen, pend) is the front that expands next, A after every merge;
    # (seen2, pend2) is the other
    seen = pend = left & -left
    while True:
        left &= ~seen
        if not left:
            return None
        seen2 = pend2 = left & -left
        while True:
            if not pend:
                return _ids(seen)
            low = pend & -pend
            u = low.bit_length() - 1
            row = rows.get(u)
            if row is None:
                row = rows[u] = _bits(adj[u])
            new = row & rest & ~seen
            seen |= new
            pend ^= low | new
            if new & seen2:
                break
            seen, pend, seen2, pend2 = seen2, pend2, seen, pend
        pend |= pend2 & ~seen
        seen |= seen2


def _grow_regions(
    members: list[int],
    adj,
    parts: int,
    level: int,
    parent_id: int | None,
    rows: dict[int, int] | None,
) -> list[list[int]]:
    """Split members into `parts` connected regions with sizes differing by <= 1.

    Breadth-first region growing: each region seeds at the lowest-id
    untaken node and absorbs frontier nodes in (discovery layer, id)
    order.  Two guards keep every later region growable: a frontier
    node whose absorption would disconnect the remaining unassigned set
    is deferred while any safe candidate exists, and when every
    candidate disconnects it, the region absorbs the first candidate
    whose severed fragments fit and swallows those fragments whole, so
    the surviving remainder is a single connected piece.  The last
    region is therefore that remainder, taken whole: grown from a seed
    it would reach all of it and never raise.  Deterministic; raises
    when an earlier region cannot reach its target size any other way.

    The disconnect test is exact but local.  While the remainder is
    connected, ``_severed`` only has to check that the candidate's
    unassigned neighbours still meet.  It is connected after a pick or
    a swallow, and before every seed whose part tests a candidate: part
    0's members are a connected cluster, each earlier part ended on a
    pick, a swallow or its seed alone, and a seed-only part is followed
    only by seed-only parts and the last part (targets never grow).  So
    ``_severed`` also tells whether the seed cut the remainder; only
    after a seed that did is the whole remainder searched per candidate,
    until the next pick or swallow.  A cut vertex w found by ``_severed``
    gets a memo, ``cuts[w] = [comp, left]``: the closed component it cut
    off and how many of it are still unassigned.  What is left of a
    closed component stays closed as nodes are taken, so the memo is
    exact while nodes are left on both sides of the cut; `take` counts
    `left` down and deletes the memo once a side is empty, so `severs`
    answers True for any w in `cuts` without a search.  After a pick, a
    deferred vertex with a memo is held off the heap (`held`) instead of
    going back on it; `take` pushes it back at its discovery layer when
    its memo is deleted, so the heap pops the same candidates in the
    same order as if it were asked after every pick.  A candidate whose
    cut was found while the remainder was not known to be connected has
    no memo and goes back on the heap.  When no candidate can be picked,
    the held ones join the deferred list in (layer, id) order.  A part
    ends by dropping what it holds; the memos live on and answer in the
    split's later parts.  Worst case: a pick whose neighbours meet only
    around the far side of the remainder still costs a search of all of
    it.

    The remainder is the set `unassigned` and, where `rows` exists, the
    bit set `rest` too; only `take` shrinks them (`severs` puts back the
    node it probes, and leaves `rest` alone).
    """
    total = len(members)
    where = "the node set" if parent_id is None else f"cluster {parent_id}"
    if parts > total:
        raise HierarchyBuildError(
            f"level {level}: cannot split {where} of {total} nodes into {parts} parts"
        )
    unassigned = set(members)
    rest = 0 if rows is None else _bits(members)
    # w -> [a closed component of unassigned - {w}, how many of it are
    # still unassigned]: live while nodes are left on both sides of the cut
    cuts: dict[int, list] = {}
    connected = False  # whether unassigned is known to be connected

    def take(x: int, lay: int) -> None:
        """Assign x to the current part, found at layer `lay`, and delete
        the memos that lapse, putting their held vertices back on the
        heap."""
        nonlocal rest
        unassigned.remove(x)
        taken.append(x)
        if rows is not None:
            rest ^= 1 << x
        for y in adj[x]:
            if y in unassigned and y not in layer:
                layer[y] = lay + 1
                heapq.heappush(heap, (lay + 1, y))
        if cuts:
            lapsed = []
            for w, memo in cuts.items():
                if x in memo[0]:
                    memo[1] -= 1
                if not 0 < memo[1] < len(unassigned) - 1:
                    lapsed.append(w)
            for w in lapsed:
                del cuts[w]
                if w in held:
                    held.remove(w)
                    heapq.heappush(heap, (layer[w], w))

    def severs(w: int) -> bool:
        """Whether taking w would disconnect the unassigned set; a live
        memo answers without a search."""
        if w in cuts:
            return True
        unassigned.remove(w)
        if connected:
            comp = _severed(w, unassigned, adj, rows, rest)
            if comp is not None:
                cuts[w] = [comp, len(comp)]
            cut = comp is not None
        else:
            cut = not _connected_set(unassigned, adj)
        unassigned.add(w)
        return cut

    base, rem = divmod(total, parts)
    regions: list[list[int]] = []
    for i in range(parts):
        target = base + (1 if i < rem else 0)
        if i == parts - 1:
            # The last part is whatever is left, and it is connected.  A
            # target of 1 is a single node.  Otherwise every earlier
            # target was >= 2 too (targets never grow), so each earlier
            # part ended on a pick that `severs` cleared or on a swallow
            # that kept the largest component: the remainder is connected,
            # and growing inside it would reach all of it without failing.
            regions.append(sorted(unassigned))
            break
        taken: list[int] = []  # this part's nodes, in the order taken
        layer: dict[int, int] = {}  # discovery layers of this part's frontier
        heap: list[tuple[int, int]] = []  # its frontier, in (layer, id) order
        held: set[int] = set()  # deferred vertices off the heap while memoised
        seed = min(unassigned)
        take(seed, 0)
        # exact whenever this part tests a candidate (see the docstring)
        connected = _severed(seed, unassigned, adj, rows, rest) is None
        while len(taken) < target:
            deferred: list[tuple[int, int]] = []
            pick = None
            while heap:
                lay, w = heapq.heappop(heap)
                if w not in unassigned:
                    continue
                if not severs(w):
                    pick = (lay, w)
                    break
                deferred.append((lay, w))
            if pick is not None:
                for lay, w in deferred:
                    if w in cuts:
                        held.add(w)
                    else:  # tested while the remainder was not known connected
                        heapq.heappush(heap, (lay, w))
                take(pick[1], pick[0])
                connected = True
                continue
            size = len(taken)
            deferred = sorted(deferred + [(layer[w], w) for w in held])
            held.clear()
            if not deferred:
                raise HierarchyBuildError(
                    f"level {level}, part {i} of {where}: stranded at "
                    f"{size} of {target} nodes (remainder disconnected)"
                )
            # every candidate is a cut vertex of the remainder; deferred is
            # in (layer, id) order, so take the first whose severed
            # fragments (every component except the largest) fit here
            for lay, w in deferred:
                comps = _components(unassigned - {w}, adj)
                if size + 1 + sum(len(c) for c in comps[:-1]) <= target:
                    break
            else:
                raise HierarchyBuildError(
                    f"level {level}, part {i} of {where}: cannot keep the "
                    f"remainder connected at {size} of {target} nodes"
                )
            for x in chain([w], *comps[:-1]):
                take(x, lay)
            connected = True  # what is left is the largest component
            for item in deferred:
                if item[1] in unassigned:
                    heapq.heappush(heap, item)
        regions.append(sorted(taken))
    return regions


def build_balanced(graph: Graph, levels: int, branching: int = 2) -> Hierarchy:
    """Recursive balanced clustering: split every cluster into `branching` parts.

    levels = 1 returns the flat hierarchy.  Requires
    branching ** (levels - 1) <= n_nodes so no cluster runs empty.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1 (got {levels})")
    if branching < 2:
        raise ValueError(f"branching must be >= 2 (got {branching})")
    if levels - 1 > graph.n_nodes.bit_length():
        # branching ** (levels - 1) > 2 ** bit_length > n_nodes: too large
        # to compute or print in good time
        raise ValueError(
            f"branching {branching} with {levels} levels needs more nodes "
            f"than the graph's {graph.n_nodes}"
        )
    if branching ** (levels - 1) > graph.n_nodes:
        raise ValueError(
            f"branching {branching} with {levels} levels needs at least "
            f"{branching ** (levels - 1)} nodes (graph has {graph.n_nodes})"
        )
    if levels == 1:
        return flat_hierarchy(graph)
    paths: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    # bit rows of _search_masks, shared by every split; only a candidate
    # with more than _MASK_STARTS unassigned neighbours searches masks
    rows = {} if any(len(nbrs) > _MASK_STARTS for nbrs in graph.adj) else None
    current: list[tuple[int | None, list[int]]] = [(None, list(range(graph.n_nodes)))]
    for level in range(1, levels):
        nxt: list[tuple[int | None, list[int]]] = []
        for parent_id, members in current:
            for region in _grow_regions(
                members, graph.adj, branching, level, parent_id, rows
            ):
                cid = len(nxt)
                for u in region:
                    paths[u].append(cid)
                nxt.append((cid, region))
        current = nxt
    return Hierarchy(
        levels,
        tuple(tuple(p) for p in paths),
        method=f"balanced-b{branching}",
    )


def build_grid_blocks(
    graph: Graph,
    rows: int,
    cols: int,
    block_dims: list[tuple[int, int]],
) -> Hierarchy:
    """Nested rectangular blocks on a row-major grid or torus.

    Each (block_rows, block_cols) entry adds one level; successive block
    dims must divide the previous ones so blocks nest cleanly.  Raises
    HierarchyBuildError naming the first ``validate`` violation when a
    block does not induce a connected subgraph, as on a graph that is
    not the rows x cols lattice.
    """
    if rows * cols != graph.n_nodes:
        raise ValueError(
            f"{rows}x{cols} does not match the graph's {graph.n_nodes} nodes"
        )
    if not block_dims:
        raise ValueError("need at least one block size")
    prev_r, prev_c = rows, cols
    for br, bc in block_dims:
        if br < 1 or bc < 1:
            raise ValueError(f"block dims must be >= 1 (got {br}x{bc})")
        if prev_r % br or prev_c % bc:
            raise ValueError(
                f"block {br}x{bc} does not divide the enclosing {prev_r}x{prev_c}"
            )
        prev_r, prev_c = br, bc
    paths = []
    for u in range(graph.n_nodes):
        r, c = divmod(u, cols)
        path = []
        for br, bc in block_dims:
            path.append((r // br) * (cols // bc) + (c // bc))
        paths.append(tuple(path))
    tag = "+".join(f"{br}x{bc}" for br, bc in block_dims)
    h = Hierarchy(len(block_dims) + 1, tuple(paths), method=f"grid-blocks-{tag}")
    problems = validate(h, graph)
    if problems:
        raise HierarchyBuildError(
            f"{tag} blocks of a {rows}x{cols} lattice do not fit the graph: "
            f"{problems[0]}"
        )
    return h


def validate(hierarchy: Hierarchy, graph: Graph) -> list[str]:
    """Check the three hierarchy invariants; returns violations, empty if valid.

    With the label-path encoding, a malformed partition can only appear
    as label paths of the wrong length, which is reported as a nesting
    violation and short-circuits the deeper checks.  Otherwise each
    level costs one flood of the graph that never leaves a cluster
    (``graphs._split_labels``) and one set of (parent, cluster) pairs;
    the violations come level by level, clusters in id order, a
    cluster's nesting before its connectivity.
    """
    violations: list[str] = []
    if hierarchy.n_nodes != graph.n_nodes:
        violations.append(
            f"node count mismatch: hierarchy has {hierarchy.n_nodes}, "
            f"graph has {graph.n_nodes}"
        )
        return violations
    want = hierarchy.levels - 1
    paths = hierarchy.label_paths
    if set(map(len, paths)) != {want}:
        return [
            f"nesting: node {u} has a label path of length {len(p)}, expected {want}"
            for u, p in enumerate(paths)
            if len(p) != want
        ]
    # what tells each node's parent cluster apart: its label path above
    # the level, or the parent's id while every id has one parent
    parent = [0] * len(paths)
    for level in range(1, hierarchy.levels):
        ids = [p[level - 1] for p in paths]
        split = _split_labels(graph.adj, ids)
        parents = Counter(cid for _, cid in set(zip(parent, ids)))
        for cid in sorted(parents):
            if parents[cid] > 1:
                violations.append(
                    f"nesting: level {level} cluster {cid} spans "
                    f"{parents[cid]} parent clusters"
                )
            if cid in split:
                violations.append(
                    f"connectivity: level {level} cluster {cid} induces a "
                    "disconnected subgraph"
                )
        parent = ids if len(parents) == sum(parents.values()) else list(zip(parent, ids))
    return violations


def save(hierarchy: Hierarchy, path: str) -> None:
    """Write one ``node_id path...`` line per node, sorted by node id."""
    text = "".join(
        " ".join(map(str, (u, *p))) + "\n" for u, p in enumerate(hierarchy.label_paths)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load(path: str) -> Hierarchy:
    """Parse a hierarchy file; errors name the offending line.

    A canonical file, as ``save`` writes it (no ``#``, one row per node
    in id order, every row the same width of ASCII decimal int64 fields
    and no negative one), is parsed with one ``np.loadtxt`` call.  Any
    other file goes to the line reader, which alone names bad lines and
    reads what only ``int`` takes (``1_3``, non-ASCII digits, ids beyond
    int64); it also takes rows in any order and ragged rows, whose level
    count it infers from the longest path, so malformed files still load
    and can be fed to validate().
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if "#" not in text:
        rows = _parsed(lines, None)
        if (
            rows is not None
            and len(rows)
            and (rows[:, 0] == np.arange(len(rows))).all()
            and rows.min() >= 0
        ):
            paths = tuple(map(tuple, rows[:, 1:].tolist()))
            return Hierarchy(rows.shape[1], paths, method="file")
    return _load_lines(lines)


def _load_lines(lines: list[str]) -> Hierarchy:
    """The hierarchy the file `lines` hold, read one line at a time."""
    rows: dict[int, tuple[int, ...]] = {}
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            values = tuple(map(int, tokens))
        except ValueError:
            raise HierarchyFormatError(
                f"non-integer field in {line.strip()!r}", line_no
            ) from None
        u = values[0]
        if min(values) < 0:
            raise HierarchyFormatError(
                f"negative node id {u}" if u < 0 else f"negative cluster id for node {u}",
                line_no,
            )
        if u in rows:
            raise HierarchyFormatError(f"duplicate entry for node {u}", line_no)
        rows[u] = values[1:]
    if not rows:
        raise HierarchyFormatError("file lists no nodes")
    n = max(rows) + 1
    if len(rows) < n:
        # a bounded scan: one node id read from the file can be huge
        missing = list(islice((u for u in range(n) if u not in rows), 5))
        raise HierarchyFormatError(f"missing entries for nodes {missing}")
    paths = tuple(map(rows.__getitem__, range(n)))
    levels = 1 + max(map(len, paths))
    return Hierarchy(levels, paths, method="file")
