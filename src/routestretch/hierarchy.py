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
in its blocks.  ``validate`` checks each level's connectivity with
``graphs._label_roots``, the Graph constructor's check, one label per
cluster.

``build_balanced`` reads the graph as neighbour rows, one tuple of ints
per node built once per call from the CSR arrays (``_adjacency``); no
other module reads such rows.  It grows each region breadth-first and
never takes a node whose loss would disconnect the nodes still
unassigned.  One question, asked once per candidate and once per seed
(``_grow_regions``' `severs`), decides that, exactly but locally: a node
is cleared at once when it has at most one unassigned neighbour, or two
or three that the unassigned neighbours they share, other than the node
itself, join pairwise into one group (``_meets_nearby``); otherwise
searches from the node's unassigned neighbours stop as soon as they all
meet or one runs dry (``_search_sets``).  In a dense split, a node with
more than four unassigned neighbours is searched with bit sets, Python
ints with one bit per node id, so that one AND of an adjacency row with
the remainder finds all of a node's unassigned neighbours
(``_search_masks``); with more than eight, a fast join first grows one
set from the lowest neighbour's closed neighbourhood, which on a dense
graph takes in every neighbour within a pass or two.  A bit operation
costs the remainder's width in bits whatever the degree, a set search a
probe per edge, so a split takes the masks only when its members' mean
degree passes 3 + width / 300 (``_masks_pay``).  The rows are packed
from the graph's CSR arrays for the first split that takes the masks,
and the remainder's bit set is kept only in such splits.  Grids and tori
never build either; nor do the 40x40 and 200x200 tori with one extra
edge, or random giants of 4,000 nodes with mean degree 12.  A seed that
cuts the remainder leaves it split until the next pick or swallow, so
its components are listed once (``_components``, one plain
breadth-first search of a node set, ``_reach``, per component) and
answer every question until then.  A node found to cut the remainder
keeps a memo of the cut, counted down as nodes are taken, which answers
for it without a search while nodes are left on both sides of the cut.
Until then a deferred node is also held off the frontier, so it is not
asked either: the 40x40 torus at level 5 asks 3,207 cut questions
instead of 7,467.  With its 15 seeds' that makes 3,222, of which memos
and the one component list answer 13, the shared-neighbour rule clears
3,080 and 129 are searched, against 519 when the rule covered only two
neighbours.  A candidate whose neighbours meet only far away still costs
a search of the whole remainder, so the worst case stays quadratic in
the cluster size.  A part that grows past its seed leaves the remainder
connected, so the last part of each split, every node still unassigned,
is taken whole without growing it or testing a single cut (when parts
are single nodes, so is the last).

File format: one line per node, ``node_id path_0 path_1 ...``, sorted
by node id; ``#`` comments and blank lines are skipped.  ``load`` parses
a file in the form ``save`` writes with one ``np.loadtxt`` call and
hands any other to a line reader (see ``load``).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .graphs import FileFormatError, Graph, _label_roots, _parsed


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


_MASK_STARTS = 4  # candidates with more unassigned neighbours may take _search_masks
_JOIN_STARTS = 8  # mask candidates with more starts try the fast join first
_ROW_CELLS = 1 << 22  # booleans per chunk while bit rows are packed


def _masks_pay(degrees: int, size: int, width: int) -> bool:
    """Whether a split's cut tests take the masks: `size` members whose
    degrees sum to `degrees`, held as bit sets `width` bits wide.

    Both searches expand about the same nodes.  The set search pays a
    set probe per edge of each, the mask search a few operations on
    `width` bits, whatever the degree.  So the masks win past a mean
    degree that grows with the width, 3 + width / 300.  That fits the
    crossovers measured on the giant components of random graphs at
    level 3 (b = 2): a mean degree of about 6 at 700 nodes, 7.5 at
    1,500, 9 at 2,000, 13 at 3,000, 16.5 at 4,000 and 31 at 8,000.
    """
    return degrees * 300 > size * (900 + width)


def _bits(ids) -> int:
    """The bit set of `ids`: a Python int with bit x set for node x."""
    mask = 0
    for x in ids:
        mask |= 1 << x
    return mask


def _adjacency(graph: Graph) -> list[tuple[int, ...]]:
    """Every node's neighbours in ascending order, a tuple of ints per
    node, from the CSR arrays."""
    ends, neighbors, _ = graph._csr
    dst, stops = neighbors.tolist(), ends.tolist()
    return [tuple(dst[a:b]) for a, b in zip([0, *stops], stops)]


def _rows(graph: Graph) -> list[int]:
    """Every node's adjacency row as a bit set, ``_bits`` of its row of
    ``_adjacency(graph)``, packed from the CSR arrays: a boolean row of
    whole bytes per node, at most `_ROW_CELLS` booleans at a time."""
    ends, neighbors, degree = graph._csr
    n = graph.n_nodes
    size = -(-n // 8)  # bytes per row
    step = max(1, _ROW_CELLS // (8 * size))
    firsts = ends - degree
    rows: list[int] = []
    for a in range(0, n, step):
        b = min(n, a + step)
        cells = np.zeros((b - a) * 8 * size, dtype=bool)
        offsets = np.repeat(np.arange(0, len(cells), 8 * size), degree[a:b])
        cells[offsets + neighbors[firsts[a] : ends[b - 1]]] = True
        data = np.packbits(cells, bitorder="little").tobytes()
        rows.extend(
            int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)
        )
    return rows


def _reach(adj, start: int, inside: set[int]) -> list[int]:
    """The nodes of `inside` that a breadth-first search from `start`
    reaches without leaving it, in the order found."""
    seen = {start}
    found = [start]
    for u in found:
        for w in adj[u]:
            if w not in seen and w in inside:
                seen.add(w)
                found.append(w)
    return found


def _components(nodes: set[int], adj) -> list[list[int]]:
    """Connected components of the subgraph `nodes` induce, each sorted,
    ordered by (size, lowest id)."""
    remaining = set(nodes)
    comps: list[list[int]] = []
    while remaining:
        comp = sorted(_reach(adj, min(remaining), remaining))
        comps.append(comp)
        remaining.difference_update(comp)
    comps.sort(key=lambda c: (len(c), c[0]))
    return comps


def _ids(mask: int) -> set[int]:
    digits = bin(mask)
    top = len(digits) - 1
    return {top - i for i, c in enumerate(digits) if c == "1"}


def _meets_nearby(w: int, starts: list[int], nodes: set[int], adj) -> bool:
    """Whether taking w leaves `nodes` connected, decided near w: True
    when `starts`, w's neighbours in `nodes`, number at most one, or two
    or three that neighbours they share in `nodes`, other than w, join
    pairwise into one group.  False leaves the question to a search.

    `nodes` may hold w or not, with the same answer.  True is exact only
    while `nodes` with w is connected: then every node of `nodes` reaches
    w through a start, so starts that meet keep `nodes` connected.
    """
    if len(starts) <= 1:
        return True
    if len(starts) > 3:
        return False
    if len(starts) == 3:
        a, b, c = starts
        joined = 0  # bit 1: a meets b, bit 2: a meets c
        for x in adj[a]:
            if x != w and x in nodes:
                row = adj[x]
                if b in row:
                    joined |= 1
                if c in row:
                    joined |= 2
        if joined == 3:
            return True
        if not joined:
            return False
        starts = starts[1:]  # a meets one of b and c; b must meet c
    a, b = starts
    for x in adj[a]:
        if x != w and x in nodes and b in adj[x]:
            return True
    return False


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


def _search_masks(
    w: int, starts: list[int], rest: int, rows: list[int]
) -> set[int] | None:
    """``_search_sets``'s answer for `starts`, w's neighbours in the bit
    set `rest` (which holds no w) in ascending order, found with bit sets.

    With more than `_JOIN_STARTS` starts a fast join runs first: one
    connected set grows from the lowest start's closed neighbourhood,
    each pass taking in every start adjacent to it together with that
    start's neighbours.  When it holds every start, they are joined;
    dense remainders join in a pass or two.  When a pass takes in
    nothing, the set becomes front A of the search below, all of it
    pending (a row it took in adds nothing when expanded again).

    Each front keeps the nodes it reached and those it has still to
    expand.  Front A starts at the lowest start, front B at the lowest
    start A has not reached, and they take turns expanding their lowest
    pending node: one AND of its row with `rest`, less what the front
    reached, gives the new nodes.  When the fronts meet, they merge into
    A and B restarts at the next start A has not reached; once there is
    none, the starts are joined.  A front that runs dry first holds a
    whole component, returned as node ids.  `rows[u]` is u's adjacency
    row, and ``rows[w] & rest`` holds the starts.
    """
    left = rows[w] & rest
    # (seen, pend) is the front that expands next, A after every merge;
    # (seen2, pend2) is the other
    seen = pend = left & -left
    if len(starts) > _JOIN_STARTS:
        seen |= rows[starts[0]] & rest
        waiting = starts[1:]
        while waiting:
            out = []
            for x in waiting:
                row = rows[x]
                if row & seen:
                    seen |= row & rest | 1 << x
                else:
                    out.append(x)
            if len(out) == len(waiting):
                break
            waiting = out
        else:
            return None
        pend = seen  # rows already taken in add nothing when expanded again
    while True:
        left &= ~seen
        if not left:
            return None
        seen2 = pend2 = left & -left
        while True:
            if not pend:
                return _ids(seen)
            low = pend & -pend
            new = rows[low.bit_length() - 1] & rest & ~seen
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
    rows: list[int] | None,
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

    The disconnect test, `severs`, is exact but local and is asked once
    per candidate and once per seed, before `unassigned` is edited.  The
    remainder is connected after a pick or a swallow, and before every
    seed whose part tests a candidate: part 0's members are a connected
    cluster, each earlier part ended on a pick, a swallow or its seed
    alone, and a seed-only part is followed only by seed-only parts and
    the last part (targets never grow).  A seed-only part asks nothing.
    While the remainder is connected, `severs` only has to check that the
    candidate's unassigned neighbours still meet without it.  A seed that
    cuts leaves the remainder split, and nothing changes it until the
    next pick or swallow, since the loop between takes nothing; so its
    components are listed once, in `pieces`, and a candidate then cuts
    unless it is the whole of one of exactly two components.  A cut
    vertex w found by a search gets a memo, ``cuts[w] = [comp, left]``:
    the closed component it cut off and how many of it are still
    unassigned.  What is left of a closed component stays closed as
    nodes are taken, so the memo is exact while nodes are left on both
    sides of the cut; `take` counts `left` down and deletes the memo once
    a side is empty or w itself is taken, so `severs` answers True for
    any w in `cuts` without a search.  After a pick, a deferred vertex
    with a memo is held off the heap (`held`) instead of going back on
    it; `take` pushes it back at its discovery layer when its memo is
    deleted, so the heap pops the same candidates in the same order as
    if it were asked after every pick.  A candidate that `pieces`
    answered has no memo and goes back on the heap.  When no candidate
    can be picked, the held ones join the deferred list in (layer, id)
    order.  A part ends by dropping what it holds; the memos live on and
    answer in the split's later parts.  Worst case: a pick whose
    neighbours meet only around the far side of the remainder still
    costs a search of all of it.

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
    # the components of unassigned while a seed has split it, else None
    pieces: list[list[int]] | None = None

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
            cuts.pop(x, None)
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
        """Whether taking w would disconnect the unassigned set.

        A live memo answers first, then `pieces` while the remainder is
        split.  Otherwise the remainder is connected and every node of it
        reaches w through one of w's unassigned neighbours, the starts,
        so w cuts exactly when they do not all meet without it.
        ``_meets_nearby`` clears most candidates on a torus; the others
        are searched from the starts, more than `_MASK_STARTS` of them
        with ``_search_masks`` where the split has bit rows, the rest with
        ``_search_sets``.  Every mask operation costs the remainder's
        width in bits, which a candidate with four starts does not win
        back: sending those to the masks too made the 100x100 torus at
        level 4 cluster 15-17% slower.  A cut found by a search is
        memoised.
        """
        if w in cuts:
            return True
        if pieces is not None:
            # taking w rejoins the remainder only if w is all of one of two
            return len(pieces) != 2 or [w] not in pieces
        starts = [x for x in adj[w] if x in unassigned]
        if _meets_nearby(w, starts, unassigned, adj):
            return False
        if len(starts) > _MASK_STARTS and rows is not None:
            comp = _search_masks(w, starts, rest & ~(1 << w), rows)
        else:
            unassigned.remove(w)
            comp = _search_sets(starts, unassigned, adj)
            unassigned.add(w)
        if comp is None:
            return False
        cuts[w] = [comp, len(comp)]
        return True

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
        cut = target > 1 and severs(seed)
        take(seed, 0)
        if cut:  # unassigned stays as it is until the next pick or swallow
            pieces = _components(unassigned, adj)
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
                    else:  # answered by `pieces`, with no memo
                        heapq.heappush(heap, (lay, w))
                take(pick[1], pick[0])
                pieces = None
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
            pieces = None  # what is left is the largest component
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
    adj = _adjacency(graph)
    # the masks serve only candidates with more than _MASK_STARTS
    # unassigned neighbours, so a graph without such a node takes none,
    # even where _masks_pay passes a split (at mean degree 4, any split
    # narrower than 300 ids); the bit rows, shared by every split, are
    # built for the first split that passes
    degree = graph._csr[2]
    degree = degree.tolist() if degree.max() > _MASK_STARTS else None
    rows = None
    current: list[tuple[int | None, list[int]]] = [(None, list(range(graph.n_nodes)))]
    for level in range(1, levels):
        nxt: list[tuple[int | None, list[int]]] = []
        for parent_id, members in current:
            masked = degree is not None and _masks_pay(
                sum(map(degree.__getitem__, members)), len(members), members[-1] + 1
            )
            if masked and rows is None:
                rows = _rows(graph)
            for region in _grow_regions(
                members, adj, branching, level, parent_id, rows if masked else None
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
    level costs one ``graphs._label_roots`` call (a cluster of more than
    one tree is split) and one ``np.unique`` of (parent, cluster) pairs;
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
    # one dense index for the ids of every level, made in Python: an id
    # can pass int64, and numpy would hold it as a float, merging ids
    index = {cid: i for i, cid in enumerate(dict.fromkeys(chain.from_iterable(paths)))}
    ids, k, n = list(index), len(index), len(paths)
    table = np.fromiter(map(index.__getitem__, chain.from_iterable(paths)), np.intp)
    parent = np.zeros(n, dtype=np.intp)  # each node's label path above the level, indexed
    for level, label in enumerate(table.reshape(n, want).T, 1):
        trees = np.bincount(label[_label_roots(graph, label) == np.arange(n)], minlength=k)
        pairs, parent = np.unique(parent * k + label, return_inverse=True)
        parents = np.bincount(pairs % k, minlength=k)
        faults = np.flatnonzero((parents > 1) | (trees > 1)).tolist()
        for cid, i in sorted(zip(map(ids.__getitem__, faults), faults)):
            if parents[i] > 1:
                violations.append(
                    f"nesting: level {level} cluster {cid} spans "
                    f"{parents[i]} parent clusters"
                )
            if trees[i] > 1:
                violations.append(
                    f"connectivity: level {level} cluster {cid} induces a "
                    "disconnected subgraph"
                )
    return violations


def save(hierarchy: Hierarchy, path: str) -> None:
    """Write one ``node_id path...`` line per node, sorted by node id,
    formatted by one template over the flattened rows.  The template has
    a line of each row's own width, so ragged paths, which load() takes
    from a malformed file, are written back as they are."""
    paths = hierarchy.label_paths
    lines = {w: "%s" + " %s" * w + "\n" for w in set(map(len, paths))}
    template = "".join(map(lines.__getitem__, map(len, paths)))
    text = template % tuple(chain.from_iterable((u, *p) for u, p in enumerate(paths)))
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
