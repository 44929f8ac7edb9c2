"""Forest / 2-independent-set partitions.

An FI_k-partition splits V(G) into F, I_1, ..., I_k where G[F] is a forest
and each I_j is 2-independent: its members lie pairwise at distance >= 3
*in the whole graph*, not merely inside the induced subgraph.  k = 2 is the
partition that converts into a star 5-coloring.

The exact solver backtracks over vertex labels with incremental forest
maintenance (rollback union-find), distance-2 conflict tables, and, for
k = 2, two sound propagation rules derived from the double-triangle gadgets:

* if v has a neighbor w carrying two disjoint triangles that avoid v, then
  v in I_a forces w into I_b (and w in F forces v into F);
* if such a w has in turn a neighbor w2 of the same shape, v must be in F.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, NamedTuple

from .graphs import (Graph, GraphError, balls2, bfs_order, forest_cycle,
                     neighbor_sets, per_graph)
from .starcolor import BudgetExhausted, Coloring, backtrack, is_star_coloring
from . import density

F_LABEL = 0


def label_name(lab: int) -> str:
    return "F" if lab == F_LABEL else f"I{lab}"


def parse_label(name: str, k: int) -> int:
    name = name.strip()
    aliases = {"F": 0, "Ia": 1, "Ib": 2, "Ialpha": 1, "Ibeta": 2}
    lab = aliases.get(name)
    if lab is None and name.startswith("I") and name[1:].isdigit():
        try:
            lab = int(name[1:])
        except ValueError:  # a digit such as '²', or past int()'s digit limit
            pass
    # past the aliases, only label_name's spelling names a part: not I0 or I01
    if lab is None or (name not in aliases and name != label_name(lab)):
        raise GraphError(f"unknown part label {name!r}")
    if lab > k:
        raise GraphError(f"label {name!r} exceeds k={k}")
    return lab


class FiiPartition(NamedTuple):
    """A total labeling: 0 = F, 1..k = the 2-independent parts."""

    labels: tuple[int, ...]
    k: int = 2

    def names(self) -> list[str]:
        return [label_name(l) for l in self.labels]


Witness = tuple[str, tuple]


def verify_fii(g: Graph, p: FiiPartition) -> tuple[bool, Witness | None]:
    """Check the forest and 2-independence conditions.

    Returns (True, None) or (False, witness); witnesses are
    ("cycle", vertex_tuple) for a cycle of G[F], in walk order from the
    first F-vertex of the 2-core of G[F] (``graphs.forest_cycle``), and
    ("close_pair", (u, v, part, distance)) for an I-part conflict.
    """
    if len(p.labels) != g.n:
        raise GraphError(f"partition covers {len(p.labels)} vertices, graph has {g.n}")
    if any(l < 0 or l > p.k for l in p.labels):
        raise GraphError("label out of range")
    labels = p.labels

    cycle = forest_cycle(g, (v for v in range(g.n) if labels[v] == F_LABEL))
    if cycle is not None:
        return False, ("cycle", cycle)

    # 2-independence from the adjacency lists alone, sharing no table with
    # the solver: the smallest same-part vertex within distance two of v
    for j in sorted(set(labels) - {F_LABEL}):
        for v in range(g.n):
            if labels[v] != j:
                continue
            hit = [w for u in g.adj[v] for w in (u, *g.adj[u])
                   if w != v and labels[w] == j]
            if hit:
                u = min(hit)
                d = 1 if g.has_edge(u, v) else 2
                return False, ("close_pair", (min(u, v), max(u, v), j, d))
    return True, None


# ---------------------------------------------------------------------------
# Gadget forcing patterns
# ---------------------------------------------------------------------------

def _triangle_pairs(g: Graph) -> list[list[tuple[int, int]]]:
    """For each vertex w, the edges (a, b) inside N(w), in ``edges()`` order."""
    near = neighbor_sets(g)
    tri: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for a, b in g.edges():
        for w in near[a] & near[b]:
            tri[w].append((a, b))
    return tri


def lemma_forcing_patterns(g: Graph) -> tuple[dict[int, tuple[int, ...]],
                                              dict[int, tuple[int, ...]],
                                              tuple[int, ...]]:
    """Detect the double-triangle forcing patterns.

    Returns (tail_to_heads, head_to_tails, forced_f) where (v, w) is a
    pattern pair iff v ~ w and w carries two vertex-disjoint triangles
    avoiding v, and forced_f lists vertices v admitting a chain v - w1 - w2
    of two such pairs (those must be in F in every partition with k = 2).
    """
    tri = _triangle_pairs(g)

    def pair_ok(v: int, w: int) -> bool:
        pairs = [p for p in tri[w] if v not in p]
        for i in range(len(pairs)):
            a1, b1 = pairs[i]
            for j in range(i + 1, len(pairs)):
                a2, b2 = pairs[j]
                if a1 != a2 and a1 != b2 and b1 != a2 and b1 != b2:
                    return True
        return False

    tail_to_heads: dict[int, list[int]] = {}
    head_to_tails: dict[int, list[int]] = {}
    for w in range(g.n):
        if len(tri[w]) < 2:
            continue
        for v in g.adj[w]:
            if pair_ok(v, w):
                tail_to_heads.setdefault(v, []).append(w)
                head_to_tails.setdefault(w, []).append(v)

    forced_f = []
    for v in range(g.n):
        hit = False
        for w1 in tail_to_heads.get(v, ()):
            for w2 in tail_to_heads.get(w1, ()):
                if w2 != v:
                    hit = True
                    break
            if hit:
                break
        if hit:
            forced_f.append(v)
    return ({v: tuple(ws) for v, ws in tail_to_heads.items()},
            {w: tuple(vs) for w, vs in head_to_tails.items()},
            tuple(forced_f))


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------

class FiiResult(NamedTuple):
    status: str                      # "feasible" | "infeasible" | "unknown"
    partition: FiiPartition | None
    nodes: int
    forced: int
    exhausted: bool

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


class _Solver:
    def __init__(self, g: Graph, k: int, forcing: bool,
                 deadline: float | None = None, node_limit: int | None = None):
        self.g = g
        self.k = k
        self.b2 = balls2(g)
        self.forcing = bool(forcing) and k == 2
        if self.forcing:
            self.t2h, self.h2t, self.j2 = lemma_forcing_patterns(g)
        else:
            self.t2h, self.h2t, self.j2 = {}, {}, ()
        self.labels = [-1] * g.n
        self.parent = list(range(g.n))
        self.size = [1] * g.n
        self.trail: list[tuple] = []
        self.nodes = 0
        self.forced = 0
        self.deadline = deadline
        self.node_limit = node_limit

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append(("U", rb, ra))
        return True

    def _assign(self, v: int, lab: int, queue: deque) -> bool:
        cur = self.labels[v]
        if cur != -1:
            return cur == lab
        self.labels[v] = lab
        self.trail.append(("L", v))
        if lab == F_LABEL:
            for u in self.g.adj[v]:
                if self.labels[u] == F_LABEL and not self._union(u, v):
                    return False
            for tail in self.h2t.get(v, ()):
                queue.append((tail, F_LABEL))
        else:
            for u in self.b2[v]:
                if self.labels[u] == lab:
                    return False
            if self.forcing:
                other = 3 - lab
                for head in self.t2h.get(v, ()):
                    queue.append((head, other))
        return True

    def _assign_prop(self, v: int, lab: int) -> bool:
        queue: deque = deque()
        ok = self._assign(v, lab, queue)
        while ok and queue:
            self.forced += 1
            ok = self._assign(*queue.popleft(), queue)
        return ok

    def _undo_to(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            op = trail.pop()
            if op[0] == "L":
                self.labels[op[1]] = -1
            else:
                _, child, root = op
                self.parent[child] = child
                self.size[root] -= self.size[child]

    def _tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExhausted("node limit reached")

    def _labelings(self, order: Iterable[int]) -> Iterator[None]:
        """Label ``order``'s unlabeled vertices; yield at each complete labeling."""
        order = [v for v in order if self.labels[v] == -1]
        marks = [0] * len(order)

        def place(slot: int, lab: int) -> bool:
            v = order[slot]
            marks[slot] = len(self.trail)
            if self.labels[v] == -1:  # a label forced earlier is no branch
                self._tick()
            return self._assign_prop(v, lab)

        return backtrack(len(order), self.k + 1, place,
                         lambda slot: self._undo_to(marks[slot]), self.deadline)

    def solve(self, fixed: dict[int, int] | None = None) -> FiiResult:
        pins = sorted((fixed or {}).items()) + [(v, F_LABEL) for v in self.j2]
        try:
            # components share no constraint: one that is exhausted proves infeasibility
            ok = all(self._assign_prop(v, lab) for v, lab in pins) and all(
                any(True for _ in self._labelings(order))
                for order in _branch_orders(self.g))
        except BudgetExhausted:
            return FiiResult("unknown", None, self.nodes, self.forced, False)
        if ok:
            part = FiiPartition(tuple(self.labels), self.k)
            valid, witness = verify_fii(self.g, part)
            assert valid, f"solver produced an invalid partition: {witness}"
            return FiiResult("feasible", part, self.nodes, self.forced, False)
        return FiiResult("infeasible", None, self.nodes, self.forced, True)


@per_graph
def _branch_orders(g: Graph) -> tuple[tuple[int, ...], ...]:
    """One branch order per connected component: BFS from its highest-degree
    vertex, ties broken by id, neighbors visited in id order."""
    free = set(range(g.n))
    # each comp is sorted, so max takes its first maximum
    return tuple(tuple(bfs_order(g, max(comp, key=g.degree), free))
                 for comp in g.components())


def find_fii(g: Graph, k: int = 2, forcing: bool = True,
             fixed: dict[int, int] | None = None,
             deadline: float | None = None,
             node_limit: int | None = None) -> FiiResult:
    """Find an FI_k-partition or prove none exists by exhaustion.

    Branch order: each connected component on its own, in BFS order from its
    highest-degree vertex (ties by id); labels F, I1, ..., Ik.
    ``fixed`` pins labels before the search (used by the lemma-extension
    machinery).  Infeasibility is only reported after full exhaustion; past
    ``deadline`` (a ``time.monotonic()`` instant, ``None`` for no limit) or
    ``node_limit`` nodes the status is "unknown".
    """
    if k < 0:
        raise GraphError("k must be nonnegative")
    return _Solver(g, k, forcing, deadline, node_limit).solve(fixed)


def enumerate_fii(g: Graph, k: int = 2, deadline: float | None = None,
                  own: int | None = None) -> Iterator[FiiPartition]:
    """Yield every FI_k-partition (no forcing, plain backtracking).

    Branch order: the vertices below ``own`` (default ``g.n``) in the branch
    orders of ``find_fii``, then the rest in id order, so the partitions that
    agree below ``own`` come out in one consecutive run (``attach_gadget``
    numbers a gadget's vertices after its host's).  Past ``deadline`` (a
    ``time.monotonic()`` instant) the next step raises BudgetExhausted.
    """
    own = g.n if own is None else own
    solver = _Solver(g, k, False, deadline)
    order = [v for comp in _branch_orders(g) for v in comp if v < own]
    for _ in solver._labelings([*order, *range(own, g.n)]):
        yield FiiPartition(tuple(solver.labels), k)


# ---------------------------------------------------------------------------
# Conversion to a star 5-coloring
# ---------------------------------------------------------------------------

def fii_to_star5(g: Graph, p: FiiPartition) -> Coloring:
    """Turn an FII-partition (k = 2) into a star 5-coloring.

    Each tree of G[F] is rooted at its minimum vertex and colored by depth
    mod 3; the two independent parts take colors 3 and 4.  The output is
    verified before being returned.
    """
    if p.k != 2:
        raise GraphError("star-5 conversion needs exactly two independent parts")
    ok, witness = verify_fii(g, p)
    if not ok:
        raise GraphError(f"invalid partition: {witness}")
    # I1 and I2 take 3 and 4; -1 marks an F-vertex not yet coloured
    colors = [-1 if lab == F_LABEL else 2 + lab for lab in p.labels]
    free = {v for v in range(g.n) if colors[v] == -1}
    for root in range(g.n):
        if root in free:
            colors[root] = 0
            for v in bfs_order(g, root, free):
                # in a tree, v's F-neighbours still uncoloured are its children
                for w in g.adj[v]:
                    if colors[w] == -1:
                        colors[w] = (colors[v] + 1) % 3
    coloring = Coloring(tuple(colors), 5)
    valid, w = is_star_coloring(g, coloring)
    assert valid, f"conversion produced a non-star coloring: {w}"
    return coloring


# ---------------------------------------------------------------------------
# Boundary experiments
# ---------------------------------------------------------------------------

class BoundaryEntry(NamedTuple):
    name: str
    n: int
    mad: Fraction
    status: str  # "feasible" | "infeasible" | "unknown"


class BoundaryReport(NamedTuple):
    """Empirical sweep of FI_k feasibility against maximum average degree.

    ``min_infeasible_mad`` is an *empirical upper bound* on the threshold
    below which every graph admits an FI_k-partition; it is not a resolved
    value of that threshold.
    """

    k: int
    entries: list[BoundaryEntry]

    @property
    def min_infeasible_mad(self) -> Fraction | None:
        vals = [e.mad for e in self.entries if e.status == "infeasible"]
        return min(vals) if vals else None

    @property
    def unknown_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "unknown")


def boundary_search(k: int, corpus: Iterable[tuple[str, Graph]],
                    deadline: float | None = None) -> BoundaryReport:
    """For each corpus graph record (mad, FI_k feasibility), all searches
    within the one ``deadline``; see BoundaryReport."""
    entries = []
    for name, g in corpus:
        d = density.mad(g)
        res = find_fii(g, k, deadline=deadline)
        entries.append(BoundaryEntry(name, g.n, d.value, res.status))
    entries.sort(key=lambda e: e.name)
    return BoundaryReport(k, entries)
