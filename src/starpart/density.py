"""Exact density machinery: maximum average degree, the potential function
rho(A) = 4|A| - 3|E(A)|, and the constrained minimum rho*(I).

Everything is exact: densities are ``fractions.Fraction``, potentials are
ints, and every decision path goes through one integer orientation routine,
``place_units`` (Hakimi 1965).  The tests check each one against
subset-enumeration references kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .graphs import (Graph, GraphError, bfs_order, check_vertices, peel_2core,
                     per_graph)


def place_units(held: list[dict[int, int]], load: list[int], cap: int,
                sources: Sequence[int], want: int,
                dead: set[int]) -> tuple[list[int], Sequence[int]]:
    """Put up to ``want`` units on ``sources``, keeping every load <= cap.

    ``held[x][y]`` units of edge xy lie on x and ``load[x]`` sums them; a
    missing entry counts as 0.  The sources take what they have room for;
    then each breadth-first search over the arcs x -> y with
    ``held[x][y] >= 1`` finds the nearest vertex with room and shifts the
    path's bottleneck amount one arc along, so only that vertex gains load.
    The path is walked twice through the parent pointers, once for the
    bottleneck and once to shift.  A failed search adds what it reached to
    ``dead``: that set has no arc out and no room, and keeps both while units
    are only added, so searches skip it, and a caller may skip an edge with
    both endpoints dead: the call would place nothing and add nothing to
    ``dead``.  The set may be kept across calls if units taken back are
    ``release``d from it.

    Returns the units put on each source and the vertices added to ``dead``:
    none when every unit is placed, else all that the failed search reached.
    """
    got = []
    for x in sources:
        got.append(0 if x in dead else min(want, cap - load[x]))
        load[x] += got[-1]
        want -= got[-1]
    while want:
        parent = {}
        queue = []
        for x in sources:
            if x not in dead:
                parent[x] = -1
                queue.append(x)
        for x in queue:
            if load[x] < cap:
                break
            for y, k in held[x].items():
                if k and y not in parent and y not in dead:
                    parent[y] = x
                    queue.append(y)
        else:
            dead.update(queue)
            return got, queue
        amount = min(want, cap - load[x])
        y, w = x, parent[x]
        while w >= 0:
            if held[w][y] < amount:
                amount = held[w][y]
            y, w = w, parent[w]
        load[x] += amount
        y, w = x, parent[x]
        while w >= 0:
            held[w][y] -= amount
            held[y][w] += amount
            y, w = w, parent[w]
        got[0 if y == sources[0] else sources.index(y)] += amount
        want -= amount
    return got, ()


def release(held: list[dict[int, int]], free: Iterable[int],
            trapped: set[int]) -> list[int]:
    """Drop from ``trapped`` each vertex of ``free`` and all that can reach
    one along arcs x -> y with ``held[x][y] >= 1``, by one reverse search.

    Returns ``free`` and then each vertex dropped, in search order; when
    ``free`` lies inside ``trapped`` that is exactly what left it."""
    queue = list(free)
    trapped.difference_update(queue)
    for y in queue:
        for x in held[y]:
            if x in trapped and held[x][y]:
                trapped.remove(x)
                queue.append(x)
    return queue


class Density(NamedTuple):
    """An exact density 2|E(H)|/|V(H)| with a witness vertex set."""

    value: Fraction
    witness: tuple[int, ...]


class PotentialResult(NamedTuple):
    """The minimum of a vertex/edge-weighted potential with its minimizer."""

    value: int
    minimizer: tuple[int, ...]


def _subgraph_edges(g: Graph, vertices: Iterable[int]) -> int:
    vs = set(vertices)
    return sum(1 for u in vs for v in g.adj[u] if v in vs and u < v)


def rho(g: Graph, a: Iterable[int]) -> int:
    """The potential 4|A| - 3|E(G[A])| of a vertex set."""
    vs = set(check_vertices(g, a))
    return 4 * len(vs) - 3 * _subgraph_edges(g, vs)


def _core_density(g: Graph) -> Fraction:
    """The largest |E(C)|/|C| over the components C of the 2-core, 0 if the
    2-core is empty.

    Vertices of degree <= 1 are peeled; each component's edges are counted
    from the degrees that remain, so this takes O(n + m).
    """
    deg = g.degrees()
    gone = [False] * g.n
    peel_2core(g, deg, gone, [v for v in range(g.n) if deg[v] <= 1])
    core = {v for v in range(g.n) if not gone[v]}
    best_e, best_k = 0, 1
    for s in range(g.n):
        if s in core:
            comp = bfs_order(g, s, core)
            twice_e = sum(map(deg.__getitem__, comp))
            if twice_e * best_k > 2 * best_e * len(comp):
                best_e, best_k = twice_e // 2, len(comp)
    return Fraction(best_e, best_k)


def mad(g: Graph) -> Density:
    """Exact maximum average degree via iterated orientations (Dinkelbach).

    The start density p/q is the better of |E|/|V| and the densest component
    of the 2-core (``_core_density``), each the density of a real vertex set.
    One orientation (``_orient`` at weights (p, q)) decides whether some T
    has q|E(T)| - p|T| > 0; if so its least minimizer is strictly denser and
    becomes the next p/q, and densities have denominator at most n, so the
    iteration reaches the exact maximum in finitely many steps.

    The witness is the maximal densest set, the union of all densest sets.
    It is read off the final, certifying placement (every unit placed): it is
    the set of vertices that cannot reach a vertex with ``load < p`` along
    arcs x -> y with ``held[x][y] >= 1``, found by ``release``.  That set
    is closed and full, so p|S| = q|E(S)|, and so is every densest set.
    """
    if g.n < 1:
        raise GraphError("mad requires at least one vertex")
    if g.edge_count == 0:
        return Density(Fraction(0), (0,))
    dens = max(Fraction(g.edge_count, g.n), _core_density(g))
    while True:
        value, dead, held, load = _orient(g, (), dens.numerator, dens.denominator)
        if value == 0:
            break
        better = Fraction(_subgraph_edges(g, dead), len(dead))
        assert better > dens
        dens = better
    stuck = {v for v in range(g.n) if load[v] >= dens.numerator}
    release(held, [v for v in range(g.n) if v not in stuck], stuck)
    return Density(2 * dens, tuple(sorted(stuck)))


@per_graph
def _orientation_order(g: Graph) -> tuple[tuple[int, int], ...]:
    """Every edge once, as (u, v) with u its earlier end in the order of
    increasing degree, ties broken by id, grouped by u in that order.

    A low-degree vertex shares its room with few edges, so in this order the
    inline fill of ``_orient`` places nearly every unit: on g5n(400) ``mad``
    makes 1 augmenting search, where ``g.edges()`` order made 1999."""
    order = sorted(range(g.n), key=lambda v: (len(g.adj[v]), v))
    pos = {v: i for i, v in enumerate(order)}
    return tuple((u, v) for u in order for v in g.adj[u] if pos[v] > pos[u])


def _orient(g: Graph, seed: Iterable[int], vertex_weight: int,
            edge_weight: int) -> tuple[int, set[int], list[dict[int, int]], list[int]]:
    """One orientation for min over K >= seed of vw|K| - ew|E(G[K])|.

    Returns the minimum, the final dead set (the least minimizer), and the
    placement ``held``/``load`` that ``place_units`` left.  The edges are
    walked in ``_orientation_order``.  An edge with both endpoints dead is
    skipped before any write: all its units are unplaced and ``held`` gets
    no entry for it.  Otherwise the endpoints' own room is filled inline, as
    ``place_units`` would do first, and it is called only for the units left
    over.  The minimum and the least minimizer do not depend on the order.
    """
    if vertex_weight < 0 or edge_weight < 0:
        raise GraphError("weights must be non-negative")
    dead = set(check_vertices(g, seed))
    value = vertex_weight * len(dead)
    held: list[dict[int, int]] = [{} for _ in range(g.n)]
    load = [0] * g.n
    for u, v in _orientation_order(g):
        if u in dead:
            if v in dead:
                value -= edge_weight
                continue
            a = 0
        else:
            a = min(edge_weight, vertex_weight - load[u])
        b = 0 if v in dead else min(edge_weight - a, vertex_weight - load[v])
        load[u] += a
        load[v] += b
        rest = edge_weight - a - b
        if rest:
            (x, y), _ = place_units(held, load, vertex_weight, (u, v), rest, dead)
            a += x
            b += y
            rest -= x + y
        held[u][v], held[v][u] = a, b
        value -= rest
    return value, dead, held, load


def rho_star_weighted(g: Graph, seed: Iterable[int],
                      vertex_weight: int, edge_weight: int) -> PotentialResult:
    """min over K >= seed of  vw|K| - ew|E(G[K])|, by one orientation.

    Each edge's ew units go on its endpoints outside the seed, at most vw
    per vertex (``place_units``, with the seed dead from the start).  By
    max-flow/min-cut the minimum is vw|seed| minus the units that do not
    fit, and the final dead set, the seed plus all that the left-over units
    reach, is the least minimizer: the same for every vertex order.  An edge
    inside the dead set places nothing and is skipped, so a seed of every
    vertex gives (vw*n - ew*m, all vertices) without touching ``held``.
    """
    value, dead, _, _ = _orient(g, seed, vertex_weight, edge_weight)
    return PotentialResult(value, tuple(sorted(dead)))


def rho_star(g: Graph, seed: Iterable[int] = ()) -> PotentialResult:
    """min over K >= seed of rho(K), by ``rho_star_weighted`` at weights (4, 3).

    The minimum ranges over *all* supersets including K = seed and, for an
    empty seed, K = {} with rho = 0; hence rho_star(g, ()) <= 0 always.
    """
    result = rho_star_weighted(g, seed, 4, 3)
    assert rho(g, result.minimizer) == result.value
    return result


def mad_le_8_3(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide mad(g) <= 8/3 via rho >= 0 on all nonempty sets.

    Returns (True, None) or (False, violating_set): the equivalence is
    6|E(S)| <= 8|S|  iff  4|S| - 3|E(S)| >= 0 for every nonempty S.  The
    violating set, the least minimizer of rho, contains every densest set, so
    it equals ``rho_star(g, mad(g).witness).minimizer``.
    """
    res = rho_star(g, ())
    if res.value >= 0:
        return True, None
    return False, res.minimizer


def mad_le(g: Graph, bound: Fraction) -> bool:
    """Decide mad(g) <= p/q exactly via the weighted potential p|S| - 2q|E(S)|."""
    bound = Fraction(bound)
    if bound < 0:
        raise GraphError("bound must be non-negative")
    res = rho_star_weighted(g, (), bound.numerator, 2 * bound.denominator)
    return res.value >= 0
