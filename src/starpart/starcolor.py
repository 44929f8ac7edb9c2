"""Star colorings: verification, exact star chromatic number, and a greedy
baseline.

A star k-coloring is a proper k-coloring in which no path on four distinct
vertices (three edges) uses only two colors; equivalently the union of any
two color classes induces a star forest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .graphs import Graph

DEFAULT_EXACT_CAP = 40


@dataclass(frozen=True)
class Coloring:
    """A total vertex coloring with colors 0..palette_size-1."""

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        if any(c < 0 or c >= self.palette_size for c in self.colors):
            raise ValueError("colors must lie in 0..palette_size-1")

    def used(self) -> int:
        return len(set(self.colors))


Violation = tuple[str, tuple[int, ...]]


def is_star_coloring(g: Graph, coloring: Coloring) -> tuple[bool, Violation | None]:
    """Check properness and the no-bicolored-P4 condition.

    Returns (True, None) or (False, witness) where the witness is
    ("edge", (u, v)) for a monochromatic edge or ("path", (x, u, v, y)) for
    a 4-vertex path on two colors.  The P4 scan is edge-centric: for each
    edge (u, v) it tries extensions x-u-v-y.
    """
    c = coloring.colors
    if len(c) != g.n:
        raise ValueError(f"coloring covers {len(c)} vertices, graph has {g.n}")
    for u, v in g.edges():
        if c[u] == c[v]:
            return False, ("edge", (u, v))
    for u, v in g.edges():
        for x in g.adj[u]:
            if x == v or c[x] != c[v]:
                continue
            for y in g.adj[v]:
                if y == u or y == x:
                    continue
                if c[y] == c[u]:
                    return False, ("path", (x, u, v, y))
    return True, None


def _p4_violation_at(g: Graph, colors: list[int], v: int) -> bool:
    """Does some fully-colored P4 through ``v`` use only two colors?"""
    cv = colors[v]
    # v internal: a - v - b - c
    for a in g.adj[v]:
        ca = colors[a]
        if ca < 0 or ca == cv:
            continue
        for b in g.adj[v]:
            if b == a or colors[b] != ca:
                continue
            for c in g.adj[b]:
                if c == v or c == a:
                    continue
                if colors[c] == cv:
                    return True
    # v endpoint: v - a - b - c
    for a in g.adj[v]:
        ca = colors[a]
        if ca < 0 or ca == cv:
            continue
        for b in g.adj[a]:
            if b == v:
                continue
            if colors[b] != cv:
                continue
            for c in g.adj[b]:
                if c == a or c == v:
                    continue
                if colors[c] == ca:
                    return True
    return False


def degeneracy_order(g: Graph) -> list[int]:
    """Repeatedly delete a minimum-degree vertex (ties by id); the coloring
    order is the reverse of the deletion order."""
    deg = g.degrees()
    removed = [False] * g.n
    deletion = []
    for _ in range(g.n):
        v = min((x for x in range(g.n) if not removed[x]), key=lambda x: (deg[x], x))
        removed[v] = True
        deletion.append(v)
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
    deletion.reverse()
    return deletion


def backtrack(size: int, width: int, place: Callable[[int, int], bool],
              undo: Callable[[int], None]) -> Iterator[None]:
    """Depth-first search over slots 0..size-1 on an explicit stack.

    ``place(slot, c)`` tries choice ``c`` (0..width-1, ascending) at ``slot``
    and says whether the partial assignment still holds; ``undo(slot)``
    retracts the latest ``place`` at that slot, whether it held or not.
    Yields at every complete assignment, left in place until resumed.
    """
    choices = [0]  # one frame per open slot: the next choice to try there
    while choices:
        slot = len(choices) - 1
        c = choices[slot]
        if slot == size or c == width:
            if slot == size:
                yield
            choices.pop()
            if choices:
                undo(slot - 1)
        else:
            choices[slot] = c + 1
            if place(slot, c):
                choices.append(0)
            else:
                undo(slot)


def _search_star_k(g: Graph, k: int, order: list[int]) -> list[int] | None:
    """Backtracking search for a star k-coloring along ``order``.

    Color symmetry is broken by allowing a vertex at position i only colors
    up to 1 + (max color used so far); the first admissible color is tried
    first, making the output deterministic.
    """
    colors = [-1] * g.n
    used = [0] * (g.n + 1)  # used[i]: number of colors on order[:i]

    def place(slot: int, c: int) -> bool:
        v = order[slot]
        if c > used[slot] or any(colors[u] == c for u in g.adj[v]):
            return False
        colors[v] = c
        used[slot + 1] = max(used[slot], c + 1)
        return not _p4_violation_at(g, colors, v)

    def undo(slot: int) -> None:
        colors[order[slot]] = -1

    for _ in backtrack(g.n, k, place, undo):
        return colors
    return None


def star_chromatic_number(g: Graph, limit: int | None = None,
                          force: bool = False) -> tuple[int, Coloring] | None:
    """Exact star chromatic number with a witness coloring.

    Searches k = 1, 2, ... up to ``limit`` (default n); returns None when
    every k <= limit fails.  Refuses n > DEFAULT_EXACT_CAP unless ``force``.
    """
    if limit is None:
        limit = max(g.n, 1)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if g.n > DEFAULT_EXACT_CAP and not force:
        raise ValueError(
            f"n={g.n} exceeds the exact-search cap {DEFAULT_EXACT_CAP}; "
            "pass force=True to override")
    if g.n == 0:
        return 0, Coloring((), 1)
    order = degeneracy_order(g)
    for k in range(1, limit + 1):
        found = _search_star_k(g, k, order)
        if found is not None:
            coloring = Coloring(tuple(found), k)
            ok, witness = is_star_coloring(g, coloring)
            assert ok, f"solver produced an invalid coloring: {witness}"
            return k, coloring
    return None


def star_chromatic_number_oracle(g: Graph, limit: int | None = None) -> int | None:
    """Naive oracle: enumerate all k^n labelings, filter with the verifier."""
    if limit is None:
        limit = max(g.n, 1)
    if g.n == 0:
        return 0
    for k in range(1, limit + 1):
        for labels in itertools.product(range(k), repeat=g.n):
            ok, _ = is_star_coloring(g, Coloring(labels, k))
            if ok:
                return k
    return None


def greedy_star_coloring(g: Graph, order: list[int] | None = None) -> Coloring:
    """First-fit star coloring along ``order`` (default: degeneracy order).

    No optimality guarantee; the result is verified before being returned.
    """
    if order is None:
        order = degeneracy_order(g)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    # a fresh color always fits, so with n colors first-fit never backtracks
    colors = _search_star_k(g, max(g.n, 1), order)
    coloring = Coloring(tuple(colors), max(colors, default=0) + 1)
    ok, witness = is_star_coloring(g, coloring)
    assert ok, f"greedy produced an invalid coloring: {witness}"
    return coloring
