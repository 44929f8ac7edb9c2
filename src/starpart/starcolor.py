"""Star colorings: verification and the exact star chromatic number.  The
tests check both against the enumeration of every coloring, in
``tests/oracles.py``.

A star k-coloring is a proper k-coloring in which no path on four distinct
vertices (three edges) uses only two colors; equivalently the union of any
two color classes induces a star forest.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, NamedTuple

from .graphs import Graph, GraphError

DEFAULT_EXACT_CAP = 40


class _ColoringFields(NamedTuple):
    colors: tuple[int, ...]
    palette_size: int


class Coloring(_ColoringFields):
    """A total vertex coloring with colors 0..palette_size-1."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...], palette_size: int):
        if any(c < 0 or c >= palette_size for c in colors):
            raise GraphError("colors must lie in 0..palette_size-1")
        return super().__new__(cls, colors, palette_size)

    @classmethod
    def _make(cls, iterable) -> Coloring:
        # through __new__, so that _make and _replace check the range too
        return cls(*iterable)

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
        raise GraphError(f"coloring covers {len(c)} vertices, graph has {g.n}")
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
    order is the reverse of the deletion order.  A heap of (degree, id)
    entries, skipping stale ones, keeps the id tie-break in O((n+m) log n)."""
    import heapq  # here, as the one user: star5 and fii-find never load it
    deg = g.degrees()
    removed = [False] * g.n
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    deletion = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        deletion.append(v)
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    deletion.reverse()
    return deletion


class BudgetExhausted(Exception):
    """A search ran out of its time or node budget before it could answer."""


def backtrack(size: int, width: int, place: Callable[[int, int], bool],
              undo: Callable[[int], None],
              deadline: float | None = None) -> Iterator[None]:
    """Depth-first search over slots 0..size-1 on an explicit stack.

    ``place(slot, c)`` tries choice ``c`` (0..width-1, ascending) at ``slot``
    and says whether the partial assignment still holds; ``undo(slot)``
    retracts the latest ``place`` at that slot, whether it held or not.
    Yields at every complete assignment, left in place until resumed.
    Past ``deadline`` (a ``time.monotonic()`` instant or ``None``, read
    every 1024 placements) it raises :class:`BudgetExhausted`.
    """
    placed = 0
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
            if deadline is not None:
                placed += 1
                if not placed % 1024 and time.monotonic() > deadline:
                    raise BudgetExhausted("time budget ran out")
            if place(slot, c):
                choices.append(0)
            else:
                undo(slot)


def _search_star_k(g: Graph, k: int, order: list[int],
                   deadline: float | None = None) -> list[int] | None:
    """Backtracking search for a star k-coloring along ``order``, within
    ``deadline`` (see :func:`backtrack`).

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

    for _ in backtrack(g.n, k, place, undo, deadline):
        return colors
    return None


def star_chromatic_number(g: Graph, limit: int | None = None,
                          force: bool = False,
                          deadline: float | None = None
                          ) -> tuple[int, Coloring] | None:
    """Exact star chromatic number with a witness coloring.

    Searches k = 1, 2, ... up to ``limit`` (default n); returns None when
    every k <= limit fails.  Refuses n > DEFAULT_EXACT_CAP unless ``force``.
    All the searches share ``deadline`` (a ``time.monotonic()`` instant or
    ``None``); past it they raise :class:`BudgetExhausted`.
    """
    if limit is None:
        limit = max(g.n, 1)
    if limit < 1:
        raise GraphError("limit must be at least 1")
    if g.n > DEFAULT_EXACT_CAP and not force:
        raise GraphError(
            f"n={g.n} exceeds the exact-search cap {DEFAULT_EXACT_CAP}; "
            "pass force=True to override")
    if g.n == 0:
        return 0, Coloring((), 1)
    order = degeneracy_order(g)
    for k in range(1, limit + 1):
        found = _search_star_k(g, k, order, deadline)
        if found is not None:
            coloring = Coloring(tuple(found), k)
            ok, witness = is_star_coloring(g, coloring)
            assert ok, f"solver produced an invalid coloring: {witness}"
            return k, coloring
    return None
