"""Immutable simple-graph model, file formats, and structural queries.

Vertices are dense integers 0..n-1, at most ``MAX_VERTICES`` of them.  Input
labels (edge-list tokens, DIMACS numbers) are kept in a sidecar ``names``
tuple, which errors found while building a graph quote and the edge-list
writer prints back; every other vertex the CLI reads or prints (in a
certificate, a match, a role or an option) is the parser's index.  Each
format is one reader and one writer in ``_CODECS``; graph6 text is ASCII
and DIMACS numbers ASCII digits.  Graphs are frozen after construction: a
changed graph is a new ``Graph`` (``induced`` or ``with_additions``).
Adjacency is one sorted tuple per vertex; membership reads the lazy
``neighbor_sets``.

The per-graph tables (``neighbor_sets``, ``balls2``, ``find_pendent_cycles``,
``triangle_split``, ``classify_vertices``) are computed once per ``Graph``
by :func:`per_graph` and shared by every caller, so callers must not mutate
them: they are tuples, frozensets and read-only mappings.  The class sets
(``W23``, ``W25``, ``W235``, ``W2345``, ``V4P``) and the double-triangle
gadget (``double_triangle_edges``) are defined here once for the modules
that read the taxonomy.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from enum import Enum
from functools import wraps
from itertools import count, filterfalse, islice
from math import isqrt
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

INFINITY = float("inf")
#: checked before anything of size n is allocated: an edgeless named graph
#: peaks at 136 MB per million vertices (tracemalloc), 1.0 GiB at the cap
MAX_VERTICES = 8_000_000


class GraphError(ValueError):
    """Input that starpart rejects: a malformed or oversized graph, or an
    argument outside a function's domain.  The CLI reports it as a usage
    error; any other exception but a timeout's ``BudgetExhausted`` is a
    fault in starpart."""


class ValidationError(GraphError):
    """A simplicity invariant was violated (self-loop or duplicate edge)."""

    def __init__(self, message: str, edge: tuple[int, int] | None = None):
        super().__init__(message)
        self.edge = edge


class ParseError(GraphError):
    """Malformed input bytes; ``offset`` locates the first bad byte/line."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


def check_vertex_count(n: int) -> None:
    """Raise ``GraphError`` if a graph may not have ``n`` vertices: callers
    check before they allocate anything of size n."""
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def check_vertices(g: "Graph", vertices: Iterable[int],
                   what: str = "vertex") -> tuple[int, ...]:
    """``vertices`` as a tuple, once each is a vertex of ``g``; else the first
    that is not, in their order, is named as ``what`` in a ``GraphError``."""
    vs = tuple(vertices)
    for v in vs:
        if not 0 <= v < g.n:
            raise GraphError(f"{what} {v} out of range 0..{g.n - 1}")
    return vs


class Graph:
    """A simple undirected graph with sorted adjacency tuples.

    Invariants enforced at construction: no self-loops, no parallel edges,
    symmetric adjacency, ``edge_count == sum(degrees) / 2``.
    """

    __slots__ = ("n", "adj", "edge_count", "names", "_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 names: Sequence[str] | None = None):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        check_vertex_count(n)
        self.names = None if names is None else tuple(str(x) for x in names)
        if self.names is not None and len(self.names) != n:
            raise GraphError("names must have one entry per vertex")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[int] = set()  # u * n + v for each edge, u < v
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range 0..{n - 1}",
                                      edge=(u, v))
            if u == v:
                raise ValidationError(f"self-loop at vertex {self.name_of(u)}",
                                      edge=(u, v))
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise ValidationError(f"duplicate edge ({self.name_of(u)}, "
                                      f"{self.name_of(v)})", edge=(u, v))
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self.edge_count = len(seen)
        self._memo: dict = {}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in neighbor_sets(self)[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def name_of(self, v: int) -> str:
        return self.names[v] if self.names is not None else str(v)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the list mapping new ids to old ids."""
        keep = sorted(set(vertices))
        index = {old: new for new, old in enumerate(keep)}
        edges = [(index[u], index[v]) for u, v in self.edges()
                 if u in index and v in index]
        names = [self.name_of(v) for v in keep] if self.names else None
        return Graph(len(keep), edges, names), keep

    def with_additions(self, extra_vertices: int,
                       extra_edges: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with ``extra_vertices`` appended and ``extra_edges`` added;
        new vertices take the least integer names from ``n`` up not in use."""
        edges = list(self.edges()) + list(extra_edges)
        names = self.names
        if names is not None:
            fresh = filterfalse(set(names).__contains__, map(str, count(self.n)))
            names += tuple(islice(fresh, extra_vertices))
        return Graph(self.n + extra_vertices, edges, names)

    def components(self, within: Iterable[int] | None = None) -> list[list[int]]:
        """The components of G[within] (default: all of G), each sorted,
        ordered by least vertex."""
        left = set(range(self.n) if within is None else within)
        # each walk takes its component out of left
        return [sorted(bfs_order(self, s, left)) for s in sorted(left)
                if s in left]

    def is_forest(self) -> bool:
        return forest_cycle(self, range(self.n)) is None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


_T = TypeVar("_T")


def per_graph(fn: Callable[[Graph], _T]) -> Callable[[Graph], _T]:
    """Compute ``fn(g)`` once per graph and keep it on ``g``; the value is
    shared by every caller, so it must be immutable."""
    @wraps(fn)
    def table(g: Graph) -> _T:
        if fn not in g._memo:
            g._memo[fn] = fn(g)
        return g._memo[fn]
    return table


@per_graph
def neighbor_sets(g: Graph) -> tuple[frozenset[int], ...]:
    """For every vertex, its neighbours as a frozenset (for membership)."""
    return tuple(map(frozenset, g.adj))


@per_graph
def balls2(g: Graph) -> tuple[frozenset[int], ...]:
    """For every vertex, the set of vertices at distance exactly 1 or 2."""
    out = []
    for v in range(g.n):
        ball = set(g.adj[v])
        for u in g.adj[v]:
            ball.update(g.adj[u])
        ball.discard(v)
        out.append(frozenset(ball))
    return tuple(out)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def _g6_number(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise ParseError("truncated graph6 header", offset=pos)
    b = data[pos]
    if b != 126:
        if not 63 <= b <= 125:
            raise ParseError(f"invalid graph6 size byte {b}", offset=pos)
        return b - 63, pos + 1
    start, width = (pos + 2, 6) if data[pos + 1:pos + 2] == b"~" else (pos + 1, 3)
    chunk = data[start:start + width]
    if len(chunk) < width:
        raise ParseError("truncated graph6 extended header", offset=pos)
    n = 0
    for c in chunk:
        if not 63 <= c <= 126:
            raise ParseError(f"invalid graph6 byte {c}", offset=pos)
        n = (n << 6) | (c - 63)
    return n, start + width


def parse_graph6(text: str | bytes) -> Graph:
    """Parse one graph6 line (short or extended size form).  Body bit p is
    the pair (i, j), i < j, with p = j(j-1)/2 + i; padding bits are ignored.
    Text must be ASCII: any other character is a ``ParseError``."""
    if isinstance(text, str):
        if not text.isascii():
            at = next(i for i, c in enumerate(text) if not c.isascii())
            raise ParseError(f"non-ASCII character {text[at]!r} at offset {at} "
                             "in graph6 input", offset=at)
        text = text.encode("ascii")
    data = text.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise ParseError("empty graph6 input", offset=0)
    n, pos = _g6_number(data, 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {nbytes}", offset=pos)
    if body.translate(None, _G6_BYTES):
        bad = re.search(rb"[^\x3f-\x7e]", body)
        raise ParseError(f"invalid graph6 byte {body[bad.start()]}",
                         offset=pos + bad.start())
    edges = []
    marks, k = body.translate(_G6_SET), -1
    while (k := marks.find(1, k + 1)) >= 0:
        for b in _G6_BITS[body[k]]:
            p = 6 * k + b
            if p < nbits:
                j = (1 + isqrt(8 * p + 1)) // 2
                edges.append((p - j * (j - 1) // 2, j))
    return Graph(n, edges)


#: for ``bytes.translate``: the graph6 body bytes (63-126); 0 for "?", else 1
_G6_BYTES, _G6_SET = bytes(range(63, 127)), bytes(c != 63 for c in range(256))
#: for each body byte, the positions b (0 = most significant) of its set bits
_G6_BITS = [tuple(b for b in range(6) if (c - 63) & (32 >> b))
            if 63 <= c <= 126 else () for c in range(256)]


#: adds 63 to every 6-bit value, for ``bytes.translate``
_G6_SHIFT = bytes((b + 63) % 256 for b in range(256))


def to_graph6(g: Graph) -> str:
    """Serialize in canonical graph6 (shortest size form, zero padding)."""
    n = g.n
    if n <= 62:
        header = [n + 63]
    elif n <= 258047:
        header = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    else:
        header = [126, 126] + [63 + ((n >> (6 * k)) & 63) for k in range(5, -1, -1)]
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges():
        p = j * (j - 1) // 2 + i
        body[p // 6] |= 32 >> (p % 6)
    return (bytes(header) + body.translate(_G6_SHIFT)).decode("ascii")


# ---------------------------------------------------------------------------
# edge list
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Whitespace-separated edge list.

    Each nonblank, non-``#`` line holds either two tokens (an edge) or one
    token (an isolated-vertex declaration).  Tokens become vertex ids in
    first-appearance order; original tokens are kept as names.
    """
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        toks = line.split()
        if len(toks) == 2:
            u = ids.setdefault(toks[0], len(ids))
            v = ids.setdefault(toks[1], len(ids))
            if u == v:
                raise ValidationError(
                    f"self-loop '{toks[0]} {toks[1]}' on line {lineno}", edge=(u, v))
            edges.append((u, v))
        elif len(toks) == 1:
            ids.setdefault(toks[0], len(ids))
        elif toks:
            raise ParseError(f"expected 1 or 2 tokens on line {lineno}",
                             offset=lineno)
    return Graph(len(ids), edges, list(ids))


def to_edge_list(g: Graph) -> str:
    """Canonical edge-list form: all vertices declared, then sorted edges."""
    lines = [g.name_of(v) for v in range(g.n)]
    lines += [f"{g.name_of(u)} {g.name_of(v)}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# DIMACS .col
# ---------------------------------------------------------------------------

def parse_dimacs(text: str) -> Graph:
    """DIMACS ``p edge n m`` / ``e u v`` format with 1-based vertices, named
    ``str(v)``; ``c`` lines are comments.  A ``p`` or ``e`` line whose fields
    are not all there, whose numbers are not ASCII decimal digits (checked
    before any is converted), or that holds a number longer than ``int()``
    converts, is a ``ParseError`` naming the line."""
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        if toks[0] == "p":
            if n is not None:
                raise ParseError(f"duplicate 'p' line at line {lineno}", offset=lineno)
            if not re.fullmatch(r"p (edges?|col) [0-9]+ [0-9]+", " ".join(toks)):
                raise ParseError(f"bad 'p' line at line {lineno}", offset=lineno)
            n, declared_m = _dimacs_numbers(toks[2:], lineno)
        elif toks[0] == "e":
            if n is None:
                raise ParseError(f"'e' line before 'p' at line {lineno}", offset=lineno)
            if not re.fullmatch(r"e [0-9]+ [0-9]+", " ".join(toks)):
                raise ParseError(f"bad 'e' line at line {lineno}", offset=lineno)
            u, v = _dimacs_numbers(toks[1:], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex out of range on line {lineno}", offset=lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {toks[0]!r} at line {lineno}",
                             offset=lineno)
    if n is None:
        raise ParseError("missing 'p edge' header", offset=0)
    if declared_m != len(edges):
        raise ParseError(f"header declares {declared_m} edges, found {len(edges)}",
                         offset=0)
    return Graph(n, edges, range(1, n + 1))


def _dimacs_numbers(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:  # past int()'s digit limit
        raise ParseError(f"number too long on line {lineno}",
                         offset=lineno) from None


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


#: format name -> (reader, writer), as names looked up in this module at
#: each call, so a wrapper set on the module attribute sees every call
_CODECS = {"graph6": ("parse_graph6", "to_graph6"),
           "edgelist": ("parse_edge_list", "to_edge_list"),
           "dimacs": ("parse_dimacs", "to_dimacs")}
FORMATS = tuple(_CODECS)


def _codec(fmt: str, side: int) -> Callable:
    if fmt not in _CODECS:
        raise ParseError(f"unknown format {fmt!r}")
    return globals()[_CODECS[fmt][side]]


def sniff_format(text: str) -> str:
    """Guess the format from the first nonblank line.  Plain graph6 is a
    whole text of one whitespace-free line whose size header parses and
    whose length fits that size, whatever its body characters are: a bad
    one is then reported by ``parse_graph6``, not read as an edge list.

    Every line break is whitespace, so the stripped text's first token
    ``head`` is that line's first token, and the line holds ``head`` alone
    when the whitespace ``gap`` after it breaks the line or nothing follows.
    """
    t = text.strip()
    head, *rest = t.split(None, 1) or [""]
    gap = t[len(head):len(t) - len(rest[0])] if rest else ""
    alone = gap.splitlines() != [gap]
    if (head == "c" and (alone or gap[0] in " \t")
            or head == "p" and not alone and gap[0] == " "):
        return "dimacs"
    if t.startswith(">>graph6<<"):
        return "graph6"
    if not rest:
        try:
            # the header is at most 8 characters; any non-ASCII one
            # encodes to bytes the header cannot hold
            n, pos = _g6_number(t[:8].encode(), 0)
        except ParseError:
            return "edgelist"
        if len(t) - pos == (n * (n - 1) // 2 + 5) // 6:
            return "graph6"
    return "edgelist"


def parse_graph(text: str | bytes, fmt: str = "auto") -> Graph:
    """Parse ``text`` in ``fmt``, one of ``FORMATS`` or 'auto' (sniffed).
    Bytes are decoded here, as UTF-8, once for every format."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    if fmt == "auto":
        fmt = sniff_format(text)
    return _codec(fmt, 0)(text)


def serialize_graph(g: Graph, fmt: str) -> str:
    return _codec(fmt, 1)(g)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def bfs_order(g: Graph, root: int, free: set[int]) -> list[int]:
    """The vertices reachable from ``root`` through ``free``, in BFS order
    with neighbours in adjacency order.  Each is removed from ``free`` as it
    is reached, ``root`` first, so one call from each vertex still free
    splits ``free`` into the components of G[free]."""
    free.discard(root)
    order = [root]
    for u in order:  # grows while it is walked: a BFS queue
        for w in g.adj[u]:
            if w in free:
                free.remove(w)
                order.append(w)
    return order


def peel_2core(g: Graph, deg: list[int] | dict[int, int],
               gone: list[bool] | dict[int, bool], stack: list[int]) -> None:
    """Delete the vertices on ``stack``, then every vertex whose degree
    falls to 1.  ``gone`` marks the deleted vertices and ``deg`` counts each
    vertex's neighbours not yet deleted; both are updated in place, and
    mappings serve as well as lists if they answer for every vertex the
    peel reaches.  If the stack holds every vertex left of degree at most 1,
    the vertices left afterwards are the 2-core of what was left less the
    stack."""
    while stack:
        v = stack.pop()
        gone[v] = True
        for w in g.adj[v]:
            if not gone[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)


def forest_cycle(g: Graph, within: Iterable[int]) -> tuple[int, ...] | None:
    """A cycle of G[within] in walk order, or ``None`` if G[within] is a
    forest.

    G[within] is a forest exactly when peeling it to its 2-core leaves
    nothing.  Every vertex left has two neighbours left, so a walk from the
    first vertex of ``within`` left that never steps straight back meets a
    vertex again, and the walk from there on is a cycle of at least three
    vertices.  The cost is linear in the degrees of ``within``, not in n."""
    inside = dict.fromkeys(within, False)  # within's order, without repeats
    gone = defaultdict(lambda: True, inside)  # every vertex outside is gone
    deg = {v: sum(map(inside.__contains__, g.adj[v])) for v in inside}
    peel_2core(g, deg, gone, [v for v, d in deg.items() if d <= 1])
    start = next((v for v in inside if not gone[v]), None)
    if start is None:
        return None
    walk, at, prev = [start], {start: 0}, -1
    while True:
        nxt = next(w for w in g.adj[walk[-1]] if w != prev and not gone[w])
        if nxt in at:
            return tuple(walk[at[nxt]:])
        at[nxt], prev = len(walk), walk[-1]
        walk.append(nxt)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or ``INFINITY`` for forests.

    Vertices of degree at most 1 lie on no cycle and are peeled away, which
    leaves the 2-core.  Each vertex left becomes a BFS root in turn and is
    deleted once its BFS is done.  A non-tree edge (u, w) seen from root r
    witnesses a closed walk of length dist(u)+dist(w)+1 containing a cycle
    no longer than that, and a cycle of a subgraph is a cycle of G.  Let r
    be the first vertex of a shortest cycle C to become a root: no vertex of
    C has been deleted before, so C is intact and the BFS from r attains
    |C|.  A BFS stops once 2*dist(u) >= best, as no shorter cycle through r
    lies further out.  A non-tree edge is scored from its endpoint nearer
    r, or from both when they are equally far, so no parent array is needed.
    """
    deg = g.degrees()
    gone = [False] * g.n
    best: int | float = INFINITY
    peel_2core(g, deg, gone, [v for v in range(g.n) if deg[v] <= 1])
    for root in range(g.n):
        if gone[root]:
            continue
        dist = {root: 0}
        q = deque([root])
        while q:
            u = q.popleft()
            if 2 * dist[u] >= best:
                break
            for w in g.adj[u]:
                if gone[w]:
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
                elif dist[w] >= dist[u]:
                    best = min(best, dist[u] + dist[w] + 1)
        peel_2core(g, deg, gone, [root])
    return best


@per_graph
def find_pendent_cycles(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All pendent cycles, each reported once, apexes ascending.

    A pendent cycle is the tuple ``(apex, x1, ..., xk)``: the apex, of
    degree at least 3, then the cycle's 2-vertices in walk order, so its
    ``len`` is the cycle's length and ``c[1:]`` its 2-vertices.  A
    free-standing cycle (every vertex of degree 2) is not pendent."""
    out = []
    used: set[int] = set()
    for apex in range(g.n):
        if g.degree(apex) < 3:
            continue
        for start in g.adj[apex]:
            if g.degree(start) != 2 or start in used:
                continue
            walk = [start]
            prev, cur = apex, start
            closed = False
            while True:
                nxt = next(w for w in g.adj[cur] if w != prev)
                if nxt == apex:
                    closed = True
                    break
                if g.degree(nxt) != 2 or nxt in used:
                    break
                prev, cur = cur, nxt
                walk.append(cur)
            if closed and len(walk) >= 2:
                used.update(walk)
                out.append((apex, *walk))
    return tuple(out)


def find_pendent_triangles(g: Graph) -> list[tuple[int, ...]]:
    """Pendent 3-cycles: triangles with exactly two degree-2 vertices."""
    return [c for c in find_pendent_cycles(g) if len(c) == 3]


@per_graph
def triangle_split(g: Graph) -> Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """For each apex of a pendent triangle (a read-only mapping), the pair
    ``(twos, rest)``: ``twos`` the triangles' 2-vertices pair by pair, each
    pair and the pairs ascending, and ``rest`` the apex's other neighbours
    ascending.  ``twos[0::2]`` is the least 2-vertex of each triangle and
    ``len(twos) // 2`` the number of triangles."""
    twos: dict[int, tuple[int, ...]] = {}
    for apex, x, y in sorted((a, min(x, y), max(x, y))
                             for a, x, y in find_pendent_triangles(g)):
        twos[apex] = twos.get(apex, ()) + (x, y)
    return MappingProxyType({a: (ts, tuple(u for u in g.adj[a] if u not in ts))
                             for a, ts in twos.items()})


def double_triangle_edges(apex: int, base: int) -> list[tuple[int, int]]:
    """The edges of two pendent triangles at ``apex`` on the vertices
    ``base, base + 1`` and ``base + 2, base + 3``."""
    a, b, c, d = base, base + 1, base + 2, base + 3
    return [(apex, a), (apex, b), (a, b), (apex, c), (apex, d), (c, d)]


class VertexClass(Enum):
    """The vertex taxonomy used by the discharging analysis.

    W2: 2-vertex not on a pendent triangle.
    W3: 3-vertex with (at least) two 2-neighbors.
    W4: 4-vertex on exactly one pendent triangle.
    W5: 5-vertex on two pendent triangles.
    Vk: k-vertex not in Wk, for k in 3..6 (V6 is every 6-vertex).
    T2: 2-vertex on a pendent triangle.
    OTHER: anything else (degree <= 1 or >= 7).
    """

    W2 = "W2"
    W3 = "W3"
    W4 = "W4"
    W5 = "W5"
    V3 = "V3"
    V4 = "V4"
    V5 = "V5"
    V6 = "V6"
    T2 = "T2"
    OTHER = "Other"


_W = VertexClass
W23 = frozenset((_W.W2, _W.W3))
W25 = frozenset((_W.W2, _W.W5))
W235 = W23 | W25
W2345 = W235 | {_W.W4}
#: V4+: every 4-, 5- and 6-vertex outside W4 and W5
V4P = frozenset((_W.V4, _W.V5, _W.V6))


@per_graph
def classify_vertices(g: Graph) -> tuple[VertexClass, ...]:
    """Assign every vertex its taxonomy class (a total, disjoint labeling)."""
    split = triangle_split(g)
    on_tri_2 = {x for twos, _ in split.values() for x in twos}
    out = []
    for v in range(g.n):
        d = g.degree(v)
        ntri = len(split[v][0]) // 2 if v in split else 0
        if d == 2:
            out.append(VertexClass.T2 if v in on_tri_2 else VertexClass.W2)
        elif d == 3:
            two_nbrs = sum(1 for u in g.adj[v] if g.degree(u) == 2)
            out.append(VertexClass.W3 if two_nbrs >= 2 else VertexClass.V3)
        elif d == 4:
            out.append(VertexClass.W4 if ntri == 1 else VertexClass.V4)
        elif d == 5:
            out.append(VertexClass.W5 if ntri == 2 else VertexClass.V5)
        elif d == 6:
            out.append(VertexClass.V6)
        else:
            out.append(VertexClass.OTHER)
    return tuple(out)
