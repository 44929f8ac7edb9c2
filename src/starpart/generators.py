"""Graph family constructors and test corpora.

``gen_g5n`` builds the tightness family: a 5n-cycle with two pendent
triangles attached at three of every five consecutive cycle vertices.  It
has 17n vertices, 23n edges, maximum average degree exactly 46/17, and no
FII-partition.  ``gen_mad_bounded`` produces random graphs under an exact
density cap p/q by rejection sampling: it keeps an orientation of the edges,
each taken 2q times, with every indegree at most p, which by Hakimi's theorem
exists exactly when mad <= p/q, and updates it at each insertion with
``density.place_units`` and one dead set kept for the whole run.  A pair
with both ends in the dead set D_t left by some earlier failed search t is
rejected without a search, because D_t is a tight set:

- D_t is closed and full, so p|D_t| - 2q|E(D_t)| is the units the failed
  candidate had placed, fewer than 2q;
- kept edges only add to E(D_t), so that slack never grows;
- so D_t plus any further edge inside it has slack below 0: mad > p/q.

Each fixed family checks its vertex count with ``graphs.check_vertex_count``
before it builds an edge list.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .graphs import Graph, GraphError, check_vertex_count, double_triangle_edges
from . import density


def gen_cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycle needs at least 3 vertices")
    check_vertex_count(k)
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def gen_path(k: int) -> Graph:
    if k < 1:
        raise GraphError("path needs at least 1 vertex")
    check_vertex_count(k)
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def gen_complete(k: int) -> Graph:
    check_vertex_count(k)
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def gen_star(leaves: int) -> Graph:
    check_vertex_count(leaves + 1)
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def gen_tree_random(n: int, seed: int) -> Graph:
    """Random tree: vertex i >= 1 hangs off a uniformly chosen earlier vertex."""
    if n < 1:
        raise GraphError("tree needs at least 1 vertex")
    check_vertex_count(n)
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def gen_g5n(n: int) -> Graph:
    """The tightness family: 5n-cycle, two pendent triangles on v_i whenever
    i mod 5 is 1, 2, or 3.

    Vertex numbering is stable for certificates: cycle vertices 0..5n-1
    first, then triangle vertices in (cycle position, first, second) order.
    """
    if n < 1:
        raise GraphError("n must be positive")
    check_vertex_count(17 * n)
    cyc = 5 * n
    edges = [(i, (i + 1) % cyc) for i in range(cyc)]
    nxt = cyc
    for i in range(cyc):
        if i % 5 in (1, 2, 3):
            edges += double_triangle_edges(i, nxt)
            nxt += 4
    g = Graph(nxt, edges)
    assert g.n == 17 * n and g.edge_count == 23 * n
    return g


#: a str bound's exponent as ``Fraction`` reads it (e or E, a sign, digits),
#: which it expands in full: past int()'s default digit limit it is refused
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_MAX_EXPONENT = 4300


def _density_cap(bound: Fraction | str) -> Fraction:
    exp = _EXPONENT.search(bound) if isinstance(bound, str) else None
    try:
        if exp and abs(int(exp[1])) > _MAX_EXPONENT:
            raise GraphError(f"bound {bound!r}: exponent beyond {_MAX_EXPONENT} "
                             "in magnitude")
        bound = Fraction(bound)
    except ZeroDivisionError as exc:
        raise GraphError(f"bad bound {bound!r}: zero denominator") from exc
    except ValueError as exc:  # the above, no p/q, or past int()'s limit
        raise GraphError(str(exc)) from exc
    if bound < 1:
        raise GraphError("bound must be at least 1")
    return bound


def gen_mad_bounded(n: int, bound: Fraction | str, seed: int) -> Graph:
    """Random graph on n vertices with mad <= bound = p/q, deterministic per
    seed.

    Shuffled candidate edges are kept exactly when mad stays <= p/q, which
    by Hakimi (1965, J. Franklin Inst. 279) holds iff the edges, each taken
    2q times, can be oriented with every indegree <= p.  Such an orientation
    of the kept edges is maintained as in Brodal & Fagerberg (1999):
    ``held[x][y]`` units of edge xy point at x, ``load[x]`` counts them.  A
    candidate (u, v) places its 2q units by ``density.place_units``, which
    is max-flow: all fit iff min over K >= {u,v} of p|K| - 2q|E(K)| >= 2q.
    A rejected edge takes its units back; the paths shifted for it stay
    valid, and ``density.release`` frees the endpoints that regain room.
    Every one of the n(n-1)/2 pairs is tried.

    A pair with both ends in D_t, the dead set right after the t-th failed
    search, is rejected without a search, and no decision changes:

    - D_t is closed and full, so its slack p|D_t| - 2q|E(D_t)| is the units
      the failed candidate had placed, less than 2q;
    - kept edges only lower a fixed set's slack;
    - so an edge inside D_t would leave it with negative slack.

    Each vertex's memberships form runs of consecutive t: ``runs[x]`` has
    bit t set for each t of a closed run, ``since[x]`` starts the open run
    (``ALIVE`` if x is not dead now) and ``ended[x]`` is where the last run
    ended (``DEAD`` while one is open).  A pair shares some D_t iff both
    ends are dead now, or one is dead since s and the other's last run ended
    at or after s, which ``ended[u] >= since[v]`` tests either way round, or
    their closed runs meet.  The runs change only where the dead set does,
    as ``place_units`` and ``release`` report it.
    """
    bound = _density_cap(bound)
    p, units = bound.numerator, 2 * bound.denominator
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    held: list[dict[int, int]] = [{} for _ in range(n)]
    load = [0] * n
    edges: list[tuple[int, int]] = []
    dead: set[int] = set()
    # every failure index t is at most len(pairs) < DEAD < ALIVE
    DEAD, ALIVE = len(pairs) + 1, len(pairs) + 2
    runs = [0] * n
    since = [ALIVE] * n
    ended = [-1] * n
    t = 0
    for u, v in pairs:
        if ended[u] >= since[v] or ended[v] >= since[u] or runs[u] & runs[v]:
            continue
        (at_u, at_v), reached = density.place_units(held, load, p, (u, v),
                                                    units, dead)
        if at_u + at_v == units:
            held[u][v], held[v][u] = at_u, at_v
            edges.append((u, v))
            continue
        t += 1
        for x in reached:
            since[x], ended[x] = t, DEAD
        load[u] -= at_u
        load[v] -= at_v
        for x in density.release(held, [x for x, at in ((u, at_u), (v, at_v)) if at],
                                 dead):
            runs[x] |= (2 << t) - (1 << since[x])
            since[x], ended[x] = ALIVE, t
    g = Graph(n, edges)
    assert density.mad_le(g, bound)
    return g


def check_corpus_args(count: int, n_max: int,
                      bound: Fraction | str) -> Fraction:
    """``bound`` as a Fraction, after checking the arguments of
    :func:`gen_corpus`: a negative ``count``, an ``n_max`` below 4 or a
    ``bound`` that is no fraction of at least 1 raises ``GraphError``."""
    if count < 0:
        raise GraphError(f"corpus count must be non-negative, got {count}")
    if n_max < 4:
        raise GraphError(f"corpus n_max must be at least 4, got {n_max}")
    return _density_cap(bound)


def gen_corpus(count: int, n_max: int, bound: Fraction | str,
               seed: int) -> Iterator[tuple[str, Graph]]:
    """A deterministic corpus of mad-bounded random graphs, sizes cycling
    through 4..n_max.  Bad arguments (see :func:`check_corpus_args`) raise
    ``GraphError`` when the corpus is first iterated."""
    bound = check_corpus_args(count, n_max, bound)
    rng = random.Random(seed)
    for i in range(count):
        n = 4 + i % (n_max - 3)
        yield f"corpus-{i:04d}-n{n}", gen_mad_bounded(n, bound, rng.randrange(2**31))
