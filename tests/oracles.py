"""Reference answers the tests judge the engines by, written from the
definitions in the README.

Each reference reads only a graph's ``n`` and its edges, and shares no code
with the engine it checks: FI_k-partitions and star colourings are judged by
``perfbench/checkers.py``, which imports nothing from starpart, and mad and
rho* are read off a table of |E(S)| for every vertex subset S.
"""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

from starpart.graphs import Graph

_spec = importlib.util.spec_from_file_location(
    "checkers", Path(__file__).resolve().parent.parent / "perfbench" / "checkers.py")
checkers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checkers)

#: the largest graph a subset table is built for
SUBSET_LIMIT = 24


def random_graph(rng, n, p):
    """Each pair u < v, in order, is an edge when ``rng.random() < p``."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def edge_counts(g):
    """|E(S)| for every vertex subset S, indexed by bitmask."""
    assert g.n <= SUBSET_LIMIT, g.n
    nbr = [0] * g.n
    for u, v in g.edges():
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    table = [0] * (1 << g.n)
    for mask in range(1, len(table)):
        low = mask & -mask
        rest = mask ^ low
        table[mask] = table[rest] + (nbr[low.bit_length() - 1] & rest).bit_count()
    return table


def mad(g) -> Fraction:
    """max 2|E(S)|/|S| over the nonempty vertex sets S."""
    return checkers.mad_of_table(edge_counts(g))


def rho_star(g, seed=()) -> int:
    """min of rho(K) = 4|K| - 3|E(K)| over the sets K that contain ``seed``."""
    seed_mask = sum(1 << v for v in set(seed))
    return checkers.rho_min_of_table(edge_counts(g), seed_mask)


def rho_star_table(g) -> list[int]:
    """``rho_star`` for every seed, indexed by bitmask: each entry is the
    least rho over its supersets, one added vertex at a time."""
    table = [4 * mask.bit_count() - 3 * e for mask, e in enumerate(edge_counts(g))]
    for b in range(g.n):
        bit = 1 << b
        for mask in range(len(table)):
            if not mask & bit and table[mask | bit] < table[mask]:
                table[mask] = table[mask | bit]
    return table


def count_fi(g, k=2) -> int:
    """The FI_k-partitions among all (k+1)^n labelings with F, I1, ..., Ik."""
    edges = list(g.edges())
    names = ["F", *(f"I{j}" for j in range(1, k + 1))]
    return sum(checkers.fi_violation(g.n, edges, labels) is None
               for labels in itertools.product(names, repeat=g.n))


def chi_s(g) -> int:
    """The least k with a star k-colouring among all k^n colourings; 0 for
    the graph on no vertices."""
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        if any(checkers.star_violation(g.n, edges, colors) is None
               for colors in itertools.product(range(k), repeat=g.n)):
            return k
    return 0
