"""Shipped concrete instances, one per configuration, on which the
lemma-extension check passes non-vacuously.

Each builder returns (graph, roles) where ``roles`` identifies the intended
match among ``scan_configs`` results.  The instances are deliberately small:
the reduced graph H stays tiny so exhaustive partition enumeration is cheap,
and outer vertices are placed so every H-partition extends over labelings
of the deleted set alone.  Where that requires pinning an outer vertex to
the forest part, the instance embeds the double-triangle chain that forces
it (see ``fii.lemma_forcing_patterns``).
"""

from __future__ import annotations

from .configs import attach_gadget, scan_configs
from .graphs import Graph, double_triangle_edges


def instance_c1() -> tuple[Graph, dict]:
    return Graph(2, [(0, 1)]), {"v": 0}


def instance_c2() -> tuple[Graph, dict]:
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    return g, {"u": 2, "v": 3}


def instance_c3() -> tuple[Graph, dict]:
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    return g, {"v": 0}


def instance_c4() -> tuple[Graph, dict]:
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    return g, {"v": 0, "t1": 1, "t2": 2}


def instance_c5() -> tuple[Graph, dict]:
    g = Graph(10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
                   (2, 6), (3, 7), (4, 8), (5, 9)])
    return g, {"x": 0, "y": 1}


def instance_c6() -> tuple[Graph, dict]:
    g = Graph(9, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (2, 6),
                  (5, 7), (6, 8)])
    return g, {"v": 0, "v1": 1, "v2": 2}


def instance_c7() -> tuple[Graph, dict]:
    g = Graph(12, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7),
                   (4, 8), (5, 9), (6, 10), (7, 11)])
    return g, {"v": 0, "v1": 1, "v2": 2}


def instance_c8() -> tuple[Graph, dict]:
    g = Graph(9, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4),
                  (3, 5), (3, 6), (5, 7), (6, 8)])
    return g, {"v": 0, "v1": 3}


def instance_c9() -> tuple[Graph, dict]:
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (5, 6)])
    return attach_gadget(g, 6, ("j2",)), {"v": 0, "v1": 5}


def instance_c10() -> tuple[Graph, dict]:
    g = Graph(9, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                  (0, 5), (0, 6), (5, 6), (0, 7), (7, 8)])
    return attach_gadget(g, 8, ("j2",)), {"v": 0, "v1": 7}


def instance_cp1() -> tuple[Graph, dict]:
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (3, 5)])
    return g, {"cycle": (0, 1, 2, 3)}


def instance_cp2() -> tuple[Graph, dict]:
    g = Graph(9, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5),
                  (3, 6), (4, 7), (5, 8)])
    return g, {"cycle": (0, 1, 2)}


def instance_cp3() -> tuple[Graph, dict]:
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 6),
             *double_triangle_edges(1, 7), *double_triangle_edges(2, 11)]
    return Graph(15, edges), {"v": 0}


def instance_cp4() -> tuple[Graph, dict]:
    g = Graph(9, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5),
                  (3, 6), (4, 7), (5, 8)])
    return g, {"v": 0}


def instance_cp5() -> tuple[Graph, dict]:
    g = Graph(9, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                  (0, 5), (0, 6), (5, 7), (6, 8)])
    return g, {"v": 0, "u1": 5, "u2": 6}


INSTANCES = {
    "C1": instance_c1,
    "C2": instance_c2,
    "C3": instance_c3,
    "C4": instance_c4,
    "C5": instance_c5,
    "C6": instance_c6,
    "C7": instance_c7,
    "C8": instance_c8,
    "C9": instance_c9,
    "C10": instance_c10,
    "Cp1": instance_cp1,
    "Cp2": instance_cp2,
    "Cp3": instance_cp3,
    "Cp4": instance_cp4,
    "Cp5": instance_cp5,
}


def shipped_instance(config_id: str) -> tuple[Graph, dict]:
    return INSTANCES[config_id]()


def shipped_match(config_id: str):
    """The intended ConfigMatch on the shipped instance for ``config_id``."""
    g, roles = shipped_instance(config_id)
    for match in scan_configs(g, (config_id,)):
        if all(match.role(k) == v for k, v in roles.items()):
            return g, match
    raise RuntimeError(f"shipped instance for {config_id} has no intended match")
