import hashlib
import random
import re
import time
import types

import pytest

from starpart.graphs import (FORMATS, BudgetExhausted, Graph, GraphError,
                             ParseError, ValidationError, VertexClass, INFINITY,
                             check_deadline, check_vertices, classify_vertices,
                             find_pendent_cycles, forest_cycle,
                             find_pendent_triangles, girth, parse_edge_list,
                             parse_dimacs, parse_graph, parse_graph6,
                             serialize_graph, sniff_format, to_dimacs,
                             to_edge_list, to_graph6, balls2, neighbor_sets,
                             triangle_split, _g6_number)
from starpart.generators import gen_cycle, gen_g5n, gen_path
from starpart.fii import _branch_orders
from oracles import random_graph


# -- construction invariants -------------------------------------------------

def test_check_vertices_names_the_first_bad_vertex_in_order():
    g = gen_cycle(3)
    assert check_vertices(g, iter([2, 0, 2])) == (2, 0, 2)
    assert check_vertices(g, ()) == ()
    for vs, what, detail in (([1, 5, -1], "vertex", "vertex 5 out of range 0..2"),
                             ([-1, 5], "deleted vertex",
                              "deleted vertex -1 out of range 0..2")):
        with pytest.raises(GraphError, match=f"^{re.escape(detail)}$"):
            check_vertices(g, vs, what)
    with pytest.raises(GraphError, match=r"^vertex 0 out of range 0\.\.-1$"):
        check_vertices(Graph(0, []), [0])


def test_check_vertices_rejects_what_is_not_an_integer():
    # named as it is, before any comparison with the range could raise
    g = gen_cycle(3)
    for vs, detail in ((["r"], "mod vertex 'r' is not an integer"),
                       ([0, 1.0], "mod vertex 1.0 is not an integer"),
                       ([1, None, 9], "mod vertex None is not an integer")):
        with pytest.raises(GraphError, match=f"^{re.escape(detail)}$"):
            check_vertices(g, vs, "mod vertex")


def test_check_deadline():
    check_deadline(None)
    check_deadline(time.monotonic() + 60)
    with pytest.raises(BudgetExhausted, match="^time budget ran out$"):
        check_deadline(time.monotonic() - 1)
    assert not issubclass(BudgetExhausted, GraphError)


def test_simplicity_rejected():
    with pytest.raises(ValidationError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValidationError, match=r"^duplicate edge \(1, 0\)$") as exc:
        Graph(3, [(0, 1), (1, 2), (1, 0)])
    assert exc.value.edge == (1, 0)
    # the first offending edge in input order is the one reported
    with pytest.raises(ValidationError, match="^duplicate") as exc:
        Graph(3, [(0, 1), (0, 1), (0, 7)])
    assert exc.value.edge == (0, 1)
    with pytest.raises(ValidationError, match="out of range") as exc:
        Graph(3, [(0, 1), (0, 7), (0, 1)])
    assert exc.value.edge == (0, 7)
    with pytest.raises(ValidationError, match="^self-loop at vertex 2$") as exc:
        Graph(3, [(0, 1), (2, 2), (1, 0)])
    assert exc.value.edge == (2, 2)


def test_adjacency_sorted_and_symmetric():
    g = Graph(4, [(2, 1), (3, 0), (1, 0)])
    assert g.adj[1] == (0, 2)
    for u in range(g.n):
        for v in g.adj[u]:
            assert u in g.adj[v]
    assert g.edge_count == 3
    assert sum(g.degrees()) == 2 * g.edge_count


# -- graph6 -------------------------------------------------------------------

def test_graph6_known_values():
    # 5-vertex graphs in the standard encoding round-trip byte for byte
    for s in ("D?{", "DQo", "D~{", "?", "@", "A_", "A?"):
        g = parse_graph6(s)
        assert to_graph6(g) == s


def test_graph6_header_and_errors():
    g = parse_graph6(">>graph6<<Bw")
    assert g.n == 3 and g.edge_count == 3
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("B")          # truncated body
    err = None
    try:
        parse_graph6("B" + chr(20))
    except ParseError as exc:
        err = exc
    assert err is not None and err.offset is not None
    # a non-ASCII character is named, never read as some body byte, even
    # where the body would then have the wrong length
    for text, at in (("DQ\u00e9", 2), ("D?\u00e9{", 2), ("\u00e9", 0)):
        with pytest.raises(ParseError, match=f"non-ASCII character '\u00e9' "
                                             f"at offset {at}") as exc:
            parse_graph6(text)
        assert exc.value.offset == at


def test_graph6_extended_form():
    rng = random.Random(0)
    g = random_graph(rng, 70, 0.05)
    s = to_graph6(g)
    assert s.startswith(chr(126))
    assert parse_graph6(s) == g


def _graph6_body_reference(g):
    """The graph6 body by the definition: one bit per pair in column order,
    zero-padded to whole 6-bit groups, each group plus 63."""
    bits = "".join("1" if g.has_edge(i, j) else "0"
                   for j in range(1, g.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(63 + int(bits[k:k + 6], 2))
                   for k in range(0, len(bits), 6))


def test_graph6_random_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert parse_graph6(to_graph6(g)) == g
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 70), rng.random() * 0.3)
        s = to_graph6(g)
        assert s[1 if g.n <= 62 else 4:] == _graph6_body_reference(g)
        assert parse_graph6(s) == g


def test_graph6_g5n_200_pinned():
    g = gen_g5n(200)
    s = to_graph6(g)
    assert hashlib.sha256(s.encode()).hexdigest() == \
        "9c15c314690de079ff2dabfd01d854c81f9526a45f50566d076767407ab65331"
    assert parse_graph6(s) == g


def test_graph6_header_switch_62_63():
    rng = random.Random(5)
    for n, lead in ((62, 62 + 63), (63, 126)):
        g = random_graph(rng, n, 0.1)
        s = to_graph6(g)
        assert ord(s[0]) == lead
        assert parse_graph6(s) == g
        assert parse_graph6(s.encode()) == g


def test_graph6_bad_byte_deep_in_body():
    s = bytearray(to_graph6(gen_g5n(200)).encode())
    s[500000] = 0x20
    with pytest.raises(ParseError) as exc:
        parse_graph6(bytes(s))
    assert str(exc.value) == "invalid graph6 byte 32"
    assert exc.value.offset == 500000


def test_graph6_padding_bits_ignored():
    # n=5 has 10 pair bits in 2 body bytes: the last 2 bits are padding
    star = parse_graph6("D?{")
    assert parse_graph6("D?~") == star and parse_graph6("D?}") == star
    assert to_graph6(parse_graph6("Dr~")) == "Dr{"


def test_graph6_bytes_input():
    g = gen_g5n(1)
    assert parse_graph6(to_graph6(g).encode() + b"\n") == g
    assert parse_graph6(b">>graph6<<Bw").edge_count == 3


# -- edge list / dimacs -------------------------------------------------------

def test_edge_list_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0\n")
    assert g.n == 3 and g.edge_count == 3
    assert girth(g) == 3


def test_edge_list_self_loop_rejected():
    with pytest.raises(ValidationError):
        parse_edge_list("0 1\n3 3\n")


def test_edge_list_names_and_isolated():
    g = parse_edge_list("alpha beta\ngamma\n# comment\nbeta gamma\n")
    assert g.n == 3
    assert g.names == ("alpha", "beta", "gamma")
    assert g.has_edge(1, 2)
    assert parse_edge_list(to_edge_list(g)) == g


def test_edge_list_ids_comments_and_messages():
    g = parse_edge_list("  b a # first edge\n\n# whole-line comment\nc\n"
                        "a c#tail\n\t\n")
    assert g.names == ("b", "a", "c")
    assert list(g.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(ParseError, match="^expected 1 or 2 tokens on line 3$") as exc:
        parse_edge_list("x y\n y z \nx y z\n")
    assert exc.value.offset == 3
    with pytest.raises(ValidationError, match="^self-loop 'q q' on line 3$") as exc:
        parse_edge_list("p q\n# c\nq  q # loop\n")
    assert exc.value.edge == (1, 1)
    with pytest.raises(ValidationError, match=r"^duplicate edge \(c, b\)$") as exc:
        parse_edge_list("a b\nb c\nc b\n")
    assert exc.value.edge == (2, 1)


def test_dimacs_round_trip():
    text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_dimacs(text)
    assert g.n == 4 and g.edge_count == 3
    assert parse_dimacs(to_dimacs(g)) == g
    with pytest.raises(ParseError):
        parse_dimacs("p edge 4 5\ne 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")
    # numbers are ASCII digits, checked before conversion
    for bad in ("x", "-3", "+3", "3_0", "3.5", "0x3", "\u0663"):
        for text in (f"p edge {bad} 0", f"p edge 3 {bad}"):
            with pytest.raises(ParseError, match="^bad 'p' line at line 1$"):
                parse_dimacs(text)
        with pytest.raises(ParseError, match="^bad 'e' line at line 2$"):
            parse_dimacs(f"p edge 3 1\ne 1 {bad}\n")
    # a number past int()'s 4300-digit limit
    long = "1" * 5000
    with pytest.raises(ParseError, match="^number too long on line 1$"):
        parse_dimacs(f"p edge {long} 0\n")
    with pytest.raises(ParseError, match="^number too long on line 2$"):
        parse_dimacs(f"p edge 3 1\ne 1 {long}\n")
    # messages use the 1-based labels; .edge keeps the internal ids
    with pytest.raises(ValidationError, match=r"^duplicate edge \(3, 2\)$") as exc:
        parse_dimacs("p edge 3 2\ne 2 3\ne 3 2\n")
    assert exc.value.edge == (2, 1)
    with pytest.raises(ValidationError, match="^self-loop at vertex 2$") as exc:
        parse_dimacs("p edge 3 1\ne 2 2\n")
    assert exc.value.edge == (1, 1)


def test_dimacs_needs_exactly_one_p_line():
    with pytest.raises(ParseError, match="^duplicate 'p' line at line 3$") as exc:
        parse_dimacs("p edge 2 1\ne 1 2\np edge 2 1\n")
    assert exc.value.offset == 3
    for text in ("", "c a comment only\n\n"):
        with pytest.raises(ParseError, match="^missing 'p edge' header$") as exc:
            parse_dimacs(text)
        assert exc.value.offset == 0


def test_parse_graph_reads_bytes_as_utf8_text():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    for fmt in FORMATS:
        text = serialize_graph(g, fmt)
        for how in (fmt, "auto"):
            assert parse_graph(text.encode(), how) == parse_graph(text, how) == g
    # the names of an edge list are decoded too
    named = parse_graph("\u00e9 b\n".encode(), "edgelist")
    assert named.names == ("\u00e9", "b")


def test_round_trip_all_formats():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        for fmt in FORMATS:
            assert parse_graph(serialize_graph(g, fmt), fmt) == g
    with pytest.raises(ParseError, match="^unknown format 'xml'$"):
        parse_graph("0 1\n", "xml")
    with pytest.raises(ParseError, match="^unknown format 'xml'$"):
        serialize_graph(g, "xml")


def test_sniff_format():
    assert sniff_format("p edge 3 1\ne 1 2\n") == "dimacs"
    assert sniff_format("0 1\n1 2\n") == "edgelist"
    assert sniff_format("D?{") == "graph6"
    g = parse_graph("D?{", "auto")
    assert g.n == 5
    line = to_graph6(gen_g5n(200))
    assert len(line) > 100_000
    assert sniff_format(line + "\n") == "graph6"
    assert sniff_format("0\n1 2\n") == "edgelist"
    # one line that fits its size header is graph6, whatever its body holds
    assert sniff_format("DQ\u00e9\n") == sniff_format("DQ!") == "graph6"
    assert sniff_format("\u00e9QQ\n") == sniff_format("DQ c") == "edgelist"
    # a lone name of letters is a vertex, not graph6 with the wrong body size
    assert sniff_format("gamma\nalpha beta\n") == "edgelist"
    assert sniff_format("gamma\n") == "edgelist"
    assert parse_graph("gamma\nalpha beta\n").names == ("gamma", "alpha", "beta")


def _sniff_reference(text):
    """The line-by-line rule ``sniff_format`` must keep."""
    for line in text.splitlines():
        s = line.strip()
        if not s:
            continue
        if s.startswith(("c ", "c\t", "p ")) or s == "c":
            return "dimacs"
        if s.startswith(">>graph6<<"):
            return "graph6"
        if s == text.strip() and not re.search(r"\s", s):
            try:
                n, pos = _g6_number(s[:8].encode(), 0)
            except ParseError:
                return "edgelist"
            if len(s) - pos == (n * (n - 1) // 2 + 5) // 6:
                return "graph6"
        return "edgelist"
    return "edgelist"


def test_sniff_format_keeps_the_line_by_line_rule():
    # str.split and re's \s take the same 29 code points as whitespace
    every = "".join(map(chr, range(0x110000)))
    whitespace = "".join(filter(str.isspace, every))
    assert len(whitespace) == 29 and re.sub(r"\S+", "", every) == whitespace
    # every line break is whitespace: the premise of the one-split rule
    breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
    assert all(len(f"a{b}a".splitlines()) == 2 for b in breaks)
    assert set(breaks) <= set(whitespace)
    pieces = [*whitespace, "\r\n", "c", "p", "e", "x", "0", "1", "~", "?",
              "\u00e9", "Bw", "C~", "D?{", "DQ", ">>graph6<<", "edge 3 1"]
    rng = random.Random(27)
    for _ in range(20_000):
        text = "".join(rng.choices(pieces, k=rng.randint(0, 7)))
        assert sniff_format(text) == _sniff_reference(text), repr(text)


# -- girth ---------------------------------------------------------------------

def _girth_oracle(g):
    """Shortest simple cycle via exhaustive path extension."""
    best = INFINITY
    def extend(start, path, seen):
        nonlocal best
        u = path[-1]
        for w in g.adj[u]:
            if w == start and len(path) >= 3:
                best = min(best, len(path))
            elif w > start and w not in seen and len(path) < best:
                seen.add(w)
                path.append(w)
                extend(start, path, seen)
                path.pop()
                seen.remove(w)
    for s in range(g.n):
        extend(s, [s], {s})
    return best


def test_girth_examples():
    assert girth(gen_cycle(3)) == 3
    assert girth(gen_path(4)) == INFINITY
    assert girth(gen_g5n(1)) == 3
    assert girth(gen_cycle(9)) == 9
    assert girth(Graph(1, [])) == INFINITY


def _with_pendant_trees(rng, g, extra):
    """``g`` with ``extra`` new vertices, each hung on an earlier vertex."""
    edges = [(rng.randrange(g.n + t), g.n + t) for t in range(extra)]
    return g.with_additions(extra, edges)


def test_girth_against_oracle():
    rng = random.Random(3)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert girth(g) == _girth_oracle(g)
    for _ in range(60):
        parts = [random_graph(rng, rng.randint(1, 6), rng.random())
                 for _ in range(rng.randint(2, 3))]
        g = parts[0]
        for h in parts[1:]:
            g = g.with_additions(h.n, [(u + g.n, v + g.n) for u, v in h.edges()])
        assert girth(g) == _girth_oracle(g) == min(map(_girth_oracle, parts))
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.random() * 0.6)
        g = _with_pendant_trees(rng, g, rng.randint(1, 5))
        assert girth(g) == _girth_oracle(g)


def test_girth_large_cycle():
    assert girth(gen_cycle(5000)) == 5000


def test_girth_two_cycles_joined_by_path():
    # C7 on 0..6 and C5 on 7..11, joined by the path 0-12-13-7
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
    edges += [(0, 12), (12, 13), (13, 7)]
    assert girth(Graph(14, edges)) == 5


def test_girth_forest():
    rng = random.Random(6)
    forest = _with_pendant_trees(rng, Graph(3, []), 40)
    assert forest_cycle(forest, range(forest.n)) is None
    assert girth(forest) == INFINITY


# -- pendent cycles and taxonomy ---------------------------------------------

def test_free_standing_triangle_not_pendent():
    assert find_pendent_triangles(gen_cycle(3)) == []


def test_bowtie_two_pendent_triangles():
    bow = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    tris = find_pendent_triangles(bow)
    assert len(tris) == 2
    assert all(t[0] == 0 for t in tris)


def test_g5_pendent_triangle_count():
    assert len(find_pendent_triangles(gen_g5n(1))) == 6
    assert len(find_pendent_triangles(gen_g5n(2))) == 12


def test_pendent_cycle_longer():
    # C5 hung on a degree-3 apex
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    cycles = find_pendent_cycles(g)
    assert len(cycles) == 1
    assert cycles[0] == (0, 1, 2, 3, 4) and len(cycles[0]) == 5
    assert find_pendent_triangles(g) == []


def test_pendent_cycle_record():
    # (apex, x1, ..., xk): len is the cycle's length, the apex has degree
    # at least 3 and every other vertex degree 2, consecutive vertices are
    # adjacent, and the value is immutable
    n = gen_g5n(1).n
    g = gen_g5n(1).with_additions(4, [(1, n), (n, n + 1), (n + 1, n + 2),
                                      (n + 2, n + 3), (n + 3, 1)])
    cycles = find_pendent_cycles(g)
    assert sorted(map(len, cycles)) == [3] * 6 + [5]
    for c in cycles:
        assert g.degree(c[0]) >= 3 and all(g.degree(x) == 2 for x in c[1:])
        assert all(g.has_edge(c[i - 1], c[i]) for i in range(len(c)))
    assert (1, n, n + 1, n + 2, n + 3) in cycles
    with pytest.raises(TypeError):
        cycles[0][0] = 0


def test_classify_examples():
    # degree-4 apex of a lone triangle with two extra pendant edges
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    cls = classify_vertices(g)
    assert cls[0] == VertexClass.W4
    assert cls[1] == cls[2] == VertexClass.T2

    # K_{1,3} with two of the three edges subdivided: center is W3
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5)])
    cls = classify_vertices(g)
    assert cls[0] == VertexClass.W3

    assert all(c == VertexClass.W2 for c in classify_vertices(gen_cycle(6)))


def test_classify_w5_and_v6():
    g5 = gen_g5n(1)
    cls = classify_vertices(g5)
    # cycle vertices with triangles have degree 6, plain ones degree 2
    assert cls[0] == VertexClass.W2
    assert cls[1] == VertexClass.V6
    w5 = Graph(10, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5),
                    (5, 6), (6, 7), (7, 8), (8, 9)])
    assert classify_vertices(w5)[0] == VertexClass.W5


def test_classify_is_total_and_consistent():
    rng = random.Random(4)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 11), rng.random() * 0.5)
        cls = classify_vertices(g)
        assert len(cls) == g.n
        tri2 = {t for c in find_pendent_triangles(g) for t in c[1:]}
        for v in range(g.n):
            d = g.degree(v)
            if d == 2:
                assert cls[v] in (VertexClass.W2, VertexClass.T2)
                assert (cls[v] == VertexClass.T2) == (v in tri2)
            elif d == 3:
                assert cls[v] in (VertexClass.W3, VertexClass.V3)
            elif d == 4:
                assert cls[v] in (VertexClass.W4, VertexClass.V4)
            elif d == 5:
                assert cls[v] in (VertexClass.W5, VertexClass.V5)
            elif d == 6:
                assert cls[v] == VertexClass.V6
            else:
                assert cls[v] == VertexClass.OTHER


def test_balls2():
    g = gen_path(5)
    assert balls2(g)[0] == frozenset({1, 2})
    assert balls2(g)[2] == frozenset({0, 1, 3, 4})


def test_induced_and_components():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    sub, keep = g.induced([0, 1, 2])
    assert sub.n == 3 and sub.edge_count == 2 and keep == [0, 1, 2]
    assert g.components() == [[0, 1, 2], [3, 4], [5]]
    assert forest_cycle(g, range(g.n)) is None
    assert forest_cycle(gen_cycle(4), range(4)) is not None


def _union_find_components(g, within):
    parent = {v: v for v in within}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edges():
        if u in parent and v in parent:
            parent[find(u)] = find(v)
    groups = {}
    for v in sorted(within):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def test_components_match_union_find():
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 14), rng.random() * 0.4)
        subsets = [None, [], list(range(g.n)),
                   [v for v in range(g.n) if rng.random() < 0.5]]
        for within in subsets:
            vs = range(g.n) if within is None else within
            assert g.components(within) == _union_find_components(g, set(vs))
        forest = g.edge_count + len(_union_find_components(g, set(range(g.n)))) == g.n
        assert (forest_cycle(g, range(g.n)) is None) == forest
    isolated = Graph(4, [(1, 2)])
    assert isolated.components([3, 0, 1]) == [[0], [1], [3]]
    assert isolated.components(iter([2, 1])) == [[1, 2]]


def test_forest_cycle_against_the_edge_count():
    # G[S] is a forest iff |E(G[S])| + #components(G[S]) == |S|
    rng = random.Random(34)
    cycles = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 14), rng.random() * 0.5)
        subsets = [[], list(range(g.n)), [v for v in range(g.n) if rng.random() < 0.6]]
        subsets += [[rng.randrange(g.n)]] if g.n else []
        for within in subsets:
            inside = set(within)
            m = sum(1 for u, v in g.edges() if u in inside and v in inside)
            forest = m + len(_union_find_components(g, inside)) == len(inside)
            cycle = forest_cycle(g, within)
            assert (cycle is None) == forest
            if cycle is not None:
                cycles += 1
                assert len(set(cycle)) == len(cycle) >= 3 and set(cycle) <= inside
                assert all(g.has_edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    assert cycles > 100
    # a path, a triangle with a tail and an isolated vertex: the walk starts
    # at the first vertex of within on the 2-core, and the tail is cut off
    g = Graph(8, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5), (5, 6)])
    assert forest_cycle(g, [0, 1, 2, 7, 6, 5]) is None
    assert forest_cycle(g, [7, 0, 6, 4, 3, 5]) == (4, 3, 5)
    assert forest_cycle(g, iter([5, 6, 4, 3])) == (5, 3, 4)


def test_per_graph_tables_are_built_once_and_immutable():
    n = gen_g5n(2).n
    g = gen_g5n(2).with_additions(3, [(0, n), (n, n + 1), (n + 1, n + 2), (n + 2, 0)])
    tables = {neighbor_sets: frozenset, balls2: frozenset,
              find_pendent_cycles: tuple,
              triangle_split: tuple, classify_vertices: VertexClass,
              _branch_orders: tuple}
    for table, item_type in tables.items():
        first = table(g)
        assert table(g) is first, table.__name__
        if table is triangle_split:
            assert isinstance(first, types.MappingProxyType) and first
            with pytest.raises(TypeError):
                first[0] = ()
            items = list(first.values())
        else:
            assert type(first) is tuple and first, table.__name__
            items = list(first)
        assert all(type(x) is item_type for x in items), table.__name__
    assert all(type(o) is int for order in _branch_orders(g) for o in order)
    assert balls2(Graph(g.n, g.edges())) is not balls2(g)


def test_construction_builds_no_tables():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g._memo == {}
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert list(g._memo) == [neighbor_sets.__wrapped__]


def test_has_edge_matches_adjacency():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        k = rng.randint(0, 3)
        grown = g.with_additions(k, [(rng.randrange(g.n), g.n + i)
                                     for i in range(k) if g.n])
        sub, _ = grown.induced(v for v in range(grown.n) if rng.random() < 0.7)
        for h in (g, grown, sub):
            assert all(h.has_edge(u, v) == (v in h.adj[u])
                       for u in range(h.n) for v in range(h.n))
