import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from starpart import cli
from starpart.cli import _frac, main
from starpart.density import mad, mad_le_8_3
from starpart.graphs import MAX_VERTICES, Graph, parse_graph, parse_graph6
from starpart.generators import (gen_corpus, gen_g5n, gen_cycle,
                                 gen_mad_bounded, gen_path)
from starpart.graphs import to_edge_list, to_graph6


@pytest.fixture
def g5_file(tmp_path):
    path = tmp_path / "g5.g6"
    path.write_text(to_graph6(gen_g5n(1)) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1, "exactly one JSON document expected"
    return code, json.loads(lines[0])


def test_mad_g5(capsys, g5_file):
    code, doc = run_json(capsys, "mad", g5_file)
    assert code == 0
    assert doc["value"] == "46/17"
    assert doc["schema"] == 1
    assert len(doc["witness"]) == 17


def test_fii_find_infeasible_exit_1(capsys, g5_file):
    code, doc = run_json(capsys, "fii-find", g5_file)
    assert code == 1
    assert doc["status"] == "infeasible" and doc["exhausted"]


def test_star5_on_cycle(capsys, tmp_path):
    for n in (7, 2000):  # 2000 is deeper than the default recursion limit
        path = tmp_path / f"c{n}.g6"
        path.write_text(to_graph6(gen_cycle(n)))
        code, doc = run_json(capsys, "star5", str(path))
        assert code == 0
        assert doc["verified"] and len(doc["coloring"]) == n


def test_rho_star_seed(capsys, g5_file):
    code, doc = run_json(capsys, "rho-star", g5_file, "--seed", "0")
    assert code == 0
    assert doc["value"] == -1 and 0 in doc["witness"]
    # a repeated seed vertex is reported once
    code, twice = run_json(capsys, "rho-star", g5_file, "--seed", "0,0")
    assert code == 0 and twice == {**doc, "seed": [0]}


def test_rho_star_seed_that_is_not_a_vertex_list(capsys, g5_file):
    code, doc = run_json(capsys, "rho-star", g5_file, "--seed", "1,x")
    assert (code, doc) == (2, {"schema": 1, "error": "usage",
                               "detail": "bad vertex list '1,x'"})


def test_edge_list_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n2 0\n"))
    code, doc = run_json(capsys, "mad", "-", "--format", "edgelist")
    assert code == 0
    assert doc["value"] == 2 and doc["le_8_3"] is True


def test_bad_input_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("B\x01\n")
    code, doc = run_json(capsys, "mad", str(path), "--format", "graph6")
    assert code == 2
    assert doc["error"] == "usage"
    code, doc = run_json(capsys, "mad", str(tmp_path / "missing.g6"))
    assert code == 2


@pytest.mark.parametrize("fmt, text", [
    ("dimacs", "p edge 3 x\n"),
    ("dimacs", "p edge 3 1\ne 1 x\n"),
    ("dimacs", "p edge 3.5 1\n"),
    ("dimacs", "p edge 0x3 0\n"),
    ("dimacs", "p edge 3 1\ne 1 \u0663\n"),   # an Arabic-Indic digit 3
    ("graph6", "DQ\u00e9\n"),   # never read as the "no edge" body byte ?
    ("auto", "DQ\u00e9\n"),     # sniffed as graph6, never as an edge list
    ("graph6", "DQ\n"),
    ("graph6", "B!\n"),
    ("edgelist", "0 1\n1 2 3\n"),
    # graph6 can encode neither a self-loop nor a duplicate edge
    ("edgelist", "0 1\n1 1\n"),
    ("edgelist", "0 1\n1 0\n"),
    ("dimacs", "p edge 2 1\ne 2 2\n"),
    ("dimacs", "p edge 2 2\ne 1 2\ne 2 1\n"),
])
def test_malformed_input_is_a_usage_error(capsys, tmp_path, fmt, text):
    path = tmp_path / "bad"
    path.write_text(text, encoding="utf-8")
    code, doc = run_json(capsys, "mad", "--format", fmt, str(path))
    assert (code, doc["error"]) == (2, "usage")


def test_self_loop_edge_list_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("0 1\n3 3\n")
    code, doc = run_json(capsys, "mad", str(path), "--format", "edgelist")
    assert code == 2
    assert "self-loop" in doc["detail"]


def test_timeout_exit_3(capsys, g5_file):
    code, doc = run_json(capsys, "--timeout-ms", "1",
                         "fii-find", g5_file, "--no-forcing")
    assert code == 3
    assert doc["status"] == "unknown"


@pytest.mark.parametrize("ms", ["0", "-5"])
def test_timeout_not_positive_exit_2(capsys, g5_file, ms):
    code, doc = run_json(capsys, "--timeout-ms", ms, "fii-find", g5_file)
    assert code == 2
    assert doc["error"] == "usage" and "--timeout-ms" in doc["detail"]


def test_classify_builds_its_text_only_when_printing(capsys, monkeypatch, g5_file):
    code, out = run(capsys, "classify", g5_file)
    assert code == 0 and out.splitlines()[:2] == ["0 (0): W2", "1 (1): V6"]

    def unnamed(self, v):
        raise AssertionError("--json prints no vertex names")

    monkeypatch.setattr(Graph, "name_of", unnamed)
    code, doc = run_json(capsys, "classify", g5_file)
    assert code == 0 and doc["classes"][:2] == ["W2", "V6"]


def test_star_verify_violation_exit_1(capsys, tmp_path):
    gpath = tmp_path / "p4.g6"
    from starpart.generators import gen_path
    gpath.write_text(to_graph6(gen_path(4)))
    cpath = tmp_path / "bad.json"
    cpath.write_text(json.dumps({"colors": [0, 1, 0, 1]}))
    code, doc = run_json(capsys, "star-verify", str(gpath),
                         "--coloring", str(cpath))
    assert code == 1
    assert doc["violation"]["kind"] == "path"


def test_malformed_coloring_or_partition_exit_2(capsys, tmp_path):
    gpath = tmp_path / "p4.g6"
    from starpart.generators import gen_path
    gpath.write_text(to_graph6(gen_path(4)))
    cases = [("star-verify", "--coloring", {"colors": ["a", "b", "c", "d"]}),
             ("star-verify", "--coloring", {"colors": 4}),
             ("star-verify", "--coloring",
              {"colors": [0, 1, 2, 0], "palette_size": "5"}),
             ("fii-verify", "--partition", {"labels": ["F", None, "F", "F"]}),
             ("fii-verify", "--partition", [0, 1.5, 0, 0])]
    for sub, flag, content in cases:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(content))
        code, doc = run_json(capsys, sub, str(gpath), flag, str(path))
        assert code == 2, content
        assert doc["error"] == "usage"


def test_star_color(capsys, tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(gen_cycle(5)))
    code, doc = run_json(capsys, "star-color", str(path))
    assert code == 0 and doc["chi_s"] == 4


def test_fii_verify(capsys, tmp_path):
    gpath = tmp_path / "c3.g6"
    gpath.write_text(to_graph6(gen_cycle(3)))
    ppath = tmp_path / "part.json"
    ppath.write_text(json.dumps({"labels": ["F", "F", "F"]}))
    code, doc = run_json(capsys, "fii-verify", str(gpath),
                         "--partition", str(ppath))
    assert code == 1
    assert doc["violation"]["kind"] == "cycle"


def test_gen_roundtrip(capsys, tmp_path):
    out = tmp_path / "g5n2.g6"
    code, _ = run(capsys, "gen", "g5n", "-n", "2", "--out", str(out))
    assert code == 0
    g = parse_graph6(out.read_text())
    assert g.n == 34 and g.edge_count == 46


def test_unwritable_out_exit_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (("gen", "g5n", "-n", "1",
                  "--out", str(tmp_path / "missing" / "x.g6")),
                 ("gen", "corpus", "--count", "1", "--out", str(blocker))):
        code, doc = run_json(capsys, *argv)
        assert code == 2, argv
        assert doc["error"] == "usage" and "cannot write" in doc["detail"]


#: for each subcommand whose engine rejects input of its own, the engine call
#: that rejects it, as (module, name, argv after ``--json``, the JSON document
#: in ``J``); ``T`` is a triangle, ``H`` the shipped C1 instance and ``D`` a
#: directory to write
_WRAPPED_ENGINE_CALLS = [
    ("starcolor", "Coloring", ["star-verify", "T", "--coloring", "J"], [0, 1, 2]),
    ("starcolor", "star_chromatic_number", ["star-color", "T"], None),
    ("fii", "parse_label", ["fii-verify", "T", "--partition", "J"],
     ["F", "I1", "F"]),
    ("configs", "reduction_plan", ["lemma-check", "H", "--config", "C1"], None),
    ("configs", "attach_gadget", ["attach", "T", "--at", "0", "--gadget", "J1"],
     None),
    ("generators", "gen_cycle", ["gen", "cycle", "-n", "5"], None),
    ("generators", "gen_corpus",
     ["gen", "corpus", "--count", "1", "--out", "D"], None),
]


def test_internal_error_exit_4(capsys, monkeypatch, g5_file, tmp_path):
    import importlib
    from starpart import density, instances

    # an engine's KeyError or ValueError is a fault too, never a usage error
    for error in (RuntimeError("boom"), KeyError("boom"), ValueError("boom")):
        def boom(g):
            raise error

        monkeypatch.setattr(density, "mad", boom)
        detail = f"{type(error).__name__}: {error}"
        code, doc = run_json(capsys, "mad", g5_file)
        assert code == 4
        assert doc == {"schema": 1, "error": "internal", "detail": detail}
        assert main(["mad", g5_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: internal: {detail}\n")

    # on every subcommand: only a GraphError is the caller's
    def value_error(*args, **kwargs):
        raise ValueError("boom")

    paths = {"T": tmp_path / "t.el", "H": tmp_path / "c1.g6",
             "J": tmp_path / "doc.json", "D": tmp_path / "corpus"}
    paths["T"].write_text("0 1\n1 2\n0 2\n")
    paths["H"].write_text(to_graph6(instances.INSTANCES["C1"]()[0]))
    for module, name, argv, doc in _WRAPPED_ENGINE_CALLS:
        paths["J"].write_text(json.dumps(doc))
        with monkeypatch.context() as m:
            m.setattr(importlib.import_module(f"starpart.{module}"), name,
                      value_error)
            code, out = run_json(capsys, *(str(paths.get(a, a)) for a in argv))
        assert (code, out) == (4, {"schema": 1, "error": "internal",
                                   "detail": "ValueError: boom"}), name


#: user input that an engine would reject, as argv after ``--json``; ``T`` is
#: a triangle, ``E`` the empty graph, ``H`` the shipped C1 instance, ``L`` a
#: file that is not UTF-8, ``D`` a directory holding ``L`` and ``J`` a JSON
#: file holding the case's document (a str is the file's text); ``_LONG`` is
#: past ``int()``'s 4300-digit limit
_LONG = "1" * 5000
_REJECTED_INPUT = [
    (["mad", "E"], None, "at least one vertex"),
    (["fii-find", "T", "-k", "-1"], None, "-k must be nonnegative"),
    (["boundary", "-k", "-1", "--corpus", "."], None, "-k must be nonnegative"),
    (["config-scan", "T", "--ids", "C1,X"], None, "unknown configuration id 'X'"),
    (["lemma-check", "T", "--config", "C99"], None, "unknown configuration id"),
    (["lemma-check", "H", "--config", "C1", "--match", "J"], {"nope": 1},
     "no C1 match with roles"),
    (["gen", "g5n", "-n", "0"], None, "n must be positive"),
    (["gen", "cycle", "-n", "2"], None, "at least 3 vertices"),
    (["gen", "path", "-n", "0"], None, "at least 1 vertex"),
    (["star-verify", "T", "--coloring", "J"], [0, 1, -1], "palette_size-1"),
    (["fii-verify", "T", "--partition", "J"], [0, 3, 0], "label out of range"),
    (["fii-verify", "T", "--partition", "J"], ["F", "I3", "F"], "exceeds k=2"),
    (["girth", "L"], None, "cannot read"),
    (["boundary", "-k", "2", "--corpus", "D"], None, "cannot read"),
    (["boundary", "-k", "2", "--corpus", "L"], None,
     "cannot read corpus directory"),
    (["star-verify", "T", "--coloring", "J"], "[" * 100_000, "recursion depth"),
    (["star-verify", "T", "--coloring", "J"], f"[0, 1, {_LONG}]",
     "4300 digits"),
    (["fii-verify", "T", "--partition", "J"], "[" * 100_000, "recursion depth"),
    (["fii-verify", "T", "--partition", "J"], f"[0, 0, {_LONG}]",
     "4300 digits"),
    (["fii-verify", "T", "--partition", "J"], ["F", "I\u00b2", "F"],
     "unknown part label"),
    (["fii-verify", "T", "--partition", "J"], ["F", f"I{_LONG}", "F"],
     "unknown part label"),
    (["fii-verify", "T", "--partition", "J"], ["I0", "I0", "I1"],
     "unknown part label 'I0'"),
    (["fii-verify", "T", "--partition", "J"], ["I1", "F", "I01"],
     "unknown part label 'I01'"),
    (["lemma-check", "H", "--config", "C1", "--match", "J"], "[" * 100_000,
     "recursion depth"),
    (["lemma-check", "H", "--config", "C1", "--match", "J"], f'{{"v": {_LONG}}}',
     "4300 digits"),
    (["attach", "T", "--at", "0", "--gadget", f"edge:{_LONG}"], None,
     "unknown gadget"),
    (["gen", "corpus", "--count", "1", "--bound", "x", "--out", "D"], None,
     "Invalid literal for Fraction"),
    (["gen", "corpus", "--count", "1", "--bound", _LONG, "--out", "D"], None,
     "4300 digits"),
    (["gen", "corpus", "--count", "1", "--bound", "1e4301", "--out", "D"], None,
     "bound '1e4301': exponent beyond 4300 in magnitude"),
    (["gen", "corpus", "--count", "1", "--bound", "1E-4_301", "--out", "D"], None,
     "bound '1E-4_301': exponent beyond 4300 in magnitude"),
    (["--timeout-ms", "1" + "0" * 400, "girth", "T"], None, "--timeout-ms"),
    (["rho-star", "T", "--seed", "99"], None, "vertex 99 out of range 0..2"),
    (["rho-star", "T", "--seed", "1,99,-1"], None, "vertex 99 out of range 0..2"),
    (["star-verify", "T", "--coloring", "J"], [0, 1],
     "coloring covers 2 vertices, graph has 3"),
    (["star-verify", "T", "--coloring", "J"], {"colors": [0, 1, 2, 0]},
     "coloring covers 4 vertices, graph has 3"),
    (["fii-verify", "T", "--partition", "J"], ["F"],
     "partition covers 1 vertices, graph has 3"),
    (["fii-verify", "T", "--partition", "J"], {"labels": [0, 1, 2, 0]},
     "partition covers 4 vertices, graph has 3"),
]


def _case_id(argv: list[str], doc) -> str:
    """The case's argv and document, each part past 40 characters cut to its
    first 20 and its length."""
    parts = [*argv, str(doc)] if doc else argv
    return " ".join(p if len(p) <= 40 else f"{p[:20]}...({len(p)} chars)"
                    for p in parts)


@pytest.mark.parametrize("argv, doc, detail", _REJECTED_INPUT,
                         ids=[_case_id(argv, doc) for argv, doc, _ in _REJECTED_INPUT])
def test_input_an_engine_rejects_is_a_usage_error(capsys, tmp_path, argv, doc,
                                                  detail):
    from starpart import instances
    paths = {"T": tmp_path / "t.el", "E": tmp_path / "e.g6",
             "D": tmp_path / "d", "J": tmp_path / "doc.json",
             "H": tmp_path / "c1.g6"}
    paths["D"].mkdir()
    paths["L"] = paths["D"] / "l.g6"
    paths["T"].write_text("0 1\n1 2\n0 2\n")
    paths["E"].write_text("?\n")
    paths["L"].write_bytes(b"\xff\xfe\n")
    paths["J"].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    paths["H"].write_text(to_graph6(instances.INSTANCES["C1"]()[0]))
    code, out = run_json(capsys, *(str(paths.get(a, a)) for a in argv))
    assert (code, out["error"]) == (2, "usage")
    assert detail in out["detail"]


def test_gen_json_one_document(capsys):
    for family, n, m in (("cycle", 5, 5), ("path", 4, 3)):
        code, doc = run_json(capsys, "gen", family, "-n", str(n))
        assert code == 0
        assert (doc["n"], doc["m"]) == (n, m)
        assert parse_graph6(doc["graph"]).edge_count == m


def test_config_scan_and_lemma_check(capsys, tmp_path):
    from starpart import instances
    g, _ = instances.INSTANCES["C5"]()
    path = tmp_path / "c5inst.g6"
    path.write_text(to_graph6(g))
    code, doc = run_json(capsys, "config-scan", str(path), "--ids", "C5")
    assert code == 0
    assert doc["matches"][0]["config"] == "C5"
    code, doc = run_json(capsys, "lemma-check", str(path), "--config", "C5")
    assert code == 0
    assert doc["passed"] and not doc["vacuous"]
    match = tmp_path / "match.json"
    match.write_text("[1, 2]")
    code, doc = run_json(capsys, "lemma-check", str(path), "--config", "C5",
                         "--match", str(match))
    assert code == 2 and doc["error"] == "usage"


def test_lemma_check_match_index_out_of_range_exit_2(capsys, tmp_path):
    from starpart import instances
    g, _ = instances.INSTANCES["C1"]()
    path = tmp_path / "c1inst.g6"
    path.write_text(to_graph6(g))
    code, doc = run_json(capsys, "lemma-check", str(path), "--config", "C1",
                         "--match-index", "1")
    assert code == 0 and doc["passed"]
    for index in ("99", "-1"):
        code, doc = run_json(capsys, "lemma-check", str(path), "--config", "C1",
                             "--match-index", index)
        assert code == 2 and doc["error"] == "usage", index
        assert "out of range" in doc["detail"]


def test_gen_corpus_bad_count_or_n_max_exit_2(capsys, tmp_path):
    for opts in (("--count", "-1"), ("--count", "3", "--n-max", "3"),
                 ("--count", "3", "--bound", "1/2"),
                 ("--count", "0", "--bound", "1/2"),
                 ("--count", "3", "--bound", "1/0"),
                 ("--count", "3", "--bound", "x")):
        code, doc = run_json(capsys, "gen", "corpus", *opts,
                             "--out", str(tmp_path / "corpus"))
        assert code == 2 and doc["error"] == "usage", opts
        assert not (tmp_path / "corpus").exists(), opts


# K5 on 0-4, K4 on 5-8 and a path 8-9-10-11: mad's witness is the K5, the
# violating set both cliques
_K5_K4_PATH = Graph(12, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                    + [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
                    + [(8, 9), (9, 10), (10, 11)])


@pytest.mark.parametrize("g", [gen_g5n(50),
                               next(gen_corpus(1, 14, "8/3", 0))[1],
                               Graph(3, []), _K5_K4_PATH],
                         ids=["g5n-50", "corpus", "edgeless", "k5+k4+path"])
def test_mad_json_bytes(capsys, tmp_path, g):
    # the document of the handler that always ran mad_le_8_3
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(g))
    d = mad(g)
    ok, violation = mad_le_8_3(g)
    expected = {"schema": 1, "command": "mad", "value": _frac(d.value),
                "witness": list(d.witness), "le_8_3": ok,
                "violating_set": list(violation) if violation else None}
    assert ok == (d.value <= Fraction(8, 3))
    assert run(capsys, "--json", "mad", str(path)) == \
        (0, json.dumps(expected, sort_keys=True) + "\n")


def test_mad_json_on_corpus_union_pinned(capsys, tmp_path):
    # captured before mad started high and read its witness off the final
    # placement
    edges, n = [], 0
    for _, h in gen_corpus(40, 20, Fraction(8, 3), 2024):
        edges += [(u + n, v + n) for u, v in h.edges()]
        n += h.n
    path = tmp_path / "union.g6"
    path.write_text(to_graph6(Graph(n, edges)))
    code, out = run(capsys, "--json", "mad", str(path))
    doc = json.loads(out)
    assert (code, doc["value"], len(doc["witness"])) == (0, "8/3", 348)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "204cb4b7c0b684b3fae0807a5e9e079f54cf4247d220f895875af9dc12467720"


def test_discharge_and_audit(capsys, tmp_path):
    path = tmp_path / "c6.g6"
    path.write_text(to_graph6(gen_cycle(6)))
    code, doc = run_json(capsys, "discharge", str(path))
    assert code == 0 and doc["total"] == 12
    code, doc = run_json(capsys, "discharge-audit", str(path))
    assert code == 1  # W2-cycle: every vertex sits below 8/3
    assert doc["deficits"]


def test_scan_and_audit_on_a_long_cycle_and_path(capsys, tmp_path):
    # the cycle search keeps its path on a stack: a 2000-vertex W23 path
    # used to recurse once per vertex and exit 4 with RecursionError
    cycle, path = tmp_path / "cycle.g6", tmp_path / "path.g6"
    cycle.write_text(to_graph6(gen_cycle(2000)))
    path.write_text(to_graph6(gen_path(2000)))
    code, doc = run_json(capsys, "config-scan", str(cycle))
    assert code == 0
    assert [m["vertices"]["cycle"] for m in doc["matches"]
            if m["config"] == "Cp1"] == [list(range(2000))]
    code, doc = run_json(capsys, "discharge-audit", str(cycle))
    assert code == 1 and doc["deficits"]
    code, doc = run_json(capsys, "config-scan", str(path))
    assert code == 0 and doc["matches"]
    assert not [m for m in doc["matches"] if m["config"] == "Cp1"]


def _subdivided_prism(k):
    """C_k x K2 with every edge subdivided twice (8k vertices): every branch
    vertex is W3, so G[W23] is the whole graph, whose cycles grow
    exponentially in k."""
    rungs = [e for i in range(k) for e in ((i, (i + 1) % k),
                                           (k + i, k + (i + 1) % k), (i, k + i))]
    n, edges = 2 * k, []
    for u, v in rungs:
        edges += [(u, n), (n, n + 1), (n + 1, v)]
        n += 2
    return Graph(n, edges)


def test_scan_and_audit_honour_the_timeout(capsys, tmp_path):
    # listing the cycles of the 16-prism takes seconds: only the budget ends
    # the scan, and it prints no partial list
    big, small = tmp_path / "prism16.g6", tmp_path / "prism4.g6"
    big.write_text(to_graph6(_subdivided_prism(16)))
    small.write_text(to_graph6(_subdivided_prism(4)))
    start = time.monotonic()
    code, doc = run_json(capsys, "--timeout-ms", "200", "config-scan", str(big))
    assert time.monotonic() - start < 3
    assert (code, doc) == (3, {"schema": 1, "command": "config-scan",
                               "status": "unknown"})
    # a scan that finishes inside its budget prints what it prints without
    untimed = run(capsys, "--json", "config-scan", str(small))
    assert untimed[1].count("Cp1") > 10
    assert run(capsys, "--json", "--timeout-ms", "60000", "config-scan",
               str(small)) == untimed
    # the audit lists no cycle: it answers the 16-prism, budget or none
    start = time.monotonic()
    audit = run(capsys, "--json", "discharge-audit", str(big))
    assert time.monotonic() - start < 1
    assert audit[0] == 1 and "Cp1" in audit[1]
    assert run(capsys, "--json", "--timeout-ms", "200", "discharge-audit",
               str(big)) == audit


#: (module, name) of every engine a handler hands the deadline to
_ENGINES = ((cli.configs, "scan_configs"), (cli.configs, "verify_lemma_extension"),
            (cli.fii, "find_fii"), (cli.fii, "enumerate_fii"),
            (cli.fii, "boundary_search"), (cli.starcolor, "star_chromatic_number"))


@pytest.mark.parametrize("command", ["star-color", "fii-find", "star5",
                                     "config-scan", "lemma-check", "boundary"])
def test_every_engine_call_reads_the_one_deadline(capsys, monkeypatch,
                                                  tmp_path, command):
    from starpart import instances
    g, _ = instances.INSTANCES["C5"]()
    host = tmp_path / "c5.g6"
    host.write_text(to_graph6(g))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, member in gen_corpus(3, 8, Fraction(8, 3), 0):
        (corpus / f"{name}.g6").write_text(to_graph6(member))
    argv = {"lemma-check": ["lemma-check", str(host), "--config", "C5"],
            "boundary": ["boundary", "-k", "2", "--corpus", str(corpus)]
            }.get(command, [command, str(host)])
    calls = []
    for module, name in _ENGINES:
        def recording(*args, _engine=getattr(module, name), _name=name,
                      **kwargs):
            calls.append((_name, kwargs.get("deadline")))
            return _engine(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)

    before = time.monotonic()
    assert main(["--timeout-ms", "60000", *argv]) == 0
    after = time.monotonic()
    deadlines = {deadline for _, deadline in calls}
    assert len(deadlines) == 1
    deadline = deadlines.pop()
    assert before + 60 <= deadline <= after + 60
    engines = [name for name, _ in calls]
    if command == "lemma-check":
        assert engines[:3] == ["scan_configs", "verify_lemma_extension",
                               "enumerate_fii"] and "find_fii" in engines
    if command == "boundary":
        assert engines == ["boundary_search"] + ["find_fii"] * 3
    calls.clear()
    assert main(argv) == 0
    assert calls and {deadline for _, deadline in calls} == {None}
    capsys.readouterr()


def _cli_process(*argv, memory: int | None = None,
                 timeout: float = 120) -> tuple[int, dict, float]:
    """``starpart --json *argv`` in a process of its own, its address space
    capped at ``memory`` bytes if given and killed after ``timeout``
    seconds: the exit code, the document and the wall time."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    cap = None if memory is None else \
        (lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory)))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "starpart.cli", "--json", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=cap)
    return proc.returncode, json.loads(proc.stdout), time.monotonic() - start


def test_vertex_count_is_capped_before_allocation(tmp_path):
    # capped address space: a regression fails fast instead of filling memory
    path = tmp_path / "huge.col"
    path.write_text("p edge 99999999999 0\n")
    code, doc, _ = _cli_process("mad", "--format", "dimacs", str(path),
                                memory=512 * 2**20)
    assert (code, doc["error"]) == (2, "usage")
    assert f"limit of {MAX_VERTICES}" in doc["detail"]


@pytest.mark.parametrize("family", ["g5n", "cycle", "path"])
def test_gen_families_check_the_vertex_cap_before_building(family):
    # g5n builds 17n vertices: -n 10^8 is far above the cap, and its edge
    # list alone would not fit in the capped address space
    code, doc, _ = _cli_process("gen", family, "-n", "100000000",
                                memory=512 * 2**20)
    assert (code, doc["error"]) == (2, "usage")
    assert f"limit of {MAX_VERTICES}" in doc["detail"]


@pytest.mark.parametrize("bound", ["1e10000000000", "1e-10000000000"])
def test_gen_corpus_refuses_a_bound_exponent_before_expanding_it(tmp_path,
                                                                 bound):
    # Fraction would compute 10**(10**10): capped and timed out, a regression
    # fails the test instead of exhausting the machine
    code, doc, wall = _cli_process("gen", "corpus", "--count", "1", "--bound",
                                   bound, "--out", str(tmp_path / "c"),
                                   memory=2**30, timeout=20)
    assert (code, doc) == (2, {"schema": 1, "error": "usage", "detail":
                               f"bound {bound!r}: exponent beyond 4300 in "
                               "magnitude"})
    assert wall < 5


def test_fii_verify_cost_does_not_grow_with_k(tmp_path):
    # the check visits the parts that occur, not every label up to k
    graph, part = tmp_path / "t.el", tmp_path / "p.json"
    graph.write_text("0 1\n1 2\n0 2\n")
    part.write_text('["F", "F", "I1"]')
    code, doc, _ = _cli_process("fii-verify", "-k", str(10**100), str(graph),
                                "--partition", str(part))
    assert (code, doc["valid"]) == (0, True)


def test_lemma_check_scan_counts_against_the_timeout(tmp_path):
    # the Cp1 scan of the 16-prism lists cycles for seconds
    path = tmp_path / "prism16.g6"
    path.write_text(to_graph6(_subdivided_prism(16)))
    code, doc, wall = _cli_process("--timeout-ms", "200", "lemma-check",
                                   str(path), "--config", "Cp1")
    assert (code, doc) == (3, {"schema": 1, "command": "lemma-check",
                               "status": "unknown"})
    assert wall < 3


def test_star_color_honours_the_timeout(tmp_path):
    # the exact search on this graph runs for minutes without a budget
    path = tmp_path / "mad8.el"
    path.write_text(to_edge_list(gen_mad_bounded(40, 8, 1)))
    code, doc, wall = _cli_process("--timeout-ms", "500", "star-color", str(path))
    assert (code, doc) == (3, {"schema": 1, "command": "star-color",
                               "status": "unknown"})
    assert wall < 3


def test_boundary_shares_one_deadline_across_the_corpus(tmp_path):
    # the search on this graph is still unknown after 200 ms: twelve copies
    # each given the whole budget would take 2.4 s
    text = to_graph6(gen_mad_bounded(200, Fraction(8, 3), 0))
    for i in range(12):
        (tmp_path / f"g{i:02}.g6").write_text(text)
    code, doc, wall = _cli_process("--timeout-ms", "200", "boundary", "-k", "2",
                                   "--corpus", str(tmp_path))
    assert code == 3 and doc["unknown"] >= 1
    assert wall < 1.5


def test_terminal_partition_cli(capsys, tmp_path):
    path = tmp_path / "tree.el"
    path.write_text("0 1\n1 2\n")
    code, doc = run_json(capsys, "terminal-partition", str(path),
                         "--format", "edgelist")
    assert code == 0
    assert doc["applicable"] and doc["degenerate"] == ["forest"]


def test_attach_outputs_graph(capsys, tmp_path):
    path = tmp_path / "p3.g6"
    from starpart.generators import gen_path
    p3 = gen_path(3)
    path.write_text(to_graph6(p3))
    code, out = run(capsys, "attach", str(path), "--at", "0",
                    "--gadget", "J1")
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.n == p3.n + 5


def test_attach_names_new_vertices_apart(capsys, tmp_path):
    path = tmp_path / "t.el"
    path.write_text("3 7\n7 9\n9 3\n")
    code, out = run(capsys, "attach", str(path), "--at", "0",
                    "--gadget", "triangle", "--out-format", "edgelist")
    assert code == 0
    g = parse_graph(out, "edgelist")
    assert (g.n, g.edge_count) == (3 + 2, 3 + 3)
    assert g.names[:3] == ("3", "7", "9") and len(set(g.names)) == g.n


def test_attach_on_graph6_host_json(capsys, tmp_path):
    host = gen_g5n(50)
    path = tmp_path / "g5n50.g6"
    path.write_text(to_graph6(host) + "\n")
    code, doc = run_json(capsys, "attach", str(path), "--at", "7",
                         "--gadget", "J1")
    assert code == 0
    g = parse_graph6(doc["graph"])
    assert (doc["n"], doc["m"]) == (g.n, g.edge_count) == (host.n + 5,
                                                          host.edge_count + 7)
    assert g.induced(range(host.n))[0] == host


def test_determinism_byte_identical(capsys, g5_file):
    _, doc1 = run(capsys, "--json", "mad", g5_file)
    _, doc2 = run(capsys, "--json", "mad", g5_file)
    assert doc1 == doc2
    _, a = run(capsys, "--json", "fii-find", g5_file)
    _, b = run(capsys, "--json", "fii-find", g5_file)
    assert a == b


def test_boundary_cli(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c5.g6").write_text(to_graph6(gen_cycle(5)) + "\n")
    (corpus / "p4.g6").write_text(to_graph6(gen_cycle(8)) + "\n")
    code, doc = run_json(capsys, "boundary", "-k", "0",
                         "--corpus", str(corpus))
    assert code == 0
    assert doc["min_infeasible_mad"] == 2
    assert doc["note"] == "empirical bound only"


@pytest.mark.parametrize("argv, detail", [
    ([], "missing command"),
    (["--timeout-ms", "5"], "missing command"),
    (["bogus", "G"], "unknown command 'bogus'"),
    (["gen"], "missing family"),
    (["gen", "bogus", "-n", "3"], "unknown family 'bogus'"),
    (["star5"], "missing file"),
    (["mad", "G", "--bogus"], "unknown option --bogus"),
    (["fii-find", "G", "--no-forc"], "unknown option --no-forc"),
    (["fii-find", "G", "-k"], "-k needs a value"),
    (["fii-find", "G", "--json"], "unknown option --json"),
    (["fii-find", "G", "-k", "x"], "-k wants an int"),
    (["gen", "corpus", "--count=x", "--out", "D"], "--count wants an int"),
    (["mad", "G", "--format", "png"], "--format must be one of"),
    (["lemma-check", "G"], "missing --config"),
    (["mad", "G", "G"], "unexpected argument"),
    (["fii-find", "G", "--timeout-ms", "5"], "unknown option --timeout-ms"),
    (["fii-find", "G", "--no-forcing=yes"], "--no-forcing takes no value"),
], ids=["no-command", "no-command-after-global", "unknown-command",
        "gen-no-family", "unknown-family", "missing-file", "unknown-option",
        "abbreviation", "no-value", "global-after-command", "bad-int",
        "bad-int-equals", "bad-choice", "missing-required", "extra-positional",
        "timeout-after-command", "value-for-flag"])
def test_usage_error_is_one_json_document(capsys, g5_file, tmp_path, argv,
                                          detail):
    paths = {"G": g5_file, "D": str(tmp_path / "corpus")}
    code = main(["--json", *(paths.get(a, a) for a in argv)])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1 and captured.err == ""
    doc = json.loads(lines[0])
    assert (doc["schema"], doc["error"]) == (1, "usage")
    assert detail in doc["detail"]
    assert not (tmp_path / "corpus").exists()
    # without --json the same error is one line on stderr
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


#: argv -> the arguments the handler receives, as argparse gave them
#: (``fn`` aside); ``G``, ``C``, ``P`` and ``D`` stand for file names
_ACCEPTED_FORMS = [
    (["mad", "G"], {"json": False, "timeout_ms": None, "command": "mad",
                    "file": "G", "format": "auto"}),
    (["--json", "--timeout-ms", "50", "star5", "G"],
     {"json": True, "timeout_ms": 50, "command": "star5", "file": "G",
      "format": "auto"}),
    (["fii-find", "G", "-k", "3", "--no-forcing"],
     {"json": False, "timeout_ms": None, "command": "fii-find", "file": "G",
      "format": "auto", "k": 3, "no_forcing": True}),
    (["fii-find", "-k", "3", "--no-forcing", "G"],
     {"json": False, "timeout_ms": None, "command": "fii-find", "file": "G",
      "format": "auto", "k": 3, "no_forcing": True}),
    (["--timeout-ms=50", "lemma-check", "--config=C1", "G", "--match-index=1",
      "--format=graph6"],
     {"json": False, "timeout_ms": 50, "command": "lemma-check", "file": "G",
      "format": "graph6", "config": "C1", "match": None, "match_index": 1}),
    (["mad", "-", "--format", "edgelist"],
     {"json": False, "timeout_ms": None, "command": "mad", "file": "-",
      "format": "edgelist"}),
    (["fii-find", "G", "-k", "1", "-k", "3", "--format", "graph6",
      "--format", "auto"],
     {"json": False, "timeout_ms": None, "command": "fii-find", "file": "G",
      "format": "auto", "k": 3, "no_forcing": False}),
    (["lemma-check", "G", "--config", "C1", "--match-index", "-1"],
     {"json": False, "timeout_ms": None, "command": "lemma-check", "file": "G",
      "format": "auto", "config": "C1", "match": None, "match_index": -1}),
    (["star-color", "G", "--limit", "5", "--force"],
     {"json": False, "timeout_ms": None, "command": "star-color", "file": "G",
      "format": "auto", "limit": 5, "force": True}),
    (["star-verify", "G", "--coloring", "C"],
     {"json": False, "timeout_ms": None, "command": "star-verify",
      "file": "G", "format": "auto", "coloring": "C"}),
    (["fii-verify", "--partition", "P", "G", "-k", "2"],
     {"json": False, "timeout_ms": None, "command": "fii-verify", "file": "G",
      "format": "auto", "partition": "P", "k": 2}),
    (["rho-star", "G", "--seed", "0,1"],
     {"json": False, "timeout_ms": None, "command": "rho-star", "file": "G",
      "format": "auto", "seed": "0,1"}),
    (["boundary", "-k", "2", "--corpus", "D"],
     {"json": False, "timeout_ms": None, "command": "boundary", "k": 2,
      "corpus": "D", "format": "auto"}),
    (["config-scan", "G", "--ids", "C5,Cp1"],
     {"json": False, "timeout_ms": None, "command": "config-scan",
      "file": "G", "format": "auto", "ids": "C5,Cp1"}),
    (["attach", "G", "--at", "0", "--gadget", "J1", "--out-format",
      "edgelist"],
     {"json": False, "timeout_ms": None, "command": "attach", "file": "G",
      "format": "auto", "at": 0, "gadget": "J1", "out_format": "edgelist"}),
    (["gen", "corpus", "--count", "2", "--out", "D"],
     {"json": False, "timeout_ms": None, "command": "gen", "family": "corpus",
      "count": 2, "n_max": 14, "bound": "8/3", "seed": 0, "out": "D"}),
    (["gen", "corpus", "--count", "2", "--n-max", "6", "--bound", "5/2",
      "--seed", "7", "--out", "D"],
     {"json": False, "timeout_ms": None, "command": "gen", "family": "corpus",
      "count": 2, "n_max": 6, "bound": "5/2", "seed": 7, "out": "D"}),
    (["gen", "g5n", "-n", "2"],
     {"json": False, "timeout_ms": None, "command": "gen", "family": "g5n",
      "n": 2, "out": None, "out_format": "graph6"}),
    (["gen", "g5n", "--out", "D", "-n", "2", "--out-format", "edgelist"],
     {"json": False, "timeout_ms": None, "command": "gen", "family": "g5n",
      "n": 2, "out": "D", "out_format": "edgelist"}),
    (["--json", "gen", "cycle", "-n", "5"],
     {"json": True, "timeout_ms": None, "command": "gen", "family": "cycle",
      "n": 5, "out_format": "graph6"}),
    (["gen", "path", "-n", "4", "--out-format", "dimacs"],
     {"json": False, "timeout_ms": None, "command": "gen", "family": "path",
      "n": 4, "out_format": "dimacs"}),
]


@pytest.mark.parametrize("argv, expected", _ACCEPTED_FORMS,
                         ids=[" ".join(argv) for argv, _ in _ACCEPTED_FORMS])
def test_accepted_forms_reach_the_handler_unchanged(argv, expected):
    args = SimpleNamespace()
    cli._parse_args(argv, args)
    fields = vars(args)
    handler = fields.pop("fn")
    assert fields == expected
    if args.command == "gen":
        entry = next(f for f in cli.GEN_FAMILIES if f[0] == args.family)
    else:
        entry = next(c for c in cli.COMMANDS if c[0] == args.command)
    assert handler is entry[2]


def test_star_verify_explicit_palette_size(capsys, tmp_path):
    gpath = tmp_path / "c3.g6"
    gpath.write_text(to_graph6(gen_cycle(3)))
    cpath = tmp_path / "coloring.json"
    # only a missing or null palette_size defaults to max(colors) + 1
    for palette, detail in ((None, None), (3, None), (0, "palette_size-1"),
                            (2, "palette_size-1"), (False, "not int")):
        cpath.write_text(json.dumps({"colors": [0, 1, 2],
                                     "palette_size": palette}))
        code, doc = run_json(capsys, "star-verify", str(gpath),
                             "--coloring", str(cpath))
        if detail is None:
            assert (code, doc["valid"]) == (0, True), palette
        else:
            assert (code, doc["error"]) == (2, "usage"), palette
            assert detail in doc["detail"], palette


def _help(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "", argv
    assert captured.out.startswith("usage: starpart"), argv
    return captured.out


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_covers_the_whole_table(capsys, flag):
    for prefix in ([], ["--json"]):
        text = _help(capsys, *prefix, flag)
        for name, summary, *_ in cli.COMMANDS:
            assert f"  {name} " in text and summary in text, name
        assert "--json" in text and "--timeout-ms" in text
    text = _help(capsys, "gen", flag)
    for name, summary, *_ in cli.GEN_FAMILIES:
        assert f"  {name} " in text and summary in text, name
    levels = [([name], [cli._FORMAT, *options] if reads_graph else options,
               ["x.g6"] if reads_graph else [])
              for name, _, _, reads_graph, options in cli.COMMANDS]
    levels += [(["gen", name], options, [])
               for name, _, _, options in cli.GEN_FAMILIES]
    for argv, options, file in levels:
        # -h also stands after the file
        for text in (_help(capsys, *argv, flag),
                     _help(capsys, *argv, *file, flag)):
            assert f"usage: starpart {' '.join(argv)}" in text
            for option, spec in options:
                assert f"  {option} " in text and spec["help"] in text, \
                    (argv, option)


#: seeds of the input fuzzer: one text per format, each edited byte by byte
_FUZZ_TEXTS = (to_graph6(gen_g5n(1)).encode(), b">>graph6<<Dhc\n",
               b"0 1\n1 2\n2 0\n2 3\n", b"c k4\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
_FUZZ_BYTES = b" \t\n\r\x0b\x0c\x1c\x85\xa0\xe9\xffcpe0123456789-:~?@_>"


def test_byte_edited_inputs_never_exit_4(capsys, tmp_path):
    # seeded byte edits in every --format mode: a bad input is a usage
    # error (2) or an answer (0, 1, 3), never an internal error (4)
    rng = random.Random(27)
    path = tmp_path / "fuzz"
    codes = set()
    for i in range(400):
        text = bytearray(rng.choice(_FUZZ_TEXTS))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            byte = rng.choice(_FUZZ_BYTES)
            edit = rng.randrange(3)
            if edit == 0:
                text.insert(at, byte)
            elif at < len(text):
                text[at:at + 1] = b"" if edit == 1 else bytes([byte])
        path.write_bytes(bytes(text))
        sub = ("girth", "mad", "classify", "star5")[i % 4]
        for fmt in ("auto", "graph6", "edgelist", "dimacs"):
            code = main(["--json", "--timeout-ms", "300", sub, str(path),
                         "--format", fmt])
            out = capsys.readouterr()
            assert code in (0, 1, 2, 3), (bytes(text), sub, fmt, out.err)
            codes.add(code)
    assert {0, 2} <= codes


# -- branches of the handlers, each in both output modes ---------------------

def _both(capsys, *argv):
    """(exit code, text) and (exit code, JSON document) of one call."""
    return run(capsys, *argv), run_json(capsys, *argv)


def test_star_color_past_the_limit_exits_1(capsys, tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(gen_cycle(5)))
    human, js = _both(capsys, "star-color", str(path), "--limit", "2")
    assert human == (1, "star chromatic number exceeds limit 2\n")
    assert js == (1, {"schema": 1, "command": "star-color", "chi_s": None,
                      "exceeds_limit": 2})


def test_star5_unfinished_search_exits_3(capsys, monkeypatch, g5_file):
    monkeypatch.setattr(cli.fii, "find_fii", lambda g, k, deadline=None:
                        cli.fii.FiiResult("unknown", None, 7, 0, False))
    human, js = _both(capsys, "star5", g5_file)
    assert human == (3, "unknown (timeout)\n")
    assert js == (3, {"schema": 1, "command": "star5", "status": "unknown"})


def test_config_scan_without_matches(capsys, tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text("IheA@GUAo\n")
    human, js = _both(capsys, "config-scan", str(path))
    assert human == (0, "no matches\n")
    assert js == (0, {"schema": 1, "command": "config-scan", "matches": []})


def test_lemma_check_without_a_match_exits_1(capsys, tmp_path):
    path = tmp_path / "tri.el"
    path.write_text("0 1\n1 2\n0 2\n")
    code, doc = run_json(capsys, "lemma-check", str(path), "--config", "C5")
    assert (code, doc) == (1, {"schema": 1, "error": "violated",
                               "detail": "no C5 match in input"})


def test_lemma_check_picks_the_match_of_a_role_file(capsys, tmp_path):
    from starpart import instances
    g, match = instances.shipped_match("C5")
    path = tmp_path / "c5inst.g6"
    path.write_text(to_graph6(g))
    roles = tmp_path / "roles.json"
    roles.write_text(json.dumps(dict(match.vertices)))
    human, js = _both(capsys, "lemma-check", str(path), "--config", "C5",
                      "--match", str(roles))
    assert human == (0, "C5: 81/81 partitions extend\n")
    code, doc = js
    assert (code, doc["passed"], doc["h_partitions"]) == (0, True, 81)
    assert doc["deleted"] == sorted(v for _, v in match.vertices)


def test_terminal_partition_inapplicable_exits_1(capsys, tmp_path):
    path = tmp_path / "k5.el"
    path.write_text("".join(f"{u} {v}\n" for u in range(5)
                            for v in range(u + 1, 5)))
    reason = "V4+ not independent: edge (0, 1)"
    human, js = _both(capsys, "terminal-partition", str(path))
    assert human == (1, f"inapplicable: {reason}\n")
    assert js == (1, {"schema": 1, "command": "terminal-partition",
                      "applicable": False, "reason": reason})


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_broken_pipe_on_the_write_exits_2(capsys, monkeypatch, tmp_path, mode):
    path = tmp_path / "tri.el"
    path.write_text("0 1\n1 2\n0 2\n")
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    assert main([*mode, "girth", str(path)]) == 2
    assert capsys.readouterr().err == ""
