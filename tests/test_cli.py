import json
from fractions import Fraction

import pytest

from starpart.cli import _frac, main
from starpart.density import mad, mad_le_8_3
from starpart.graphs import Graph, parse_graph6
from starpart.generators import gen_corpus, gen_g5n, gen_cycle
from starpart.graphs import to_graph6


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


def test_internal_error_exit_4(capsys, monkeypatch, g5_file):
    from starpart import density

    def boom(g):
        raise RuntimeError("boom")

    monkeypatch.setattr(density, "mad", boom)
    code, doc = run_json(capsys, "mad", g5_file)
    assert code == 4
    assert doc == {"schema": 1, "error": "internal",
                   "detail": "RuntimeError: boom"}
    assert main(["mad", g5_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: internal: RuntimeError: boom\n")


def test_gen_json_one_document(capsys):
    for family, n, m in (("cycle", 5, 5), ("path", 4, 3)):
        code, doc = run_json(capsys, "gen", family, "-n", str(n))
        assert code == 0
        assert (doc["n"], doc["m"]) == (n, m)
        assert parse_graph6(doc["graph"]).edge_count == m


def test_config_scan_and_lemma_check(capsys, tmp_path):
    from starpart import instances
    g, _ = instances.shipped_instance("C5")
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
    g, _ = instances.shipped_instance("C1")
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
    for opts in (("--count", "-1"), ("--count", "3", "--n-max", "3")):
        code, doc = run_json(capsys, "gen", "corpus", *opts,
                             "--out", str(tmp_path / "corpus"))
        assert code == 2 and doc["error"] == "usage", opts
    assert not any((tmp_path / "corpus").glob("*"))


@pytest.mark.parametrize("g", [gen_g5n(50),
                               next(gen_corpus(1, 14, "8/3", 0))[1],
                               Graph(3, [])],
                         ids=["g5n-50", "corpus", "edgeless"])
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


def test_discharge_and_audit(capsys, tmp_path):
    path = tmp_path / "c6.g6"
    path.write_text(to_graph6(gen_cycle(6)))
    code, doc = run_json(capsys, "discharge", str(path))
    assert code == 0 and doc["total"] == 12
    code, doc = run_json(capsys, "discharge-audit", str(path))
    assert code == 1  # W2-cycle: every vertex sits below 8/3
    assert doc["deficits"]


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
