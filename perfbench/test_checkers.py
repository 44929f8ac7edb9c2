"""The benchmark's own tests: each checker accepts a good witness and
rejects a hand-made bad one.

Run from the root of a starpart checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checkers as ck  # noqa: E402
import workloads  # noqa: E402
from starpart import generators, graphs  # noqa: E402

TRIANGLE = [(0, 1), (0, 2), (1, 2)]
P4 = [(0, 1), (1, 2), (2, 3)]
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class Graph6(unittest.TestCase):
    def test_known_strings(self):
        self.assertEqual(ck.g6_decode("Bw"), (3, TRIANGLE))
        self.assertEqual(ck.g6_decode("A_"), (2, [(0, 1)]))
        self.assertEqual(ck.g6_decode("A?\n"), (2, []))

    def test_rejects_bad_length_and_padding(self):
        for bad in ("Bww", "B", "Ao", ""):
            with self.assertRaises(ValueError):
                ck.g6_decode(bad)

    def test_reads_the_program_writer(self):
        g = generators.gen_g5n(4)  # 68 vertices: the 4-byte size form
        self.assertEqual(ck.g6_decode(graphs.to_graph6(g)), (g.n, sorted(g.edges())))


class Partitions(unittest.TestCase):
    def test_accepts_valid(self):
        self.assertIsNone(ck.fi_violation(3, TRIANGLE, ["F", "F", "I1"]))
        self.assertIsNone(ck.fi_violation(4, P4, ["I1", "F", "F", "I1"]))

    def test_rejects_cycle_inside_f(self):
        self.assertIn("cycle", ck.fi_violation(3, TRIANGLE, ["F", "F", "F"]))

    def test_rejects_i1_pair_at_distance_two(self):
        self.assertIn("distance 2", ck.fi_violation(4, P4, ["I1", "F", "I1", "F"]))


class StarColourings(unittest.TestCase):
    def test_accepts_valid(self):
        self.assertIsNone(ck.star_violation(4, P4, [0, 1, 0, 2]))

    def test_rejects_bicoloured_p4(self):
        self.assertIn("non-star", ck.star_violation(4, P4, [0, 1, 0, 1]))

    def test_rejects_monochromatic_edge(self):
        self.assertIn("monochromatic", ck.star_violation(4, P4, [0, 0, 1, 2]))

    def test_star5_check_rejects_a_bad_colouring(self):
        wl = workloads.Partition(1, True, Path("."))
        wl.graphs["p4"] = (4, P4)
        doc = {"status": "feasible", "verified": True,
               "partition": ["F", "F", "F", "F"], "coloring": [0, 1, 0, 1]}
        self.assertIn("non-star", wl._star5_check("p4")(doc))
        doc["coloring"] = [0, 1, 2, 0]
        self.assertIsNone(wl._star5_check("p4")(doc))


class Density(unittest.TestCase):
    def test_subset_enumeration(self):
        table = ck.edge_count_table(4, K4)
        self.assertEqual(ck.mad_of_table(table), 3)
        self.assertEqual(ck.rho_min_of_table(table, 0), 4 * 4 - 3 * 6)
        path = ck.edge_count_table(4, P4)
        self.assertEqual(ck.mad_of_table(path), Fraction(3, 2))
        self.assertEqual(ck.rho_min_of_table(path, 0), 0)     # the empty set
        self.assertEqual(ck.rho_min_of_table(path, 0b1001), 4 * 4 - 3 * 3)

    def test_union_mad_check_rejects_a_wrong_mad(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.Generate(1, True, Path(tmp))
        adj = ck.adjacency(7, TRIANGLE + [(u + 3, v + 3) for u, v in P4])
        wl.state = {"union_adj": adj, "members": {
            "a": ("a", 3, TRIANGLE, Fraction(2), 0), "b": ("b", 4, P4, Fraction(3, 2), 0)}}
        good = {"value": 2, "witness": [0, 1, 2], "le_8_3": True, "violating_set": None}
        self.assertIsNone(wl._check_union_mad(good))
        self.assertIn("largest component", wl._check_union_mad(dict(good, value="3/2")))
        self.assertIn("witness", wl._check_union_mad(dict(good, witness=[3, 4, 5, 6])))


class GeneratorReplay(unittest.TestCase):
    def test_replay_matches_the_generator(self):
        for n, seed in ((6, 0), (10, 7), (13, 42)):
            g = generators.gen_mad_bounded(n, Fraction(8, 3), seed)
            self.assertEqual(ck.replay_mad_bounded(n, Fraction(8, 3), seed), sorted(g.edges()))

    def test_corpus_plan_matches_the_generator(self):
        plan = ck.corpus_plan(15, 14, 3)
        got = list(generators.gen_corpus(15, 14, Fraction(8, 3), 3))
        self.assertEqual([p[0] for p in plan], [name for name, _ in got])
        self.assertEqual([ck.replay_mad_bounded(n, Fraction(8, 3), s) for _, n, s in plan],
                         [sorted(g.edges()) for _, g in got])


if __name__ == "__main__":
    unittest.main()
