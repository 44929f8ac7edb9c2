#!/usr/bin/env python3
"""Reference figures for the README: scaling curves over n and the cost of
tracing.  Run from the root of a starpart checkout, one figure at a time:

    python3 perfbench/figures.py generator      # gen_mad_bounded, n = 20..80
    python3 perfbench/figures.py audit-copies   # discharge-audit CLI on R copies
    python3 perfbench/figures.py girth          # girth CLI on cycles 500..5000
    python3 perfbench/figures.py graph6         # graph6 read/write on g5n(k)
    python3 perfbench/figures.py trace-overhead # in-process round, spans on/off

Each prints one table of medians; times are wall clock.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from starpart import generators, graphs, instances  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def generator(work: Path) -> None:
    print("n   pairs  median_s (seeds 1-3)")
    for n in (20, 40, 60, 80):
        ts = [timed(generators.gen_mad_bounded, n, Fraction(8, 3), s) for s in (1, 2, 3)]
        print(f"{n:<3} {n * (n - 1) // 2:<6} {statistics.median(ts):.3f}")


def _cli_median(cli: run.Cli, args: list[str], repeats: int = 3) -> float:
    return statistics.median(cli.call(args)[3] for _ in range(repeats))


def audit_copies(work: Path) -> None:
    cli = run.Cli(ROOT, work)
    one = [(g.n, sorted(g.edges())) for g, _ in (f() for f in instances.INSTANCES.values())]
    print("R   n      discharge-audit_s")
    for r in (1, 5, 10, 20, 40):
        n, edges = workloads.disjoint_union(one * r)
        workloads.write_edgelist(work / "host.el", n, edges)
        print(f"{r:<3} {n:<6} {_cli_median(cli, ['discharge-audit', str(work / 'host.el')]):.3f}")


def girth(work: Path) -> None:
    cli = run.Cli(ROOT, work)
    print("n     girth_s")
    for n in (500, 1000, 2000, 3000, 5000):
        workloads.write_edgelist(work / "cycle.el", *workloads.edges_of(generators.gen_cycle(n)))
        print(f"{n:<5} {_cli_median(cli, ['girth', str(work / 'cycle.el')], 1):.3f}")


def graph6(work: Path) -> None:
    print("k    n      write_s  read_s")
    for k in (25, 50, 100, 200):
        g = generators.gen_g5n(k)
        text = graphs.to_graph6(g)
        w = statistics.median(timed(graphs.to_graph6, g) for _ in range(3))
        r = statistics.median(timed(graphs.parse_graph6, text) for _ in range(3))
        print(f"{k:<4} {g.n:<6} {w:.3f}    {r:.3f}")


def trace_overhead(work: Path) -> None:
    """One in-process round per workload (set-up excluded), without and
    with spans; the ratio is the tracing overhead."""
    print("workload   plain_s  traced_s  overhead")
    for name in ("partition", "generate", "audit"):
        plain = _plain_round(name, work)
        walls: list[float] = []

        def record(op, code, out, err, wall):
            walls.append(wall)
            run.judge(op, code, out, err)
        tracing.traced_round(workloads.WORKLOADS[name](1, False, work), run.BUDGET_MS, 0.0,
                             record)
        print(f"{name:10} {plain:7.3f}  {sum(walls):8.3f}  {sum(walls) / plain - 1:+.1%}")


def _plain_round(name: str, work: Path) -> float:
    wl = workloads.WORKLOADS[name](1, False, work)
    wl.setup()
    total = 0.0
    for op in wl.ops(0):
        t0 = time.perf_counter()
        code, out, err = tracing.call_inprocess(
            ["--json", "--timeout-ms", str(run.BUDGET_MS), *op.args])
        total += time.perf_counter() - t0
        run.judge(op, code, out, err)
    return total


FIGURES = {"generator": generator, "audit-copies": audit_copies, "girth": girth,
           "graph6": graph6, "trace-overhead": trace_overhead}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in FIGURES:
        sys.exit(f"usage: figures.py {{{','.join(FIGURES)}}}")
    work = ROOT / ".perfbench" / f"figures-{sys.argv[1]}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        FIGURES[sys.argv[1]](work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
