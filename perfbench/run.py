#!/usr/bin/env python3
"""starpart benchmark: time to verdict of the CLI on seeded workloads.

Run from the root of a starpart checkout (stdlib only, no install needed):

    python3 perfbench/run.py --workload partition --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload audit --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py              # all three workloads in turn
    python3 perfbench/run.py --quick      # smoke test; never report its numbers

The load is a closed loop with one client: one ``python -m starpart.cli
--json`` process at a time, each started after the previous one exits.  A
run sets its inputs up at least ``SETUP_REPEATS`` times, then makes whole
rounds of the workload's calls for about ``--seconds``.  Every call is
checked.  Between the timed set-ups and calls it runs ``reference.py``, a
fixed script, and reports every time at the reference speed (``Reference``).
With ``--workload`` the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1``
the metrics are the per-layer ones of one in-process round (see
``tracing``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: one search budget for every call, passed as --timeout-ms
BUDGET_MS = 1000
#: set-ups per run: at least this many, more until they add up to SETUP_MIN_S
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 100
#: a call still running after this long is killed and counted as failed
CALL_LIMIT_S = 60
#: the speed reference, run as a process of its own like the CLI
REFERENCE = Path(__file__).resolve().with_name("reference.py")
REFERENCE_OUTPUT = '{"reached": 17982, "total": "2780816/765"}'
#: reported times are seconds on a machine where reference.py takes this long
REFERENCE_S = 0.15
#: a reference run after a set-up or call once this much timed work has passed
REFERENCE_EVERY_S = 0.5

#: known faults that make calls fail today; see README.md
FAULTS = {
    "F1": "find_fii recurses once per vertex: RecursionError, traceback, exit 1",
    "F2": "static branch order, no component split: search budget runs out",
}


@dataclass
class Row:
    sub: str
    label: str
    code: int
    wall_s: float
    rss_mib: float
    verdict: str
    reason: str | None
    known: bool

    @property
    def ok(self) -> bool:
        return self.reason is None


def judge(op, code: int, out: str, err: str) -> tuple[str, str | None, bool]:
    """(verdict, failure reason or None, failure is the op's known fault)."""
    lines = [line for line in out.splitlines() if line.strip()]
    doc = None
    if len(lines) == 1:
        try:
            doc = json.loads(lines[0])
        except json.JSONDecodeError:
            pass
    if not isinstance(doc, dict):
        doc = None
    if doc is None:
        verdict = "crash" if "Traceback" in err else "no-json"
    else:
        verdict = doc.get("status") or doc.get("error") or \
            {0: "computed", 1: "violated", 3: "unknown"}.get(code, f"exit-{code}")
    if code != op.expect:
        reason = f"exit {code}, expected {op.expect}"
    elif doc is None:
        reason = f"{len(lines)} output lines, expected one JSON document"
    else:
        try:
            reason = op.check(doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            reason = f"malformed answer: {type(exc).__name__}: {exc}"
    known = reason is not None and (
        (op.fault == "F1" and code == 1 and doc is None and "RecursionError" in err)
        or (op.fault == "F2" and code == 3 and doc is not None
            and doc.get("status") == "unknown"))
    if known:
        reason = f"{op.fault}: {reason}"
    return verdict, reason, known


class Cli:
    """Runs ``python -m starpart.cli`` in a child process and measures it."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.out = scratch / "stdout"
        self.err = scratch / "stderr"
        # a fixed hash seed keeps set and dict order, and so timing, the same
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def call(self, args: list[str]) -> tuple[int, str, str, float, float]:
        """(exit code, stdout, stderr, wall seconds, peak RSS MiB)."""
        return self.run([sys.executable, "-m", "starpart.cli", "--json",
                         "--timeout-ms", str(BUDGET_MS), *args])

    def run(self, argv: list[str]) -> tuple[int, str, str, float, float]:
        with open(self.out, "w+") as out, open(self.err, "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=self.root, env=self.env)
            timer = threading.Timer(CALL_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024


class Reference:
    """The machine's speed over one run.

    On a shared virtual machine the CPU speed drifts by tens of percent
    within a minute, with the load of other guests, so raw times of the
    same code spread more from run to run than any bound could allow.
    ``reference.py`` is run before the first timed set-up, after each
    set-up or call that ends at least ``REFERENCE_EVERY_S`` of timed work
    since the last reference run, and after the last call.  Every time of
    the run is scaled by ``REFERENCE_S`` over the median reference time, so
    it reads as seconds on a machine where the reference takes
    ``REFERENCE_S``.  The reference shares no code with starpart, so a
    change to the program moves the scaled times by the same share as the
    raw ones.
    """

    def __init__(self, cli: Cli):
        self.cli = cli
        self.times: list[float] = []
        self.since = 0.0
        self.sample()

    def sample(self) -> None:
        code, out, err, wall, _ = self.cli.run([sys.executable, str(REFERENCE)])
        if code != 0 or out.strip() != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference.py failed (exit {code}): {out}{err}")
        self.times.append(wall)
        self.since = 0.0

    def after(self, seconds: float) -> None:
        self.since += seconds
        if self.since >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """REFERENCE_S over the median reference time, after a last sample."""
        if self.since > 0:
            self.sample()
        return REFERENCE_S / statistics.median(self.times)


def scaled(row: Row, scale: float) -> float:
    """A call's time at the reference speed.  A call that ran out of its
    search budget (exit 3) waited the budget out in wall time, whatever the
    machine's speed, so only the rest of its time is scaled."""
    fixed = BUDGET_MS / 1000 if row.code == 3 else 0.0
    return (row.wall_s - fixed) * scale + fixed


def hd_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: the mean of the order
    statistics weighted by a Beta((n+1)/2, (n+1)/2) density.  It uses all
    the middle values instead of one or two, so it moves less than the
    sample median from run to run when the calls near the middle differ."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t * (1 - t)) - log_beta) if 0 < t < 1 else 0.0

    steps = 32  # Simpson's rule over each order statistic's 1/n of [0, 1]
    weights = []
    for i in range(n):
        h = 1 / n / steps
        weights.append(h / 3 * sum((1 if k in (0, steps) else 4 if k % 2 else 2)
                                   * density(i / n + k * h) for k in range(steps + 1)))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def timed_setups(wl, quick: bool, ref: Reference) -> list[float]:
    """At least SETUP_REPEATS set-ups, more while they add up to under
    SETUP_MIN_S, so that a short set-up still gives a steady median."""
    times: list[float] = []
    while not times or not quick and (len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S
                                      and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
        ref.after(times[-1])
    return times


def run_rounds(wl, cli: Cli, seconds: float, once: bool,
               ref: Reference) -> list[list[Row]]:
    """Whole rounds of the workload's calls.  Another round starts while
    more than half a round's time is left, so a run lasts ``seconds``
    give or take half a round."""
    rounds: list[list[Row]] = []
    start = time.perf_counter()
    while True:
        rows = []
        for op in wl.ops(len(rounds)):
            code, out, err, wall, rss = cli.call(op.args)
            verdict, reason, known = judge(op, code, out, err)
            rows.append(Row(op.sub, op.label, code, wall, rss, verdict, reason, known))
            ref.after(wall)
        rounds.append(rows)
        elapsed = time.perf_counter() - start
        if once or elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def tiny_graph(workdir: Path) -> Path:
    path = workdir / "triangle.el"
    path.write_text("0 1\n1 2\n0 2\n")
    return path


def environment(root: Path, args, wl) -> dict:
    rev = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            rev = "unknown"
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git": rev, "timeout_ms": BUDGET_MS, "workload": wl.name, "seed": args.seed,
            "input_seeds": wl.input_seeds(), "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick}


def print_rows(rows: list[Row]) -> None:
    print(f"{'subcommand':16} {'exit':>4} {'wall_s':>8} {'rss_mib':>8} "
          f"{'verdict':11} input / failure")
    for r in rows:
        tail = r.label + (f"  FAILED {r.reason}" if r.reason else "")
        print(f"{r.sub:16} {r.code:>4} {r.wall_s:8.3f} {r.rss_mib:8.1f} {r.verdict:11} {tail}")


def run_workload(root: Path, name: str, args) -> dict:
    import tracing
    import workloads

    workdir = root / ".perfbench" / f"{name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](args.seed, args.quick, workdir)
        cli = Cli(root, workdir)
        if args.trace:
            startup = [cli.call(["girth", str(tiny_graph(workdir))])[3] for _ in range(3)]
            rows = []
            metrics = tracing.traced_round(
                wl, BUDGET_MS, statistics.median(startup),
                lambda op, code, out, err, wall: rows.append(
                    Row(op.sub, op.label, code, wall, 0.0, *judge(op, code, out, err))))
        else:
            cli.call(["girth", str(tiny_graph(workdir))])  # warm-up: byte-compile
            ref = Reference(cli)
            setups = timed_setups(wl, args.quick, ref)
            rounds = run_rounds(wl, cli, args.seconds, args.quick, ref)
            scale = ref.scale()
            rows = [r for rnd in rounds for r in rnd]

            def summary(time_of) -> dict:
                # one round's time is each call's median over the rounds, summed
                return {"wall_s": sum(statistics.median(time_of(rnd[i]) for rnd in rounds)
                                      for i in range(len(rounds[0]))),
                        "op_p50_s": hd_median([time_of(r) for r in rows])}

            unscaled = dict(summary(lambda r: r.wall_s), setup_s=statistics.median(setups))
            metrics = {k: {"value": v, "unit": "s"} for k, v in
                       summary(lambda r: scaled(r, scale)).items()}
            metrics["setup_s"] = {"value": unscaled["setup_s"] * scale, "unit": "s"}
            metrics["peak_rss_mib"] = {"value": max(r.rss_mib for r in rows), "unit": "MiB"}
            print(f"# {len(rounds)} rounds, {len(setups)} set-ups; unscaled "
                  + ", ".join(f"{k} {v:.4f}" for k, v in unscaled.items())
                  + f"; scale {scale:.4f} from {len(ref.times)} reference runs: "
                  + " ".join(f"{t:.3f}" for t in ref.times))
        env = environment(root, args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_rows(rows)
    for fault, text in FAULTS.items():
        hits = sum(1 for r in rows if r.known and r.reason.startswith(fault))
        if hits:
            print(f"# {fault} ({text}): {hits} failed calls")
    print("# env " + json.dumps(env, sort_keys=True))
    return {"correct": all(r.ok or r.known for r in rows), "attempted": len(rows),
            "failed": sum(1 for r in rows if not r.ok), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("partition", "generate", "audit"),
                    help="one workload; without it all three run in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one round on reduced inputs, for smoke tests only")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "starpart" / "cli.py").is_file():
        sys.stderr.write("perfbench: no src/starpart here; run from the root of a "
                         "starpart checkout\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload:
        print(json.dumps(run_workload(root, args.workload, args), sort_keys=True))
        return 0
    ok = True
    for name in ("partition", "generate", "audit"):
        result = run_workload(root, name, args)
        ok = ok and result["correct"]
        print(f"# {name}: " + json.dumps(result, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
