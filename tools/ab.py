#!/usr/bin/env python3
"""Paired A/B runs of the benchmark on two commits.

Run from the root of a starpart checkout (stdlib and git only):

    python3 tools/ab.py BASE HEAD --workload partition --pairs 10 --tag NAME

Both commits are extracted with ``git archive`` into one scratch directory,
in one step, so neither tree is older than the other; a tree holds no
``__pycache__`` when it is made, and every one is removed again before each
run.  The two trees must carry byte-identical ``perfbench/`` directories.
Pair i runs ``perfbench/run.py --workload W --seed S_i --seconds R``
unchanged in each tree, where S_i is ``SEEDS[i]`` and R is ``run_seconds``
from ``BENCHMARK.json``; the base runs first in even pairs and the head in
odd ones.  ``BENCH_<tag>.json`` at the root of the checkout gets both
commits, every run's metrics, counts and ``# env`` line, and for each
end-to-end metric of ``BENCHMARK.json`` both sides' medians and quartiles,
the head's wins and ties, and a verdict; beside them, under ``calls``, each
side's failed and attempted calls over all pairs, and whether the head
failed a larger share of them (such a head is worse whatever the verdicts
say).  Under ``output`` it records whether both trees print the same:
before the timed pairs, each tree runs one round of the workload's calls
in-process (``tracing.call_inprocess``, judged by ``run.judge``) at the
first pair's seed, and ``differ`` lists the argv of every call whose exit
code or stdout differs, the work directory's path read as ``<workdir>``;
``incorrect`` lists each side's calls that fail the harness's check.  This
is a record, not a gate.  The verdicts:

- ``gain``: the head wins at least nine tenths of the pairs, and the medians
  differ by more than the distance between the base's quartiles;
- ``worse``: the head's median is worse than the base's by more than the
  metric's bound, read as a fraction of the base's median;
- ``unresolved``: the base's own quartiles lie further apart than that
  bound, and not every head run is better than every base run, so the runs
  cannot tell "within bound" from worse;
- ``within bound`` otherwise.

The runs inherit this process's environment, ``PYTHONDONTWRITEBYTECODE``
included (recorded in the file), less ``PYTHONPYCACHEPREFIX``, so that each
tree's bytecode stays in the tree that every run starts by clearing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: stands for the work directory in the argv and stdout of an output round
WORKDIR = "<workdir>"

#: the bench seed of each pair, in order; both sides of a pair share it
SEEDS = (9101, 9102, 9103, 9104, 9105, 9106, 9107, 9108, 9109, 9110,
         9111, 9112, 9113, 9114, 9115, 9116, 9117, 9118, 9119, 9120)


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          check=True).stdout


def extract(root: Path, commit: str, into: Path) -> None:
    """The tree of ``commit`` as files under ``into``."""
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], check=True,
                   input=git(root, "archive", "--format=tar", commit))


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line and env."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"ab: run in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[6:]) for line in lines
                if line.startswith("# env ")), None)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": env}


def round_rows(workload: str, seed: str, workdir: str) -> list[dict]:
    """One round of ``workload``'s calls at bench seed ``seed``, each run
    in-process and judged as the harness judges it.  Run by ``outputs`` in
    a process of its own whose working directory is a tree."""
    sys.path[:0] = ["src", "perfbench"]
    import run
    import tracing
    import workloads
    wl = workloads.WORKLOADS[workload](int(seed), False, Path(workdir))
    wl.setup()
    rows = []
    for op in wl.ops(0):
        code, out, err = tracing.call_inprocess(
            ["--json", "--timeout-ms", str(run.BUDGET_MS), *op.args])
        rows.append({"argv": [a.replace(workdir, WORKDIR) for a in op.args],
                     "code": code, "stdout": out.replace(workdir, WORKDIR),
                     "reason": run.judge(op, code, out, err)[1]})
    return rows


def outputs(tree: Path, workload: str, seed: int, workdir: Path) -> list[dict]:
    """``round_rows`` in ``tree``, in a child process with the harness's
    fixed hash seed."""
    workdir.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import ab; "
            "print(json.dumps(ab.round_rows(*sys.argv[2:])))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent),
         workload, str(seed), str(workdir)],
        cwd=tree, env=dict(env, PYTHONHASHSEED="0"), capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"ab: output round in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare(base: list[dict], head: list[dict]) -> dict:
    """The calls of two rounds, the argv of each whose exit code or stdout
    differs, and each side's calls that failed their check."""
    return {"calls": len(base),
            "differ": [b["argv"] for b, h in zip(base, head, strict=True)
                       if (b["code"], b["stdout"]) != (h["code"], h["stdout"])],
            "incorrect": {side: [r["argv"] for r in rows if r["reason"]]
                          for side, rows in (("base", base), ("head", head))}}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    base = [p["base"]["metrics"][name] for p in pairs]
    head = [p["head"]["metrics"][name] for p in pairs]
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    b, h = quartiles(base), quartiles(head)
    gain = sign * (b["median"] - h["median"])
    if wins >= 0.9 * len(pairs) and gain > b["q3"] - b["q1"]:
        verdict = "gain"
    elif -gain > metric["bound"] * abs(b["median"]):
        verdict = "worse"
    elif b["q3"] - b["q1"] > metric["bound"] * abs(b["median"]) and \
            max(sign * x for x in head) >= min(sign * x for x in base):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "base": b, "head": h, "head_wins": wins,
            "ties": sum(x == y for x, y in zip(base, head)), "pairs": len(pairs),
            "verdict": verdict}


def calls(pairs: list[dict]) -> dict:
    """Each side's failed and attempted calls summed over ``pairs``, and
    whether the head's failed share is the larger."""
    out = {side: {k: sum(p[side][k] for p in pairs)
                  for k in ("failed", "attempted")} for side in ("base", "head")}
    b, h = out["base"], out["head"]
    out["head_fails_more"] = h["failed"] * b["attempted"] > \
        b["failed"] * h["attempted"]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True,
                    choices=("partition", "generate", "audit"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    if not 2 <= args.pairs <= len(SEEDS):  # quartiles need two runs a side
        ap.error(f"--pairs must be 2..{len(SEEDS)}")
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    commits = {side: git(root, "rev-parse", "--verify", f"{ref}^{{commit}}")
               .decode().strip() for side, ref in (("base", args.base),
                                                   ("head", args.head))}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {side: Path(scratch, side) for side in commits}
        for side, commit in commits.items():
            extract(root, commit, trees[side])
        if tree_bytes(trees["base"] / "perfbench") != \
                tree_bytes(trees["head"] / "perfbench"):
            raise SystemExit("ab: the two commits differ under perfbench/")
        output = compare(*(outputs(trees[side], args.workload, SEEDS[0],
                                   Path(scratch, f"out-{side}"))
                           for side in ("base", "head")))
        print("ab: output " + json.dumps(output, sort_keys=True), flush=True)
        for i, seed in enumerate(SEEDS[:args.pairs]):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed,
                                      bench["run_seconds"])
            pairs.append(pair)
            print(f"ab: pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{m['name']} {pair['base']['metrics'][m['name']]:.4g} -> "
                f"{pair['head']['metrics'][m['name']]:.4g}"
                for m in bench["end_to_end"]), file=sys.stderr, flush=True)
    doc = {"tag": args.tag, "workload": args.workload,
           "base": {"ref": args.base, "commit": commits["base"]},
           "head": {"ref": args.head, "commit": commits["head"]},
           "run_seconds": bench["run_seconds"],
           "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "machine": {"python": platform.python_version(),
                       "nproc": len(os.sched_getaffinity(0)),
                       "platform": platform.platform()},
           "environ": {"PYTHONDONTWRITEBYTECODE":
                       os.environ.get("PYTHONDONTWRITEBYTECODE")},
           "pairs": pairs, "calls": calls(pairs), "output": output,
           "summary": {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]}}
    out = root / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, s in doc["summary"].items():
        print(f"{name:14} base {s['base']['median']:.4g} "
              f"[{s['base']['q1']:.4g}, {s['base']['q3']:.4g}]  head "
              f"{s['head']['median']:.4g} [{s['head']['q1']:.4g}, "
              f"{s['head']['q3']:.4g}]  wins {s['head_wins']}/{s['pairs']}  "
              f"{s['verdict']}")
    c = doc["calls"]
    print(f"{'failed calls':14} base {c['base']['failed']}/"
          f"{c['base']['attempted']}  head {c['head']['failed']}/"
          f"{c['head']['attempted']}"
          + ("  HEAD FAILS A LARGER SHARE" if c["head_fails_more"] else ""))
    print(f"ab: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
