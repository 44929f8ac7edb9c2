"""Per-layer metrics from one traced, in-process round of a workload.

Each layer's public functions are wrapped where the calling modules look
them up, and every call records a span (name, start, end, parent span,
operation id).  Spans stay in memory until the round ends.  A layer's
``_s`` metric is the summed self time of its spans: span time minus the
time of its direct child spans.  ``cli.<subcommand>_s`` is the whole
in-process ``starpart.cli.main`` call, children included, and
``cli.startup_s`` the wall time of a trivial CLI process.  Generator
functions get one span per item produced.  Counts come from return
values; node counts cover only searches that finish, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import functools
import inspect
import io
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout

#: wrapped functions per module, with the metric name each one reports
LAYERS = {
    "graphs": {"parse_graph6": "parse_graph6", "to_graph6": "serialize_graph6",
               "parse_edge_list": "parse_edgelist", "balls2": "balls2",
               "girth": "girth", "classify_vertices": "classify_vertices"},
    "density": {"mad": "mad", "mad_le_8_3": "mad_le_8_3", "rho_star": "rho_star"},
    "fii": {"find_fii": "find_fii", "verify_fii": "verify_fii",
            "fii_to_star5": "fii_to_star5", "enumerate_fii": "enumerate_fii",
            "boundary_search": "boundary_search"},
    "starcolor": {"is_star_coloring": "is_star_coloring"},
    "configs": {"scan_configs": "scan_configs", "attach_gadget": "attach_gadget",
                "verify_lemma_extension": "verify_lemma_extension"},
    "discharging": {"run_discharging": "run_discharging",
                    "audit_final_charges": "audit_final_charges"},
    "generators": {"gen_corpus": "gen_corpus", "gen_mad_bounded": "gen_mad_bounded"},
}
SUBCOMMANDS = ("star5", "fii-find", "gen", "boundary", "mad", "rho-star", "config-scan",
               "discharge", "discharge-audit", "classify", "attach", "girth", "lemma-check")
COUNTS = ("fii.nodes", "fii.forced", "fii.budget_outs", "fii.partitions_enumerated",
          "configs.distinct_restrictions", "configs.matches", "generators.pairs_tried",
          "density.mad_calls", "discharging.transfers", "discharging.deficits")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    out = [(f"{mod}.{name}_s", "s") for mod, funcs in LAYERS.items() for name in funcs.values()]
    out += [(c, "count") for c in COUNTS]
    out += [("fii.nodes_per_s", "1/s"), ("configs.restriction_reuse_ratio", "ratio"),
            ("generators.accept_ratio", "ratio"), ("cli.startup_s", "s")]
    out += [(f"cli.{sub}_s", "s") for sub in SUBCOMMANDS]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op: str = "setup"
        self.counts: Counter = Counter()
        self.finished_searches: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.op])
        self.stack.append(sid)
        try:
            yield sid
        finally:
            self.stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def self_times(self) -> tuple[Counter, list[float]]:
        inner = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                inner[parent] += end - start
        own = [s[2] - s[1] - inner[i] for i, s in enumerate(self.spans)]
        totals: Counter = Counter()
        for s, t in zip(self.spans, own):
            totals[s[0]] += t
        return totals, own

    def count(self, fn: str, sid: int, result, args, kwargs) -> None:
        c = self.counts
        if fn == "find_fii":
            if result.status == "unknown":
                c["fii.budget_outs"] += 1
            else:
                c["fii.nodes"] += result.nodes
                c["fii.forced"] += result.forced
                self.finished_searches.append(sid)
        elif fn == "enumerate_fii":
            c["fii.partitions_enumerated"] += 1
        elif fn == "verify_lemma_extension":
            c["configs.distinct_restrictions"] += result.distinct_restrictions
            c["h_partitions"] += result.h_partitions
        elif fn == "gen_mad_bounded":
            pairs = result.n * (result.n - 1) // 2
            tries = kwargs.get("tries", args[3] if len(args) > 3 else None)
            c["generators.pairs_tried"] += pairs if tries is None else min(pairs, tries)
            c["accepted"] += result.edge_count
        elif fn == "mad":
            c["density.mad_calls"] += 1
        elif fn == "scan_configs":
            c["configs.matches"] += len(result)
        elif fn == "run_discharging":
            c["discharging.transfers"] += len(result.transfers)
        elif fn == "audit_final_charges":
            c["discharging.deficits"] += len(result.deficits)


def _wrap(tr: Tracer, span_name: str, fn_name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with tr.span(span_name) as sid:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                tr.count(fn_name, sid, item, args, kwargs)
                yield item
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tr.span(span_name) as sid:
            result = fn(*args, **kwargs)
        tr.count(fn_name, sid, result, args, kwargs)
        return result
    return traced


@contextmanager
def installed(tr: Tracer):
    """Patch every starpart module attribute that holds a wrapped function."""
    mods = [m for name, m in sys.modules.items()
            if name == "starpart" or name.startswith("starpart.")]
    patched = []
    for mod_name, funcs in LAYERS.items():
        owner = sys.modules[f"starpart.{mod_name}"]
        for fn_name, metric in funcs.items():
            original = getattr(owner, fn_name)
            wrapper = _wrap(tr, f"{mod_name}.{metric}_s", fn_name, original)
            for mod in mods:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    patched.append((mod, fn_name, original))
    try:
        yield
    finally:
        for mod, fn_name, original in patched:
            setattr(mod, fn_name, original)


def call_inprocess(argv: list[str]) -> tuple[int, str, str]:
    """starpart.cli.main in this process, with the exit code the console
    script would give (an uncaught exception exits 1 with a traceback)."""
    from starpart import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the process boundary: report it as the interpreter would
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def traced_round(wl, budget_ms: int, startup_s: float, record) -> dict:
    """Set the workload up once and run one round in-process with spans on.
    ``record(op, exit code, stdout, stderr, wall s)`` judges each call before
    the next starts, since later calls read what earlier checks wrote.
    Returns the per-layer metrics."""
    import starpart.cli  # noqa: F401  (load every module before patching)

    tr = Tracer()
    with installed(tr):
        wl.setup()
        for i, op in enumerate(wl.ops(0)):
            tr.op = f"{i}:{op.sub}"
            with tr.span(f"cli.{op.args[0]}_s") as sid:
                code, out, err = call_inprocess(["--json", "--timeout-ms", str(budget_ms),
                                                 *op.args])
            record(op, code, out, err, tr.spans[sid][2] - tr.spans[sid][1])
    totals, own = tr.self_times()
    c = tr.counts
    values = dict(c)
    for sub in SUBCOMMANDS:  # cli spans are reported whole, children included
        values[f"cli.{sub}_s"] = sum(s[2] - s[1] for s in tr.spans if s[0] == f"cli.{sub}_s")
    search_s = sum(own[i] for i in tr.finished_searches)
    values["fii.nodes_per_s"] = c["fii.nodes"] / search_s if search_s else 0.0
    values["configs.restriction_reuse_ratio"] = \
        1 - c["configs.distinct_restrictions"] / c["h_partitions"] if c["h_partitions"] else 0.0
    values["generators.accept_ratio"] = \
        c["accepted"] / c["generators.pairs_tried"] if c["generators.pairs_tried"] else 0.0
    values["cli.startup_s"] = startup_s
    metrics = {}
    for name, unit in per_layer_names():
        value = values.get(name, totals.get(name, 0))
        metrics[name] = {"value": value if unit != "count" else int(value), "unit": unit}
    return metrics
