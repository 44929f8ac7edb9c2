"""Command-line interface.

One subcommand per operation; with ``--json`` every run emits exactly one
JSON document (schema version 1) on stdout, otherwise a short human
summary.  Exit codes: 0 computed, 1 property violated / infeasible,
2 usage or input error, 3 timeout ("unknown"), 4 internal error (a fault
in starpart itself; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import configs, density, discharging, fii, generators, starcolor
from .graphs import (FORMATS, Graph, GraphError, parse_graph, serialize_graph,
                     girth, classify_vertices, find_pendent_triangles, INFINITY)

SCHEMA = 1

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4

_ERROR_KINDS = {EXIT_VIOLATED: "violated", EXIT_USAGE: "usage",
                EXIT_INTERNAL: "internal"}


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _load_graph(args) -> Graph:
    try:
        return parse_graph(_read_text(args.file), args.format)
    except GraphError as exc:
        raise _CliError(f"bad graph input: {exc}") from exc


def _load_list(path: str, what: str, key: str, n: int,
               types: tuple[type, ...]) -> tuple[list, dict]:
    """The per-vertex list of a JSON ``what`` file, given either bare or
    under ``key`` of an object, and that object.  Any other shape, length
    or item type is a usage error."""
    doc = json.loads(_read_text(path))
    obj = doc if isinstance(doc, dict) else {key: doc}
    items = obj.get(key)
    if not isinstance(items, list):
        raise _CliError(f"{what} must be a JSON list or an object with a "
                        f"{key!r} list")
    if len(items) != n:
        raise _CliError(f"{what} covers {len(items)} vertices, graph has {n}")
    for x in items:
        if isinstance(x, bool) or not isinstance(x, types):
            raise _CliError(f"{what} entry {x!r} is not "
                            + " or ".join(t.__name__ for t in types))
    return items, obj


def _frac(x: Fraction) -> int | str:
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(human + "\n")


def _emit_graph(args, g: Graph) -> int:
    """Write ``g`` to ``--out`` where the subcommand has it, else print it:
    as ``{"graph", "n", "m"}`` under ``--json``, as plain text otherwise."""
    text = serialize_graph(g, args.out_format)
    text += "" if text.endswith("\n") else "\n"
    out = getattr(args, "out", None)
    if out:
        _write_text(Path(out), text)
        _emit(args, {"written": out, "n": g.n, "m": g.edge_count},
              f"wrote {out} ({g.n} vertices, {g.edge_count} edges)")
    elif args.json:
        _emit(args, {"graph": text.strip(), "n": g.n, "m": g.edge_count}, "")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _timeout_s(ms: int | None) -> float | None:
    """The search budget in seconds; ``None`` (no option) means no limit."""
    if ms is not None and ms <= 0:
        raise _CliError(f"--timeout-ms must be positive, got {ms}")
    return None if ms is None else ms / 1000.0


# -- subcommand handlers: (args, input graph or None) -> exit code -------------

def _cmd_mad(args, g: Graph) -> int:
    d = density.mad(g)
    # mad <= 8/3 follows from the exact value; only a violation needs its set
    ok83, violation = ((True, None) if d.value <= Fraction(8, 3)
                       else density.mad_le_8_3(g))
    payload = {"value": _frac(d.value), "witness": list(d.witness),
               "le_8_3": ok83,
               "violating_set": list(violation) if violation else None}
    _emit(args, payload, f"mad = {_frac(d.value)} witness {list(d.witness)}"
          f" (mad <= 8/3: {ok83})")
    return EXIT_OK


def _cmd_rho_star(args, g: Graph) -> int:
    seed = _parse_vertices(args.seed, g.n)
    res = density.rho_star(g, seed)
    payload = {"value": res.value, "witness": list(res.minimizer),
               "seed": sorted(seed)}
    _emit(args, payload, f"rho* = {res.value} minimizer {list(res.minimizer)}")
    return EXIT_OK


def _parse_vertices(spec: str | None, n: int) -> list[int]:
    if not spec:
        return []
    try:
        vs = [int(tok) for tok in spec.replace(",", " ").split()]
    except ValueError as exc:
        raise _CliError(f"bad vertex list {spec!r}") from exc
    for v in vs:
        if not 0 <= v < n:
            raise _CliError(f"vertex {v} out of range 0..{n - 1}")
    return vs


def _cmd_girth(args, g: Graph) -> int:
    val = girth(g)
    out = "infinity" if val == INFINITY else int(val)
    _emit(args, {"girth": out}, f"girth = {out}")
    return EXIT_OK


def _cmd_classify(args, g: Graph) -> int:
    cls = classify_vertices(g)
    tris = find_pendent_triangles(g)
    payload = {"classes": [c.value for c in cls],
               "degrees": g.degrees(),
               "pendent_triangles": [list(t.cycle) for t in tris]}
    human = "\n".join(f"{v} ({g.name_of(v)}): {cls[v].value}" for v in range(g.n)) \
        or "(empty graph)"
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_star_verify(args, g: Graph) -> int:
    colors, doc = _load_list(args.coloring, "coloring", "colors", g.n, (int,))
    palette = doc.get("palette_size") or max(colors, default=0) + 1
    if isinstance(palette, bool) or not isinstance(palette, int):
        raise _CliError(f"palette_size {palette!r} is not int")
    coloring = starcolor.Coloring(tuple(colors), palette)
    ok, witness = starcolor.is_star_coloring(g, coloring)
    payload = {"valid": ok,
               "violation": {"kind": witness[0], "vertices": list(witness[1])}
               if witness else None}
    _emit(args, payload, "valid star coloring" if ok
          else f"violation: {witness[0]} {list(witness[1])}")
    return EXIT_OK if ok else EXIT_VIOLATED


def _cmd_star_color(args, g: Graph) -> int:
    try:
        res = starcolor.star_chromatic_number(g, args.limit, force=args.force)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    if res is None:
        _emit(args, {"chi_s": None, "exceeds_limit": args.limit},
              f"star chromatic number exceeds limit {args.limit}")
        return EXIT_VIOLATED
    k, coloring = res
    payload = {"chi_s": k, "coloring": list(coloring.colors)}
    _emit(args, payload, f"chi_s = {k} coloring {list(coloring.colors)}")
    return EXIT_OK


def _cmd_fii_find(args, g: Graph) -> int:
    res = fii.find_fii(g, args.k, forcing=not args.no_forcing,
                       timeout_s=args.timeout_s)
    payload = {"status": res.status, "k": args.k, "nodes": res.nodes,
               "forced": res.forced, "exhausted": res.exhausted,
               "partition": res.partition.names() if res.partition else None}
    _emit(args, payload, f"{res.status} (nodes {res.nodes}, forced {res.forced})")
    if res.status == "feasible":
        return EXIT_OK
    return EXIT_TIMEOUT if res.status == "unknown" else EXIT_VIOLATED


def _cmd_fii_verify(args, g: Graph) -> int:
    labels, _ = _load_list(args.partition, "partition", "labels", g.n, (int, str))
    part = fii.FiiPartition(tuple(fii.parse_label(l, args.k) if isinstance(l, str)
                                  else l for l in labels), args.k)
    ok, witness = fii.verify_fii(g, part)
    payload = {"valid": ok,
               "violation": {"kind": witness[0], "detail": list(witness[1])}
               if witness else None}
    _emit(args, payload, "valid partition" if ok
          else f"violation: {witness[0]} {list(witness[1])}")
    return EXIT_OK if ok else EXIT_VIOLATED


def _cmd_star5(args, g: Graph) -> int:
    res = fii.find_fii(g, 2, timeout_s=args.timeout_s)
    if res.status == "unknown":
        _emit(args, {"status": "unknown"}, "unknown (timeout)")
        return EXIT_TIMEOUT
    if res.status == "infeasible":
        _emit(args, {"status": "infeasible", "nodes": res.nodes,
                     "exhausted": res.exhausted},
              f"no FII-partition (exhausted, nodes {res.nodes})")
        return EXIT_VIOLATED
    coloring = fii.fii_to_star5(g, res.partition)
    ok, _ = starcolor.is_star_coloring(g, coloring)
    payload = {"status": "feasible", "partition": res.partition.names(),
               "coloring": list(coloring.colors), "verified": ok}
    _emit(args, payload, f"star 5-coloring {list(coloring.colors)}")
    return EXIT_OK


def _cmd_boundary(args, _) -> int:
    try:
        paths = sorted(Path(args.corpus).iterdir())
    except OSError as exc:
        raise _CliError(f"cannot read corpus directory: {exc}") from exc
    corpus = []
    for p in paths:
        if p.is_file():
            try:
                corpus.append((p.name, parse_graph(p.read_text(), args.format)))
            except GraphError as exc:
                raise _CliError(f"bad graph in {p.name}: {exc}") from exc
    report = fii.boundary_search(args.k, corpus, timeout_s=args.timeout_s)
    payload = {
        "k": args.k,
        "entries": [{"name": e.name, "n": e.n, "mad": _frac(e.mad),
                     "status": e.status} for e in report.entries],
        "min_infeasible_mad": _frac(report.min_infeasible_mad)
        if report.min_infeasible_mad is not None else None,
        "unknown": report.unknown_count,
        "note": "empirical bound only",
    }
    human = (f"k={args.k}: {len(report.entries)} graphs, "
             f"min infeasible mad = {payload['min_infeasible_mad']}")
    _emit(args, payload, human)
    return EXIT_TIMEOUT if report.unknown_count else EXIT_OK


def _cmd_config_scan(args, g: Graph) -> int:
    ids = tuple(args.ids.split(",")) if args.ids else None
    try:
        matches = configs.scan_configs(g, ids)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    payload = {"matches": [
        {"config": m.config_id,
         "vertices": {k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in m.vertices}}
        for m in matches]}
    human = "\n".join(f"{m.config_id}: {dict(m.vertices)}" for m in matches) \
        or "no matches"
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_lemma_check(args, g: Graph) -> int:
    matches = configs.scan_configs(g, (args.config,))
    if not matches:
        raise _CliError(f"no {args.config} match in input", EXIT_VIOLATED)
    if args.match:
        roles = json.loads(_read_text(args.match))
        if not isinstance(roles, dict):
            raise _CliError("match must be a JSON object mapping roles to "
                            "vertices")
        wanted = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in roles.items()}
        picked = [m for m in matches
                  if all(m.role(k) == v for k, v in wanted.items())]
        if not picked:
            raise _CliError(f"no {args.config} match with roles {wanted}")
        match = picked[0]
    elif 0 <= args.match_index < len(matches):
        match = matches[args.match_index]
    else:
        raise _CliError(f"--match-index {args.match_index} out of range "
                        f"0..{len(matches) - 1}")
    report = configs.verify_lemma_extension(g, match)
    payload = {"config": args.config,
               "deleted": list(report.plan.deleted),
               "mods": [list(m) for m in report.plan.mods],
               "h_partitions": report.h_partitions,
               "distinct_restrictions": report.distinct_restrictions,
               "extended": report.extended,
               "vacuous": report.vacuous,
               "passed": report.passed,
               "failures": [list(f) for f in report.failures[:5]]}
    human = (f"{args.config}: {report.extended}/{report.h_partitions} "
             f"partitions extend"
             + (" (vacuous)" if report.vacuous else ""))
    _emit(args, payload, human)
    return EXIT_OK if report.passed else EXIT_VIOLATED


def _cmd_attach(args, g: Graph) -> int:
    try:
        gadget = configs.gadget_by_name(args.gadget)
        result = configs.attach_gadget(g, args.at, gadget)
    except (ValueError, GraphError) as exc:
        raise _CliError(str(exc)) from exc
    return _emit_graph(args, result)


def _cmd_discharge(args, g: Graph) -> int:
    table = discharging.run_discharging(g)
    payload = {
        "initial": [_frac(x) for x in table.initial],
        "final": [_frac(x) for x in table.final],
        "total": _frac(table.total),
        "transfers": [{"from": t.source, "to": t.target,
                       "amount": _frac(t.amount), "rule": t.rule}
                      for t in table.transfers],
    }
    _emit(args, payload,
          f"total charge {_frac(table.total)} = 2|E| over {g.n} vertices, "
          f"{len(table.transfers)} transfers")
    return EXIT_OK


def _cmd_discharge_audit(args, g: Graph) -> int:
    report = discharging.audit_final_charges(g)
    payload = {"deficits": [
        {"vertex": d.vertex, "final": _frac(d.final),
         "nearby_configs": list(d.nearby_configs), "special": d.special}
        for d in report.deficits]}
    human = "no deficits" if report.clean else "\n".join(
        f"vertex {d.vertex}: {_frac(d.final)} < 8/3, near {list(d.nearby_configs)}"
        + (f" [{d.special}]" if d.special else "")
        for d in report.deficits)
    _emit(args, payload, human)
    return EXIT_OK if report.clean else EXIT_VIOLATED


def _cmd_terminal_partition(args, g: Graph) -> int:
    res = discharging.build_terminal_partition(g)
    if not res.applicable:
        _emit(args, {"applicable": False, "reason": res.reason},
              f"inapplicable: {res.reason}")
        return EXIT_VIOLATED
    payload = {"applicable": True,
               "degenerate": list(res.degenerate),
               "partition": res.partition.names(),
               "sets": {name: list(vs) for name, vs in vars(res.sets).items()}}
    _emit(args, payload, f"FII-partition {res.partition.names()}")
    return EXIT_OK


def _cmd_gen_corpus(args, _) -> int:
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot write {outdir}: {exc}") from exc
    names = []
    for name, g in generators.gen_corpus(args.count, args.n_max,
                                         Fraction(args.bound), args.seed):
        path = outdir / f"{name}.g6"
        _write_text(path, serialize_graph(g, "graph6") + "\n")
        names.append(path.name)
    _emit(args, {"written": names, "dir": str(outdir)},
          f"wrote {len(names)} graphs to {outdir}")
    return EXIT_OK


# -- parser -----------------------------------------------------------------

_FORMAT = ("--format", {"default": "auto", "choices": ("auto",) + FORMATS})
_OUT_FORMAT = ("--out-format", {"default": "graph6", "choices": FORMATS})
_K = ("-k", {"type": int, "default": 2})
_N = ("-n", {"type": int, "required": True})

#: (name, help, handler, reads a graph file, options); a graph file adds the
#: positional ``file`` and ``--format`` ahead of the options
COMMANDS = (
    ("mad", "exact maximum average degree", _cmd_mad, True, []),
    ("rho-star", "constrained potential minimum", _cmd_rho_star, True,
     [("--seed", {"default": "", "help": "comma-separated seed vertices"})]),
    ("girth", "shortest cycle length", _cmd_girth, True, []),
    ("classify", "vertex taxonomy", _cmd_classify, True, []),
    ("star-verify", "check a star coloring", _cmd_star_verify, True,
     [("--coloring", {"required": True, "help": "JSON coloring file"})]),
    ("star-color", "exact star chromatic number", _cmd_star_color, True,
     [("--limit", {"type": int}),
      ("--force", {"action": "store_true",
                   "help": "allow exact search beyond the size cap"})]),
    ("fii-find", "find an FI_k-partition or prove none", _cmd_fii_find, True,
     [_K, ("--no-forcing", {"action": "store_true"})]),
    ("fii-verify", "check an FI_k-partition", _cmd_fii_verify, True,
     [("--partition", {"required": True, "help": "JSON partition file"}), _K]),
    ("star5", "find partition, convert, verify", _cmd_star5, True, []),
    ("boundary", "feasibility sweep over a corpus", _cmd_boundary, False,
     [("-k", {"type": int, "required": True}),
      ("--corpus", {"required": True, "help": "directory of graph files"}),
      _FORMAT]),
    ("config-scan", "scan reducible configurations", _cmd_config_scan, True,
     [("--ids", {"help": "comma-separated (e.g. C5,Cp1)"})]),
    ("lemma-check", "instance-level extension check", _cmd_lemma_check, True,
     [("--config", {"required": True}),
      ("--match", {"help": "JSON role map selecting one match"}),
      ("--match-index", {"type": int, "default": 0})]),
    ("attach", "graft a gadget, print the new graph", _cmd_attach, True,
     [("--at", {"type": int, "required": True}),
      ("--gadget", {"required": True,
                    "help": "triangle | J1 | J2 | edge:V | path2:V"}),
      _OUT_FORMAT]),
    ("discharge", "run the charge rules", _cmd_discharge, True, []),
    ("discharge-audit", "final-charge deficit audit", _cmd_discharge_audit,
     True, []),
    ("terminal-partition", "end-state construction", _cmd_terminal_partition,
     True, []),
    ("gen", "graph family generators", None, False, []),
)

#: ``gen`` families: (name, handler, options); the generators are looked up
#: at call time, so that wrappers installed on the module are seen
GEN_FAMILIES = (
    ("g5n", lambda args, _: _emit_graph(args, generators.gen_g5n(args.n)),
     [_N, ("--out", {}), _OUT_FORMAT]),
    ("corpus", _cmd_gen_corpus,
     [("--count", {"type": int, "required": True}),
      ("--n-max", {"type": int, "default": 14}),
      ("--bound", {"default": "8/3"}),
      ("--seed", {"type": int, "default": 0}),
      ("--out", {"required": True})]),
    ("cycle", lambda args, _: _emit_graph(args, generators.gen_cycle(args.n)),
     [_N, _OUT_FORMAT]),
    ("path", lambda args, _: _emit_graph(args, generators.gen_path(args.n)),
     [_N, _OUT_FORMAT]),
)


def _add_options(parser, handler, reads_graph: bool, options) -> None:
    if reads_graph:
        parser.add_argument("file", help="input graph file, or - for stdin")
        parser.add_argument(_FORMAT[0], **_FORMAT[1])
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(fn=handler)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starpart",
        description="Exact star-coloring / sparse-partition toolkit.")
    ap.add_argument("--json", action="store_true",
                    help="emit one JSON document on stdout")
    ap.add_argument("--timeout-ms", type=int, default=None,
                    help="search budget, a positive number of milliseconds; "
                    "expiry exits 3 with status unknown")
    sp = ap.add_subparsers(dest="command", required=True)
    for name, help_text, handler, reads_graph, options in COMMANDS:
        _add_options(sp.add_parser(name, help=help_text), handler,
                     reads_graph, options)
    gsub = sp.choices["gen"].add_subparsers(dest="family", required=True)
    for name, handler, options in GEN_FAMILIES:
        _add_options(gsub.add_parser(name), handler, False, options)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.timeout_s = _timeout_s(args.timeout_ms)
        return args.fn(args, _load_graph(args) if "file" in args else None)
    except _CliError as exc:
        code, detail = exc.code, str(exc)
    except (GraphError, ValueError, KeyError, json.JSONDecodeError) as exc:
        code, detail = EXIT_USAGE, str(exc)
    except BrokenPipeError:
        return EXIT_USAGE
    except Exception as exc:  # a fault in starpart, never a verdict
        import traceback  # here, to keep it off every call's start-up time
        traceback.print_exc()
        code, detail = EXIT_INTERNAL, f"{type(exc).__name__}: {exc}"
    kind = _ERROR_KINDS[code]
    if args.json:
        doc = {"schema": SCHEMA, "error": kind, "detail": detail}
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        prefix = "internal: " if code == EXIT_INTERNAL else ""
        sys.stderr.write(f"error: {prefix}{detail}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
