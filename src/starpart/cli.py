"""Command-line interface.

    starpart [--json] [--timeout-ms MS] <command> [options] [FILE]
    starpart [--json] [--timeout-ms MS] gen <family> [options]

One subcommand per operation; with ``--json`` every run emits exactly one
JSON document (schema version 1) on stdout, usage errors included,
otherwise a short human summary.  Each subcommand's handler returns
(exit code, payload, human text) and prints nothing; :func:`main` prints
it through ``_emit``, the one writer of a result.  Exit codes: 0 computed,
1 property violated / infeasible, 2 usage or input error, 3 timeout
("unknown"), 4 internal error (a fault in starpart itself; the traceback
goes to stderr).  ``--timeout-ms`` gives the call one deadline, which
:func:`main` computes once, after reading the input, and hands unchanged to
every engine call; an engine past it raises ``fii.BudgetExhausted`` or
returns status "unknown", reported as ``{"status": "unknown"}``.

The ``COMMANDS`` and ``GEN_FAMILIES`` tables are the whole grammar: the
parser reads ``argv`` straight from them, and ``-h`` at any level prints
help made from them.  Global options come before the command; a
command's options may stand on either side of its file (``-`` is stdin);
a value is the next argument or follows ``=``; option names match
exactly; the last occurrence wins.  A call imports only what its
subcommand runs: no ``argparse``, and ``fractions`` only where the
mathematics is rational.

A process started as ``python -m starpart.cli`` or as the ``starpart``
script enters through :func:`run`, which caches the bytecode of the modules
it ran and ends the process once its output is flushed: no module teardown,
no final garbage collection, and no ``atexit`` hook runs (so ``coverage run
-m starpart.cli`` records nothing).  :func:`main` returns the exit code
instead, for callers in the same process, and writes no bytecode.
"""

from __future__ import annotations

import json
import os
import sys
import time
from importlib.util import MAGIC_NUMBER, source_hash
from pathlib import Path
from types import ModuleType, SimpleNamespace

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
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _load_graph(path: str, fmt: str, where: str = "input") -> Graph:
    """The graph in ``path`` (``-`` is stdin); a bad one is a usage error."""
    try:
        return parse_graph(_read_text(path), fmt)
    except GraphError as exc:
        raise _CliError(f"bad graph {where}: {exc}") from exc


def _load_json(path: str):
    """The JSON document in ``path`` (``-`` is stdin); any text ``json`` cannot
    read, too deep or with a number too long included, is a usage error."""
    try:
        return json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise _CliError(str(exc)) from exc


def _load_list(path: str, what: str, key: str,
               types: tuple[type, ...]) -> tuple[list, dict]:
    """The per-vertex list of a JSON ``what`` file, given either bare or
    under ``key`` of an object, and that object.  Any other shape or item
    type is a usage error; the engine reading the list checks its length."""
    doc = _load_json(path)
    obj = doc if isinstance(doc, dict) else {key: doc}
    items = obj.get(key)
    if not isinstance(items, list):
        raise _CliError(f"{what} must be a JSON list or an object with a "
                        f"{key!r} list")
    for x in items:
        if isinstance(x, bool) or not isinstance(x, types):
            raise _CliError(f"{what} entry {x!r} is not "
                            + " or ".join(t.__name__ for t in types))
    return items, obj


def _frac(x) -> int | str:
    """An int or a Fraction as a JSON value: the integer, else "p/q"."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _emit(args, result: tuple[int, dict, str]) -> int:
    """Print a handler's (exit code, payload, human text): the payload as one
    JSON document under ``--json``, else the text; return the exit code."""
    code, payload, human = result
    if args.json:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(human + "\n")
    return code


def _graph_result(args, g: Graph) -> tuple[int, dict, str]:
    """Write ``g`` to ``--out`` where the subcommand has it, else give it as
    ``{"graph", "n", "m"}`` and as plain text."""
    text = serialize_graph(g, args.out_format)
    text += "" if text.endswith("\n") else "\n"
    out = getattr(args, "out", None)
    if out:
        _write_text(Path(out), text)
        return (EXIT_OK, {"written": out, "n": g.n, "m": g.edge_count},
                f"wrote {out} ({g.n} vertices, {g.edge_count} edges)")
    return EXIT_OK, {"graph": text.strip(), "n": g.n, "m": g.edge_count}, text[:-1]


#: exit code of each search status
_STATUS_EXIT = {"feasible": EXIT_OK, "infeasible": EXIT_VIOLATED,
                "unknown": EXIT_TIMEOUT}


def _verdict(ok: bool, witness, key: str, valid_text: str) -> tuple[int, dict, str]:
    """A checker's answer; a ``witness`` (kind, items) puts its items under
    ``key`` of the violation."""
    if ok:
        return EXIT_OK, {"valid": True, "violation": None}, valid_text
    kind, items = witness
    return (EXIT_VIOLATED, {"valid": False, "violation": {"kind": kind, key: items}},
            f"violation: {kind} {list(items)}")


# -- subcommand handlers: (args, graph or None) -> (exit code, payload, text) --

def _cmd_mad(args, g: Graph):
    d = density.mad(g)
    # mad <= 8/3 follows from the exact value.  A violation's set is the least
    # minimizer of rho, which contains every densest set, so the orientation
    # may start with the witness dead.
    ok83 = 3 * d.value <= 8
    violation = None if ok83 else density.rho_star(g, d.witness).minimizer
    payload = {"value": _frac(d.value), "witness": d.witness, "le_8_3": ok83,
               "violating_set": violation}
    return EXIT_OK, payload, (f"mad = {_frac(d.value)} witness {list(d.witness)}"
                              f" (mad <= 8/3: {ok83})")


def _cmd_rho_star(args, g: Graph):
    seed = _parse_vertices(args.seed)
    res = density.rho_star(g, seed)
    payload = {"value": res.value, "witness": res.minimizer,
               "seed": sorted(set(seed))}
    return EXIT_OK, payload, f"rho* = {res.value} minimizer {list(res.minimizer)}"


def _parse_vertices(spec: str) -> list[int]:
    """A comma- or space-separated list; its engine checks the range."""
    try:
        return [int(tok) for tok in spec.replace(",", " ").split()]
    except ValueError as exc:
        raise _CliError(f"bad vertex list {spec!r}") from exc


def _cmd_girth(args, g: Graph):
    val = girth(g)
    out = "infinity" if val == INFINITY else int(val)
    return EXIT_OK, {"girth": out}, f"girth = {out}"


def _cmd_classify(args, g: Graph):
    cls = classify_vertices(g)
    payload = {"classes": [c.value for c in cls], "degrees": g.degrees(),
               "pendent_triangles": find_pendent_triangles(g)}
    human = "" if args.json else "\n".join(  # --json prints no text
        f"{v} ({g.name_of(v)}): {cls[v].value}" for v in range(g.n)) or "(empty graph)"
    return EXIT_OK, payload, human


def _cmd_star_verify(args, g: Graph):
    colors, doc = _load_list(args.coloring, "coloring", "colors", (int,))
    palette = doc.get("palette_size")
    if palette is None:
        palette = max(colors, default=0) + 1
    if isinstance(palette, bool) or not isinstance(palette, int):
        raise _CliError(f"palette_size {palette!r} is not int")
    coloring = starcolor.Coloring(tuple(colors), palette)
    return _verdict(*starcolor.is_star_coloring(g, coloring), "vertices",
                    "valid star coloring")


def _cmd_star_color(args, g: Graph):
    res = starcolor.star_chromatic_number(g, args.limit, force=args.force,
                                          deadline=args.deadline)
    if res is None:
        return (EXIT_VIOLATED, {"chi_s": None, "exceeds_limit": args.limit},
                f"star chromatic number exceeds limit {args.limit}")
    k, coloring = res
    return (EXIT_OK, {"chi_s": k, "coloring": coloring.colors},
            f"chi_s = {k} coloring {list(coloring.colors)}")


def _cmd_fii_find(args, g: Graph):
    res = fii.find_fii(g, args.k, forcing=not args.no_forcing,
                       deadline=args.deadline)
    payload = {"status": res.status, "k": args.k, "nodes": res.nodes,
               "forced": res.forced, "exhausted": res.exhausted,
               "partition": res.partition.names() if res.partition else None}
    return (_STATUS_EXIT[res.status], payload,
            f"{res.status} (nodes {res.nodes}, forced {res.forced})")


def _cmd_fii_verify(args, g: Graph):
    labels, _ = _load_list(args.partition, "partition", "labels", (int, str))
    labels = [fii.parse_label(l, args.k) if isinstance(l, str) else l
              for l in labels]
    part = fii.FiiPartition(tuple(labels), args.k)
    return _verdict(*fii.verify_fii(g, part), "detail", "valid partition")


def _cmd_star5(args, g: Graph):
    res = fii.find_fii(g, 2, deadline=args.deadline)
    code = _STATUS_EXIT[res.status]
    if res.status == "unknown":
        return code, {"status": "unknown"}, "unknown (timeout)"
    if res.status == "infeasible":
        return (code, {"status": "infeasible", "nodes": res.nodes,
                       "exhausted": res.exhausted},
                f"no FII-partition (exhausted, nodes {res.nodes})")
    coloring = fii.fii_to_star5(g, res.partition)
    ok, _ = starcolor.is_star_coloring(g, coloring)
    payload = {"status": "feasible", "partition": res.partition.names(),
               "coloring": coloring.colors, "verified": ok}
    return code, payload, f"star 5-coloring {list(coloring.colors)}"


def _cmd_boundary(args, _):
    try:
        paths = sorted(Path(args.corpus).iterdir())
    except OSError as exc:
        raise _CliError(f"cannot read corpus directory: {exc}") from exc
    corpus = [(p.name, _load_graph(str(p), args.format, f"in {p.name}"))
              for p in paths if p.is_file()]
    report = fii.boundary_search(args.k, corpus, deadline=args.deadline)
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
    return EXIT_TIMEOUT if report.unknown_count else EXIT_OK, payload, human


def _cmd_config_scan(args, g: Graph):
    ids = args.ids.split(",") if args.ids else None
    matches = configs.scan_configs(g, ids, deadline=args.deadline)
    payload = {"matches": [{"config": m.config_id, "vertices": dict(m.vertices)}
                           for m in matches]}
    human = "\n".join(f"{m.config_id}: {dict(m.vertices)}" for m in matches) \
        or "no matches"
    return EXIT_OK, payload, human


def _cmd_lemma_check(args, g: Graph):
    matches = configs.scan_configs(g, (args.config,), deadline=args.deadline)
    if not matches:
        raise _CliError(f"no {args.config} match in input", EXIT_VIOLATED)
    if args.match:
        roles = _load_json(args.match)
        if not isinstance(roles, dict):
            raise _CliError("match must be a JSON object mapping roles to "
                            "vertices")
        wanted = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in roles.items()}
        picked = [m for m in matches
                  if wanted.items() <= dict(m.vertices).items()]
        if not picked:
            raise _CliError(f"no {args.config} match with roles {wanted}")
        match = picked[0]
    elif 0 <= args.match_index < len(matches):
        match = matches[args.match_index]
    else:
        raise _CliError(f"--match-index {args.match_index} out of range "
                        f"0..{len(matches) - 1}")
    report = configs.verify_lemma_extension(g, match, deadline=args.deadline)
    payload = {"config": args.config, "deleted": report.plan.deleted,
               "mods": report.plan.mods, "h_partitions": report.h_partitions,
               "distinct_restrictions": report.distinct_restrictions,
               "extended": report.extended, "vacuous": report.vacuous,
               "passed": report.passed, "failures": report.failures}
    human = (f"{args.config}: {report.extended}/{report.h_partitions} "
             f"partitions extend"
             + (" (vacuous)" if report.vacuous else ""))
    return EXIT_OK if report.passed else EXIT_VIOLATED, payload, human


def _cmd_attach(args, g: Graph):
    gadget = configs.gadget_by_name(args.gadget)
    return _graph_result(args, configs.attach_gadget(g, args.at, gadget))


def _cmd_discharge(args, g: Graph):
    table = discharging.run_discharging(g)
    total = _frac(table.total)
    payload = {"initial": [_frac(x) for x in table.initial],
               "final": [_frac(x) for x in table.final], "total": total,
               "transfers": [{"from": t.source, "to": t.target,
                              "amount": _frac(t.amount), "rule": t.rule}
                             for t in table.transfers]}
    return EXIT_OK, payload, (f"total charge {total} = 2|E| over {g.n} vertices, "
                              f"{len(table.transfers)} transfers")


def _cmd_discharge_audit(args, g: Graph):
    report = discharging.audit_final_charges(g)
    payload = {"deficits": [
        {"vertex": d.vertex, "final": _frac(d.final),
         "nearby_configs": d.nearby_configs, "special": d.special}
        for d in report.deficits]}
    human = "no deficits" if report.clean else "\n".join(
        f"vertex {d.vertex}: {_frac(d.final)} < 8/3, near {list(d.nearby_configs)}"
        + (f" [{d.special}]" if d.special else "")
        for d in report.deficits)
    return EXIT_OK if report.clean else EXIT_VIOLATED, payload, human


def _cmd_terminal_partition(args, g: Graph):
    res = discharging.build_terminal_partition(g)
    if not res.applicable:
        return (EXIT_VIOLATED, {"applicable": False, "reason": res.reason},
                f"inapplicable: {res.reason}")
    payload = {"applicable": True, "degenerate": res.degenerate,
               "partition": res.partition.names(), "sets": res.sets._asdict()}
    return EXIT_OK, payload, f"FII-partition {res.partition.names()}"


def _gen_family(name: str):
    """The ``gen`` handler that gives ``generators.<name>(args.n)``, looked
    up at call time so that wrappers installed on the module are seen."""
    def handler(args, _):
        return _graph_result(args, getattr(generators, name)(args.n))
    return handler


def _cmd_gen_corpus(args, _):
    # generated in full first, so that a run that fails leaves no directory
    corpus = list(generators.gen_corpus(args.count, args.n_max, args.bound,
                                        args.seed))
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot write {outdir}: {exc}") from exc
    names = []
    for name, g in corpus:
        path = outdir / f"{name}.g6"
        _write_text(path, serialize_graph(g, "graph6") + "\n")
        names.append(path.name)
    return (EXIT_OK, {"written": names, "dir": str(outdir)},
            f"wrote {len(names)} graphs to {outdir}")


# -- command line -------------------------------------------------------------

_FORMAT = ("--format", {"default": "auto", "choices": ("auto",) + FORMATS,
                        "help": "input graph format; auto sniffs it"})
_OUT_FORMAT = ("--out-format", {"default": "graph6", "choices": FORMATS,
                                "help": "format of the graph printed"})
_K = ("-k", {"type": int, "default": 2,
             "help": "number of 2-independent sets beside the forest"})
_N = ("-n", {"type": int, "required": True, "help": "number of vertices"})

#: options read before the command
_GLOBALS = (
    ("--json", {"action": "store_true",
                "help": "emit one JSON document on stdout"}),
    ("--timeout-ms", {"type": int,
                      "help": "budget of the whole call, a positive number "
                      "of milliseconds from when the command starts its "
                      "work, shared by the searches of star-color, "
                      "fii-find, star5, boundary, lemma-check and "
                      "config-scan; expiry exits 3 with status unknown"}),
)

#: (name, help, handler, reads a graph file, options); a graph file adds the
#: positional ``file`` and ``--format`` ahead of the options.  An option is
#: (flag, spec), where spec may hold ``type`` (int), ``default``,
#: ``required``, ``choices``, ``action: store_true`` and ``help``; the
#: handler reads it as the attribute named by the flag, ``-`` -> ``_``.
COMMANDS = (
    ("mad", "exact maximum average degree", _cmd_mad, True, []),
    ("rho-star", "constrained potential minimum", _cmd_rho_star, True,
     [("--seed", {"default": "", "help": "comma-separated seed vertices"})]),
    ("girth", "shortest cycle length", _cmd_girth, True, []),
    ("classify", "vertex taxonomy", _cmd_classify, True, []),
    ("star-verify", "check a star coloring", _cmd_star_verify, True,
     [("--coloring", {"required": True, "help": "JSON coloring file"})]),
    ("star-color", "exact star chromatic number", _cmd_star_color, True,
     [("--limit", {"type": int, "help": "most colors to try (default n)"}),
      ("--force", {"action": "store_true",
                   "help": "allow exact search beyond the size cap"})]),
    ("fii-find", "find an FI_k-partition or prove none", _cmd_fii_find, True,
     [_K, ("--no-forcing", {"action": "store_true",
                            "help": "search without the forcing rules"})]),
    ("fii-verify", "check an FI_k-partition", _cmd_fii_verify, True,
     [("--partition", {"required": True, "help": "JSON partition file"}), _K]),
    ("star5", "find partition, convert, verify", _cmd_star5, True, []),
    ("boundary", "feasibility sweep over a corpus", _cmd_boundary, False,
     [("-k", {"type": int, "required": True, "help": _K[1]["help"]}),
      ("--corpus", {"required": True, "help": "directory of graph files"}),
      _FORMAT]),
    ("config-scan", "scan reducible configurations", _cmd_config_scan, True,
     [("--ids", {"help": "comma-separated (e.g. C5,Cp1)"})]),
    ("lemma-check", "instance-level extension check", _cmd_lemma_check, True,
     [("--config", {"required": True, "help": "configuration id (e.g. C5)"}),
      ("--match", {"help": "JSON role map selecting one match"}),
      ("--match-index", {"type": int, "default": 0,
                         "help": "the match to check, in scan order"})]),
    ("attach", "graft a gadget, print the new graph", _cmd_attach, True,
     [("--at", {"type": int, "required": True,
                "help": "host vertex the gadget hangs from"}),
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

#: ``gen`` families: (name, help, handler, options)
GEN_FAMILIES = (
    ("g5n", "the tightness family G_{5,n}", _gen_family("gen_g5n"),
     [("-n", {**_N[1], "help": "the cycle has 5n vertices"}),
      ("--out", {"help": "write the graph to this file"}), _OUT_FORMAT]),
    ("corpus", "seeded random graphs of bounded mad", _cmd_gen_corpus,
     [("--count", {"type": int, "required": True, "help": "number of graphs"}),
      ("--n-max", {"type": int, "default": 14, "help": "most vertices"}),
      ("--bound", {"default": "8/3", "help": "mad bound p/q"}),
      ("--seed", {"type": int, "default": 0, "help": "random seed"}),
      ("--out", {"required": True, "help": "output directory"})]),
    ("cycle", "the cycle C_n", _gen_family("gen_cycle"), [_N, _OUT_FORMAT]),
    ("path", "the path on n vertices", _gen_family("gen_path"),
     [_N, _OUT_FORMAT]),
)


class _Help(Exception):
    """``-h`` was given; the message is the help text to print."""


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _is_flag(token: str) -> bool:
    # "-" (stdin) and negative numbers are values, as they were under argparse
    return (token.startswith("-") and token != "-"
            and not token[1:].replace(".", "", 1).isdecimal())


def _help_text(prog: str, summary: str, options, file: bool, subs,
               kind: str) -> str:
    rows = [("FILE", "input graph file, or - for stdin")] if file else []
    for flag, spec in options:
        name = flag
        if spec.get("action") != "store_true":
            choices = spec.get("choices")
            name += " " + ("{" + ",".join(choices) + "}" if choices
                           else _dest(flag).upper())
        note = ("required" if spec.get("required") else
                f"default {spec['default']}"
                if spec.get("default") not in (None, "") else "")
        rows.append((name, spec["help"] + (f" ({note})" if note else "")))
    usage = f"usage: {prog}" + (" [options]" if options else "")
    usage += " FILE" if file else f" <{kind}> ..." if subs else ""
    lines = [usage, "", summary]
    for title, items in (("arguments:", rows), (
            "commands:" if kind == "command" else "families:",
            [sub[:2] for sub in subs])):
        lines += ["", title] if items else []
        for name, text in items:
            lines += ([f"  {name:<22}{text}"] if len(name) < 22
                      else [f"  {name}", f"  {'':<22}{text}"])
    if subs:
        lines += ["", f"Run '{prog} <{kind}> -h' for its options."]
    return "\n".join(lines) + "\n"


def _read_options(argv: list[str], i: int, args, level: tuple) -> int:
    """Set every option of ``level`` to its default on ``args``, then read
    ``argv[i:]`` into it.

    A level is (prog, summary, options, file, subs, kind): ``starpart``, a
    command or a ``gen`` family.  With ``subs`` (the ``COMMANDS`` or
    ``GEN_FAMILIES`` entries, each called a ``kind``) reading stops at the
    first token that is no option, and its index is returned.  Otherwise
    the rest of ``argv`` is read, options on either side of the positional
    ``file`` where ``file`` is true.  A value is the next token or follows
    ``=``; names match exactly; the last occurrence wins.  ``-h`` raises
    ``_Help``, any other problem ``_CliError``."""
    prog, _, options, file, subs, kind = level
    specs = dict(options)
    for flag, spec in options:
        setattr(args, _dest(flag), False if spec.get("action") == "store_true"
                else spec.get("default"))
    given = set()
    while i < len(argv):
        token = argv[i]
        i += 1
        if token in ("-h", "--help"):
            raise _Help(_help_text(*level))
        if not _is_flag(token):
            if subs:
                return i - 1
            if not file or "file" in given:
                raise _CliError(f"{prog}: unexpected argument {token!r}")
            args.file = token
            given.add("file")
            continue
        flag, eq, value = token.partition("=")
        spec = specs.get(flag)
        if spec is None:
            raise _CliError(f"{prog}: unknown option {flag}")
        if spec.get("action") == "store_true":
            if eq:
                raise _CliError(f"{prog}: {flag} takes no value")
            value = True
        else:
            if not eq:
                if i == len(argv) or _is_flag(argv[i]):
                    raise _CliError(f"{prog}: {flag} needs a value")
                value = argv[i]
                i += 1
            convert = spec.get("type", str)
            try:
                value = convert(value)
            except ValueError:
                raise _CliError(f"{prog}: {flag} wants an "
                                f"{convert.__name__}, got {value!r}") from None
            choices = spec.get("choices")
            if choices and value not in choices:
                raise _CliError(f"{prog}: {flag} must be one of "
                                f"{', '.join(choices)}, got {value!r}")
        setattr(args, _dest(flag), value)
        given.add(flag)
    if subs:
        raise _CliError(f"{prog}: missing {kind}, one of "
                        + ", ".join(sub[0] for sub in subs))
    missing = ["file"] if file and "file" not in given else []
    missing += [f for f, spec in options
                if spec.get("required") and f not in given]
    if missing:
        raise _CliError(f"{prog}: missing {', '.join(missing)}")
    return i


def _parse_args(argv: list[str], args) -> None:
    """Fill ``args`` from ``argv`` by the ``COMMANDS`` / ``GEN_FAMILIES``
    table: every option of the call's levels, ``command`` (and ``family``),
    and ``fn``, the handler.  Global options come before the command."""
    level = ("starpart", "Exact star-coloring / sparse-partition toolkit.",
             _GLOBALS, False, COMMANDS, "command")
    i = _read_options(argv, 0, args, level)
    entry = next((c for c in COMMANDS if c[0] == argv[i]), None)
    if entry is None:
        raise _CliError(f"starpart: unknown command {argv[i]!r}")
    args.command, summary, args.fn, reads_graph, options = entry
    prog = f"starpart {args.command}"
    if args.command == "gen":
        level = (prog, summary, options, False, GEN_FAMILIES, "family")
        i = _read_options(argv, i + 1, args, level)
        entry = next((f for f in GEN_FAMILIES if f[0] == argv[i]), None)
        if entry is None:
            raise _CliError(f"{prog}: unknown family {argv[i]!r}")
        args.family, summary, args.fn, options = entry
        prog += f" {args.family}"
    if reads_graph:
        options = [_FORMAT, *options]
    _read_options(argv, i + 1, args, (prog, summary, options, reads_graph, (), ""))


def main(argv: list[str] | None = None) -> int:
    args = SimpleNamespace(json=False)
    try:
        _parse_args(sys.argv[1:] if argv is None else argv, args)
        ms = args.timeout_ms
        if ms is not None and ms <= 0:
            raise _CliError(f"--timeout-ms must be positive, got {ms}")
        if ms is not None and ms > sys.float_info.max:  # ms / 1000 overflows
            raise _CliError(f"--timeout-ms {ms} is too large")
        if getattr(args, "k", 0) < 0:
            raise _CliError(f"-k must be nonnegative, got {args.k}")
        g = _load_graph(args.file, args.format) if hasattr(args, "file") else None
        args.deadline = None if ms is None else time.monotonic() + ms / 1000
        return _emit(args, args.fn(args, g))
    except _Help as exc:
        sys.stdout.write(str(exc))
        return EXIT_OK
    except _CliError as exc:
        code, detail = exc.code, str(exc)
    except GraphError as exc:
        code, detail = EXIT_USAGE, str(exc)
    except BrokenPipeError:
        return EXIT_USAGE
    except fii.BudgetExhausted as exc:  # read only once a handler has raised
        return _emit(args, (EXIT_TIMEOUT, {"status": "unknown"}, f"unknown ({exc})"))
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


def run() -> None:
    """The process entry: :func:`main` on ``sys.argv``, then flush stdout and
    stderr, cache the bytecode of each starpart module that ran (the next call
    loads it), and end the process with the exit code.  ``os._exit`` skips the
    interpreter's teardown, which frees what no answer needs.  A flush that
    fails (the reader went away) exits ``EXIT_USAGE``, as ``main`` does on a
    broken pipe, and leaves nothing for the interpreter to report."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = EXIT_USAGE
    for m in list(sys.modules.values()):
        spec = m.__spec__ if type(m) is ModuleType else None  # runs no lazy module
        if spec and spec.name.partition(".")[0] == "starpart" and spec.cached:
            try:
                _cache_bytecode(spec.origin, spec.cached)
            except Exception:  # the answer is out: a cache must not change it
                pass
    os._exit(code)


def _cache_bytecode(source: str, cached: str) -> None:
    """Compile ``source`` to ``cached`` unless the file's PEP 552 header
    matches the source: its timestamp (flags 0) or hash (flags 3, checked);
    an unchecked hash file (flags 1) is left alone.  A stale file never
    runs, as every load checks it.  Done even under
    ``PYTHONDONTWRITEBYTECODE``, since each call is a new process, by the
    import system's own loader, which writes atomically and in the file's
    own kind.  A directory that cannot take the file costs a ``stat``."""
    st = os.stat(source)
    stamp = int(st.st_mtime) & 0xFFFFFFFF | (st.st_size & 0xFFFFFFFF) << 32
    if os.path.isfile(cached):
        with open(cached, "rb") as f:  # the header only, not the code
            head = f.read(16)
        flags, key = int.from_bytes(head[4:8], "little"), head[8:]
        if head[:4] == MAGIC_NUMBER and (
                flags == 0 and key == stamp.to_bytes(8, "little")
                or flags == 1  # unchecked hash: the source is never read
                or flags == 3 and key == source_hash(Path(source).read_bytes())):
            return
    room = os.path.dirname(cached)
    while not os.path.lexists(room) and room != os.path.dirname(room):
        room = os.path.dirname(room)
    if os.path.isdir(room) and os.access(room, os.W_OK):
        from importlib.machinery import SourceFileLoader  # only when writing
        sys.dont_write_bytecode = False  # get_code writes only if it is off
        SourceFileLoader(source, source).get_code(source)


if __name__ == "__main__":
    run()
