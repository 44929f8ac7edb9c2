"""starpart: exact toolkit for star coloring of sparse graphs.

Maximum average degree and potential functions in exact arithmetic,
forest / 2-independent-set partitions with an exhaustive solver, star
chromatic numbers, reducible-configuration scans, and discharging audits.
Every nontrivial algorithm ships with a brute-force oracle.

Submodules load on first use.  ``import starpart`` puts each one in
``sys.modules`` as a lazy module (``importlib.util.LazyLoader``), whose code
runs when one of its attributes is first read; the names re-exported here
resolve through the module ``__getattr__``.  A CLI call thus runs only the
modules its subcommand needs.
"""

import importlib.util
import sys

#: submodule -> the names the package re-exports from it
_EXPORTS = {
    "graphs": ("Graph", "GraphBuilder", "GraphError", "ParseError",
               "ValidationError", "VertexClass", "PendentCycle",
               "classify_vertices", "find_pendent_cycles",
               "find_pendent_triangles", "girth", "parse_graph",
               "serialize_graph", "INFINITY"),
    "density": ("Density", "PotentialResult", "mad", "mad_oracle", "mad_le",
                "mad_le_8_3", "rho", "rho_star", "rho_star_oracle"),
    "starcolor": ("Coloring", "is_star_coloring", "star_chromatic_number",
                  "star_chromatic_number_oracle", "greedy_star_coloring"),
    "fii": ("FiiPartition", "FiiResult", "verify_fii", "find_fii",
            "enumerate_fii", "fii_to_star5", "boundary_search"),
    "configs": ("ConfigMatch", "ReductionPlan", "scan_configs",
                "attach_gadget", "reduction_plan", "verify_lemma_extension",
                "PendentTriangle", "J1", "J2", "AddEdge", "AddPath2",
                "ALL_CONFIG_IDS", "GADGET_BUDGET"),
    "discharging": ("ChargeTable", "Transfer", "AuditReport",
                    "run_discharging", "audit_final_charges",
                    "build_terminal_partition", "TerminalResult"),
    "generators": ("gen_g5n", "gen_mad_bounded", "gen_corpus", "gen_cycle",
                   "gen_path", "gen_tree_random", "gen_complete", "gen_star"),
    "instances": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, *_OWNER]


def _lazy_submodule(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy_submodule(_name)


def __getattr__(name: str):
    try:
        module = globals()[_OWNER[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
