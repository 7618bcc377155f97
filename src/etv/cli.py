"""Command-line front end: one job per invocation, JSON reports on stdout.

Exit codes: 0 success, 1 validation failure (report carries the witness),
2 parse error, 3 resource cap exceeded.  Reports embed the convention
ledger so that outputs are reproducible bit for bit: identical inputs and
seeds give byte-identical reports.

Resource caps come from the environment: ETV_MAX_CELLS bounds the number
of cells any framed input or product may reach, ETV_MAX_SUBSETS bounds 2^k
for a family of k sets given to the `degeneracy` command.

Each command imports the library functions it calls, and `--schema` the
schemas, so a call loads (and, without cached bytecode, compiles) only
the modules its command runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .jsonio import ParseError
from .scalars import rat_str

CONVENTIONS = {
    "id": "etv-conventions-1",
    "coordinates": "(x1, y1, ..., xn, yn)",
    "pairing": "complex bilinear sum z_j w_j",
    "dc_sign": "dc g(v) = dg(Jv); affine Re<z,w> maps to the covector i*w",
    "boundary_orientation": "outward vector first, then the facet basis",
    "quotient_orientation": "complex part carries its standard orientation",
    "frame_reference": "canonical rref tangent basis of each cell",
}

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


class ResourceCap(RuntimeError):
    pass


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _check_cells(count: int):
    if count > int(os.environ.get("ETV_MAX_CELLS", "2000")):
        raise ResourceCap(f"cell count {count} exceeds ETV_MAX_CELLS")


def _guard_cells(x):
    """Pass x (a FramedSet or an EtvRep) through unless it has more than
    ETV_MAX_CELLS cells."""
    from .framed import _framed
    _check_cells(len(_framed(x).cells))
    return x


def _load_framed(path):
    """The framed set of a file: every framed-set input is read here, so
    ETV_MAX_CELLS holds on all of them.  The cap is checked on the raw cell
    list, before any cell is put in canonical form (which costs LPs); a
    `cells` that is not a list is left to the parser."""
    obj = _load(path)
    cells = obj.get("cells") if isinstance(obj, dict) else None
    if isinstance(cells, list):
        _check_cells(len(cells))
    return jsonio.framedset_from_json(obj)


def _load_etv(path):
    from .framed import canonicalize
    return canonicalize(_load_framed(path))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(args, result: dict) -> int:
    """Write the report of a command's result to --output or stdout.  The
    result may set the report's status; any status but "ok" exits 1."""
    report = {"command": args.command, "status": "ok",
              "conventions": CONVENTIONS, "seed": args.seed}
    report.update(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(_dumps(report))
    else:
        sys.stdout.write(_dumps(report))
    return EXIT_OK if report["status"] == "ok" else EXIT_INVALID


def _fail(status: str, exc: Exception, code: int) -> int:
    """Write the report of a failed command to stdout."""
    sys.stdout.write(_dumps({"status": status, "error": str(exc),
                             "conventions": CONVENTIONS}))
    return code


def _framed_result(x) -> dict:
    return {"result": jsonio.framedset_to_json(x)}


# -- commands: each maps its parsed arguments to the result of its report ----

def _cmd_validate_etp(args):
    from .framed import is_etp
    report = is_etp(_load_framed(args.input))
    return {"ok": report.ok, "witness": report.witness,
            "status": "ok" if report.ok else "invalid"}


def _cmd_boundary(args):
    from .framed import boundary
    bd = boundary(_load_framed(args.input))
    return {"result": jsonio.framedset_to_json(bd),
            "support_empty": not bd.support_cells()}


def _cmd_dual_fan(args):
    from .dualfan import dual_fan_etp
    gamma = jsonio.vpolytope_from_json(_load(args.polytope))
    fan = dual_fan_etp(gamma, args.k)
    # emit the per-face fan representative: support functions stay cellwise
    # affine on it, so it feeds the dc command directly
    return {"result": jsonio.framedset_to_json(fan.framed_rep()),
            "canonical": jsonio.framedset_to_json(fan.result),
            "balanced": True,
            "cones": len(fan.face_map)}


def _cmd_add(args):
    from .framed import add
    p, q = [_load_etv(path) for path in args.inputs]
    return _framed_result(_guard_cells(add(p, q)))


def _cmd_product(args):
    from .intersection import product
    p, q = [_load_etv(path) for path in args.inputs]
    return _framed_result(_guard_cells(product(p, q, seed=args.seed)))


def _cmd_stable_support(args):
    from .intersection import stable_support
    p, q = [_load_etv(path) for path in args.inputs]
    cells = stable_support(p, q, seed=args.seed)
    return {"cells": [{"geom": jsonio.hpoly_to_json(s.cell),
                       "frame": jsonio.form_to_json(s.frame),
                       "shift": jsonio.vector_to_json(s.shift)}
                      for s in cells]}


def _cmd_bergman(args):
    from .intersection import bergman_fan
    return _framed_result(bergman_fan(_load_etv(args.input)))


def _cmd_corner_locus(args):
    from .monge import corner_locus
    h = jsonio.plfunction_from_json(_load(args.input))
    return _framed_result(_guard_cells(corner_locus(h)))


def _cmd_dc(args):
    from .framed import _check_cycle
    from .monge import dc_weighted
    h = jsonio.plfunction_from_json(_load(args.function))
    x = _load_framed(args.cycle)
    _check_cycle(x, {})  # not merged: h is affine on the cells as given
    return _framed_result(dc_weighted(h, x))


def _cmd_mixed_ma(args):
    from .monge import mixed_ma
    funcs = [jsonio.plfunction_from_json(_load(p)) for p in args.inputs]
    return _framed_result(_guard_cells(mixed_ma(*funcs, seed=args.seed)))


def _cmd_mixed_volume(args):
    from .monge import mixed_volume_via_ma
    bodies = [jsonio.vpolytope_from_json(_load(p)) for p in args.inputs]
    return {"value": rat_str(mixed_volume_via_ma(*bodies, seed=args.seed))}


def _cmd_mv_oracle(args):
    from .monge import mixed_volume_oracle
    bodies = [jsonio.points_from_json(_load(p)) for p in args.inputs]
    return {"value": rat_str(mixed_volume_oracle(*bodies))}


def _cmd_degeneracy(args):
    from .degeneracy import _find_witness
    fam = jsonio.family_from_json(_load(args.family))
    if 2 ** fam.k > int(os.environ.get("ETV_MAX_SUBSETS", "4096")):
        raise ResourceCap("family size exceeds ETV_MAX_SUBSETS for enumeration")
    w = _find_witness(fam)
    result = {"nondegenerate": w is None}
    if w is not None:
        result["witness"] = {"p": w.p,
                             "set_indices": list(w.set_indices),
                             "subspace_basis": [jsonio.cvector_to_json(v)
                                                for v in w.subspace_basis]}
    return result


def _cmd_mv_zero(args):
    from .degeneracy import mixed_volume_zero_criterion
    bodies = [jsonio.points_from_json(_load(p)) for p in args.bodies]
    zero, subset, basis = mixed_volume_zero_criterion(*bodies)
    result = {"zero": zero}
    if zero:
        result["subset"] = list(subset)
        result["subspace_basis"] = [jsonio.vector_to_json(v) for v in basis]
    return result


def _cmd_eval_current(args):
    from .framed import evaluate_current
    p = _load_etv(args.cycle)
    tf = jsonio.testform_from_json(_load(args.form))
    return {"value": rat_str(evaluate_current(p, tf))}


def _cmd_equivalent(args):
    from .framed import equivalent
    p, q = [_load_etv(path) for path in args.inputs]
    return {"equivalent": equivalent(p, q)}


# positional and option arguments: (name, keyword arguments of add_argument)
_INPUT = [("input", {})]
_PAIR = [("inputs", {"nargs": 2})]
_LIST = [("inputs", {"nargs": "+"})]

# the command table, name -> (help, arguments, command): every command also
# takes --seed and --output, and `main` makes, writes and maps to an exit
# code the report of each; the help lists the commands in this order
_COMMANDS = {
    "validate-etp": ("check the cycle conditions", _INPUT, _cmd_validate_etp),
    "boundary": ("framed boundary of a complex", _INPUT, _cmd_boundary),
    "dual-fan": ("dual-fan cycle of a polytope",
                 [("--polytope", {"required": True}),
                  ("--k", {"type": int, "required": True})], _cmd_dual_fan),
    "add": ("sum of two cycles", _PAIR, _cmd_add),
    "product": ("stable product of two cycles", _PAIR, _cmd_product),
    "stable-support": ("stable cells of two cycles", _PAIR, _cmd_stable_support),
    "bergman": ("recession fan of a cycle", _INPUT, _cmd_bergman),
    "corner-locus": ("corner locus of a PL function", _INPUT, _cmd_corner_locus),
    "dc": ("weighted boundary of a cycle", [("function", {}), ("cycle", {})], _cmd_dc),
    "mixed-ma": ("mixed product of corner loci", _LIST, _cmd_mixed_ma),
    "mixed-volume": ("mixed volume via the mixed product", _LIST, _cmd_mixed_volume),
    "mv-oracle": ("mixed volume by polarization", _LIST, _cmd_mv_oracle),
    "degeneracy": ("family degeneracy verdict and witness",
                   [("--family", {"required": True})], _cmd_degeneracy),
    "mv-zero": ("zero mixed volume criterion",
                [("--bodies", {"nargs": "+", "required": True})], _cmd_mv_zero),
    "eval-current": ("pair a cycle with a test form",
                     [("cycle", {}), ("form", {})], _cmd_eval_current),
    "equivalent": ("same cycle class", _PAIR, _cmd_equivalent),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etv",
        description="exact computations with exponential tropical varieties")
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON schemas and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, arguments, command) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the report to a file")
        p.set_defaults(func=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        from .schemas import ALL_SCHEMAS
        sys.stdout.write(_dumps(ALL_SCHEMAS))
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_PARSE
    try:
        return _emit(args, args.func(args))
    except ParseError as exc:
        return _fail("parse-error", exc, EXIT_PARSE)
    except ResourceCap as exc:
        return _fail("resource-cap", exc, EXIT_RESOURCE)
    except ValueError as exc:
        return _fail("invalid", exc, EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
