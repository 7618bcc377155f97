"""Command-line front end: one job per invocation, JSON reports on stdout.

Exit codes: 0 success, 1 validation failure (report carries the witness),
2 parse error, 3 resource cap exceeded.  Reports embed the convention
ledger so that outputs are reproducible bit for bit: identical inputs and
seeds give byte-identical reports.

Resource caps come from the environment: ETV_MAX_CELLS bounds the number
of cells any framed input or product may reach, ETV_MAX_SUBSETS bounds 2^k
for a family of k sets given to the `degeneracy` command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .degeneracy import (degeneracy_witness, is_nondegenerate,
                         mixed_volume_zero_criterion)
from .dualfan import dual_fan_etp
from .framed import (_framed, add, boundary, canonicalize, equivalent,
                     evaluate_current, is_etp)
from .intersection import bergman_fan, product, stable_support
from .jsonio import ParseError
from .monge import (corner_locus, dc_weighted, mixed_ma, mixed_volume_oracle,
                    mixed_volume_via_ma)
from .scalars import rat_str
from .schemas import ALL_SCHEMAS

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


def _max_cells() -> int:
    return int(os.environ.get("ETV_MAX_CELLS", "2000"))


def _max_subsets() -> int:
    return int(os.environ.get("ETV_MAX_SUBSETS", "4096"))


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _guard_cells(x):
    """Pass x (a FramedSet or an EtvRep) through unless it has more than
    ETV_MAX_CELLS cells."""
    count = len(_framed(x).cells)
    if count > _max_cells():
        raise ResourceCap(f"cell count {count} exceeds ETV_MAX_CELLS")
    return x


def _load_framed(path):
    """The framed set of a file: every framed-set input is read here, so
    ETV_MAX_CELLS holds on all of them.  The cap is checked on the raw cell
    list, before any cell is put in canonical form (which costs LPs); a
    `cells` that is not a list is left to the parser."""
    obj = _load(path)
    cells = obj.get("cells") if isinstance(obj, dict) else None
    if isinstance(cells, list) and len(cells) > _max_cells():
        raise ResourceCap(f"cell count {len(cells)} exceeds ETV_MAX_CELLS")
    return jsonio.framedset_from_json(obj)


def _load_etv(path):
    return canonicalize(_load_framed(path))


def _report(args, command: str, result: dict, status: str = "ok") -> dict:
    rep = {"command": command, "status": status,
           "conventions": CONVENTIONS, "seed": getattr(args, "seed", None)}
    rep.update(result)
    return rep


def _emit(args, report: dict, code: int) -> int:
    text = json.dumps(report, sort_keys=True, indent=2)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return code


def _cmd_validate_etp(args):
    report = is_etp(_load_framed(args.input))
    result = {"ok": report.ok, "witness": report.witness}
    code = EXIT_OK if report.ok else EXIT_INVALID
    return _emit(args, _report(args, "validate-etp", result,
                               "ok" if report.ok else "invalid"), code)


def _cmd_boundary(args):
    bd = boundary(_load_framed(args.input))
    result = {"result": jsonio.framedset_to_json(bd),
              "support_empty": not bd.support_cells()}
    return _emit(args, _report(args, "boundary", result), EXIT_OK)


def _cmd_dual_fan(args):
    gamma = jsonio.vpolytope_from_json(_load(args.polytope))
    fan = dual_fan_etp(gamma, args.k)
    # emit the per-face fan representative: support functions stay cellwise
    # affine on it, so it feeds the dc command directly
    result = {"result": jsonio.framedset_to_json(fan.framed_rep()),
              "canonical": jsonio.framedset_to_json(fan.result),
              "balanced": True,
              "cones": len(fan.face_map)}
    return _emit(args, _report(args, "dual-fan", result), EXIT_OK)


def _cmd_add(args):
    p = _load_etv(args.inputs[0])
    q = _load_etv(args.inputs[1])
    s = _guard_cells(add(p, q))
    return _emit(args, _report(args, "add",
                               {"result": jsonio.framedset_to_json(s)}), EXIT_OK)


def _cmd_product(args):
    p = _load_etv(args.inputs[0])
    q = _load_etv(args.inputs[1])
    z = _guard_cells(product(p, q, seed=args.seed))
    return _emit(args, _report(args, "product",
                               {"result": jsonio.framedset_to_json(z)}), EXIT_OK)


def _cmd_stable_support(args):
    p = _load_etv(args.inputs[0])
    q = _load_etv(args.inputs[1])
    cells = stable_support(p, q, seed=args.seed)
    result = {"cells": [{"geom": jsonio.hpoly_to_json(s.cell),
                         "frame": jsonio.form_to_json(s.frame),
                         "shift": jsonio.vector_to_json(s.shift)}
                        for s in cells]}
    return _emit(args, _report(args, "stable-support", result), EXIT_OK)


def _cmd_bergman(args):
    p = _load_etv(args.input)
    b = bergman_fan(p)
    return _emit(args, _report(args, "bergman",
                               {"result": jsonio.framedset_to_json(b)}), EXIT_OK)


def _cmd_corner_locus(args):
    h = jsonio.plfunction_from_json(_load(args.input))
    locus = _guard_cells(corner_locus(h))
    return _emit(args, _report(args, "corner-locus",
                               {"result": jsonio.framedset_to_json(locus)}), EXIT_OK)


def _cmd_dc(args):
    h = jsonio.plfunction_from_json(_load(args.function))
    out = dc_weighted(h, _load_framed(args.cycle))
    return _emit(args, _report(args, "dc",
                               {"result": jsonio.framedset_to_json(out)}), EXIT_OK)


def _cmd_mixed_ma(args):
    funcs = [jsonio.plfunction_from_json(_load(p)) for p in args.inputs]
    z = _guard_cells(mixed_ma(*funcs, seed=args.seed))
    return _emit(args, _report(args, "mixed-ma",
                               {"result": jsonio.framedset_to_json(z)}), EXIT_OK)


def _cmd_mixed_volume(args):
    bodies = [jsonio.vpolytope_from_json(_load(p)) for p in args.inputs]
    value = mixed_volume_via_ma(*bodies, seed=args.seed)
    return _emit(args, _report(args, "mixed-volume",
                               {"value": rat_str(value)}), EXIT_OK)


def _cmd_mv_oracle(args):
    bodies = [jsonio.points_from_json(_load(p)) for p in args.inputs]
    value = mixed_volume_oracle(*bodies)
    return _emit(args, _report(args, "mv-oracle",
                               {"value": rat_str(value)}), EXIT_OK)


def _cmd_degeneracy(args):
    fam = jsonio.family_from_json(_load(args.family))
    if 2 ** fam.k > _max_subsets():
        raise ResourceCap("family size exceeds ETV_MAX_SUBSETS for enumeration")
    nondeg = is_nondegenerate(fam)
    result = {"nondegenerate": nondeg}
    if not nondeg:
        w = degeneracy_witness(fam)
        result["witness"] = {"p": w.p,
                             "set_indices": list(w.set_indices),
                             "subspace_basis": [jsonio.cvector_to_json(v)
                                                for v in w.subspace_basis]}
    return _emit(args, _report(args, "degeneracy", result), EXIT_OK)


def _cmd_mv_zero(args):
    bodies = [jsonio.points_from_json(_load(p)) for p in args.bodies]
    zero, subset, basis = mixed_volume_zero_criterion(*bodies)
    result = {"zero": zero}
    if zero:
        result["subset"] = list(subset)
        result["subspace_basis"] = [jsonio.vector_to_json(v) for v in basis]
    return _emit(args, _report(args, "mv-zero", result), EXIT_OK)


def _cmd_eval_current(args):
    p = _load_etv(args.cycle)
    tf = jsonio.testform_from_json(_load(args.form))
    value = evaluate_current(p, tf)
    return _emit(args, _report(args, "eval-current",
                               {"value": rat_str(value)}), EXIT_OK)


def _cmd_equivalent(args):
    p = _load_etv(args.inputs[0])
    q = _load_etv(args.inputs[1])
    return _emit(args, _report(args, "equivalent",
                               {"equivalent": equivalent(p, q)}), EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etv",
        description="exact computations with exponential tropical varieties")
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON schemas and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the report to a file")

    p = sub.add_parser("validate-etp", help="check the cycle conditions")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_validate_etp)

    p = sub.add_parser("boundary", help="framed boundary of a complex")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("dual-fan", help="dual-fan cycle of a polytope")
    p.add_argument("--polytope", required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_dual_fan)

    p = sub.add_parser("add", help="sum of two cycles")
    p.add_argument("inputs", nargs=2)
    common(p)
    p.set_defaults(func=_cmd_add)

    p = sub.add_parser("product", help="stable product of two cycles")
    p.add_argument("inputs", nargs=2)
    common(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("stable-support", help="stable cells of two cycles")
    p.add_argument("inputs", nargs=2)
    common(p)
    p.set_defaults(func=_cmd_stable_support)

    p = sub.add_parser("bergman", help="recession fan of a cycle")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_bergman)

    p = sub.add_parser("corner-locus", help="corner locus of a PL function")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_corner_locus)

    p = sub.add_parser("dc", help="weighted boundary of a cycle")
    p.add_argument("function")
    p.add_argument("cycle")
    common(p)
    p.set_defaults(func=_cmd_dc)

    p = sub.add_parser("mixed-ma", help="mixed product of corner loci")
    p.add_argument("inputs", nargs="+")
    common(p)
    p.set_defaults(func=_cmd_mixed_ma)

    p = sub.add_parser("mixed-volume", help="mixed volume via the mixed product")
    p.add_argument("inputs", nargs="+")
    common(p)
    p.set_defaults(func=_cmd_mixed_volume)

    p = sub.add_parser("mv-oracle", help="mixed volume by polarization")
    p.add_argument("inputs", nargs="+")
    common(p)
    p.set_defaults(func=_cmd_mv_oracle)

    p = sub.add_parser("degeneracy", help="family degeneracy verdict and witness")
    p.add_argument("--family", required=True)
    common(p)
    p.set_defaults(func=_cmd_degeneracy)

    p = sub.add_parser("mv-zero", help="zero mixed volume criterion")
    p.add_argument("--bodies", nargs="+", required=True)
    common(p)
    p.set_defaults(func=_cmd_mv_zero)

    p = sub.add_parser("eval-current", help="pair a cycle with a test form")
    p.add_argument("cycle")
    p.add_argument("form")
    common(p)
    p.set_defaults(func=_cmd_eval_current)

    p = sub.add_parser("equivalent", help="same cycle class")
    p.add_argument("inputs", nargs=2)
    common(p)
    p.set_defaults(func=_cmd_equivalent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        sys.stdout.write(json.dumps(ALL_SCHEMAS, sort_keys=True, indent=2) + "\n")
        return EXIT_OK
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stdout.write(json.dumps({"status": "parse-error", "error": str(exc),
                                     "conventions": CONVENTIONS},
                                    sort_keys=True, indent=2) + "\n")
        return EXIT_PARSE
    except ResourceCap as exc:
        sys.stdout.write(json.dumps({"status": "resource-cap", "error": str(exc),
                                     "conventions": CONVENTIONS},
                                    sort_keys=True, indent=2) + "\n")
        return EXIT_RESOURCE
    except ValueError as exc:
        sys.stdout.write(json.dumps({"status": "invalid", "error": str(exc),
                                     "conventions": CONVENTIONS},
                                    sort_keys=True, indent=2) + "\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
