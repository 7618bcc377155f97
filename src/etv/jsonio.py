"""JSON interchange for all library objects.

All numbers serialize as exact strings ("p/q" or "p"), complex scalars as
{"re", "im"}, forms as term lists.  Frames are written with an explicit
orientation basis; on load they are transported to the cell's canonical
basis, so files produced with any valid basis round-trip to the same
canonical object.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import Alt, OddForm
from .framed import EtvRep, FramedCell, FramedSet, TestForm, canonicalize
from .monge import AffineFunc, PLFunction
from .polyhedra import HPoly, VPolytope
from .polynomials import Poly
from .scalars import CRat, crat_parse, crat_str, rat_str


class ParseError(ValueError):
    pass


def _rat(obj) -> Fraction:
    try:
        return Fraction(str(obj))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {obj!r}") from exc


def vector_to_json(v):
    return [rat_str(x) for x in v]


def vector_from_json(obj):
    return tuple(_rat(x) for x in obj)


def cvector_to_json(w):
    return [crat_str(c) for c in w]


def cvector_from_json(obj):
    return tuple(crat_parse(c) for c in obj)


def form_to_json(form: Alt):
    return {"degree": form.degree,
            "terms": [{"indices": list(k), "value": crat_str(CRat.of(v))}
                      for k, v in sorted(form.terms.items())]}


def form_from_json(obj) -> Alt:
    try:
        degree = int(obj["degree"])
        terms = {tuple(t["indices"]): crat_parse(t["value"])
                 for t in obj.get("terms", [])}
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad form: {exc}") from exc
    return Alt(degree, terms)


def _functional_to_json(coeffs, rhs):
    return {"coeffs": vector_to_json(coeffs), "const": rat_str(rhs)}


def _functional_from_json(obj):
    try:
        return vector_from_json(obj["coeffs"]), _rat(obj["const"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad affine functional: {exc}") from exc


def hpoly_to_json(p: HPoly):
    return {"ambient": p.ambient,
            "eq": [_functional_to_json(a, b) for a, b in p.eq],
            "ineq": [_functional_to_json(a, b) for a, b in p.ineq]}


def hpoly_from_json(obj) -> HPoly:
    try:
        ambient = int(obj["ambient"])
    except (KeyError, TypeError) as exc:
        raise ParseError("polyhedron needs an ambient dimension") from exc
    eq = [_functional_from_json(e) for e in obj.get("eq", [])]
    ineq = [_functional_from_json(e) for e in obj.get("ineq", [])]
    return HPoly(ambient, eq, ineq).canonical()


def polyhedralset_to_json(ps) -> dict:
    return {"cells": [hpoly_to_json(c) for c in ps.cells]}


def polyhedralset_from_json(obj, k: int, ambient: int):
    from .polyhedra import PolyhedralSet
    try:
        cells = [hpoly_from_json(c) for c in obj["cells"]]
    except (KeyError, TypeError) as exc:
        raise ParseError("polyhedral set needs a cell list") from exc
    return PolyhedralSet.from_cells(k, ambient, cells)


def vpolytope_to_json(v: VPolytope):
    out = {"vertices": [vector_to_json(p) for p in v.vertices]}
    if v.rays:
        out["rays"] = [vector_to_json(r) for r in v.rays]
    return out


def vpolytope_from_json(obj) -> VPolytope:
    try:
        verts = [vector_from_json(p) for p in obj["vertices"]]
    except (KeyError, TypeError) as exc:
        raise ParseError("polytope needs a vertex list") from exc
    if not verts:
        raise ParseError("polytope needs at least one vertex")
    if len({len(v) for v in verts}) != 1:
        raise ParseError("vertices of mixed dimensions")
    if obj.get("rays"):
        raise ParseError("unbounded input polytopes are not supported")
    return VPolytope.from_points(verts)


def framedset_to_json(x) -> dict:
    framed = x.framed if isinstance(x, EtvRep) else x
    cells = []
    for c in framed.cells:
        cells.append({"geom": hpoly_to_json(c.poly),
                      "frame": {"form": form_to_json(c.frame),
                                "basis": [vector_to_json(b)
                                          for b in c.poly.tangent_basis]}})
    return {"n": framed.n, "k": framed.k, "cells": cells}


def framedset_from_json(obj) -> FramedSet:
    try:
        n = int(obj["n"])
        k = int(obj["k"])
    except (KeyError, TypeError) as exc:
        raise ParseError("framed set needs n and k") from exc
    cells = []
    for entry in obj.get("cells", []):
        poly = hpoly_from_json(entry["geom"])
        frame_obj = entry.get("frame", {})
        form = form_from_json(frame_obj["form"])
        basis = [vector_from_json(b) for b in frame_obj.get("basis", [])]
        if basis and tuple(basis) != tuple(poly.tangent_basis):
            odd = OddForm(form=form, basis=tuple(basis))
            form = odd.transported(tuple(poly.tangent_basis)).form
        cells.append(FramedCell(poly, form))
    return FramedSet(n, k, cells)


def etv_from_json(obj, validate=True) -> EtvRep:
    return canonicalize(framedset_from_json(obj), validate=validate)


def affine_to_json(f: AffineFunc):
    return {"w": cvector_to_json(f.w), "c": rat_str(f.c)}


def affine_from_json(obj) -> AffineFunc:
    try:
        return AffineFunc(w=cvector_from_json(obj["w"]), c=_rat(obj["c"]))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad affine function: {exc}") from exc


def plfunction_to_json(h: PLFunction):
    return {"n": h.n,
            "plus": [affine_to_json(f) for f in h.plus],
            "minus": [affine_to_json(f) for f in h.minus]}


def plfunction_from_json(obj) -> PLFunction:
    try:
        n = int(obj["n"])
        plus = tuple(affine_from_json(f) for f in obj["plus"])
    except (KeyError, TypeError) as exc:
        raise ParseError("piecewise linear function needs n and plus") from exc
    minus = tuple(affine_from_json(f) for f in obj.get("minus", []))
    if not minus:
        from .monge import affine_zero
        minus = (affine_zero(n),)
    if not plus:
        raise ParseError("plus family must be nonempty")
    return PLFunction(n=n, plus=plus, minus=minus)


def poly_from_json(obj, nvars: int) -> Poly:
    terms = {}
    for t in obj:
        terms[tuple(t["exps"])] = _rat(t["coeff"])
    return Poly(nvars, terms)


def testform_from_json(obj) -> TestForm:
    try:
        degree = int(obj["degree"])
        window = tuple((_rat(lo), _rat(hi)) for lo, hi in obj["window"])
    except (KeyError, TypeError) as exc:
        raise ParseError("test form needs degree and window") from exc
    nv = len(window)
    terms = tuple((tuple(t["indices"]), poly_from_json(t["poly"], nv))
                  for t in obj.get("terms", []))
    return TestForm(degree, terms, window)


def family_from_json(obj):
    from .degeneracy import VectorFamily
    try:
        n = int(obj["n"])
        sets = tuple(tuple(cvector_from_json(v) for v in s) for s in obj["sets"])
    except (KeyError, TypeError) as exc:
        raise ParseError("vector family needs n and sets") from exc
    return VectorFamily(n=n, sets=sets)
