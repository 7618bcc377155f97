"""JSON interchange for all library objects.

All numbers serialize as exact strings ("p/q" or "p"), complex scalars as
{"re", "im"}, forms as term lists.  Frames are written with an explicit
orientation basis; on load they are transported to the cell's canonical
basis, so files produced with any valid basis round-trip to the same
canonical object.

Only `etv.scalars` is imported at the top: each parser imports the record
classes it builds, so reading a file loads only the modules its objects
live in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import CRat, crat_str, rat_str

if TYPE_CHECKING:
    from .exterior import Alt
    from .framed import EtvRep, FramedSet, TestForm
    from .monge import AffineFunc, PLFunction
    from .polyhedra import HPoly, VPolytope
    from .polynomials import Poly


class ParseError(ValueError):
    pass


def _get(obj, key, *default):
    """obj[key] for a JSON object; a missing key takes the default if one
    is given."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object with {key!r}, got {type(obj).__name__}")
    if key in obj:
        return obj[key]
    if default:
        return default[0]
    raise ParseError(f"missing {key!r}")


def _list(obj, arity=None) -> list:
    """A JSON array, of length `arity` when one is given."""
    if not isinstance(obj, list) or arity not in (None, len(obj)):
        want = "an array" if arity is None else f"an array of {arity}"
        raise ParseError(f"expected {want}, got {obj!r}")
    return obj


def _int(obj, least=None) -> int:
    """An integral number or a decimal string, not a boolean, at least the
    schema minimum `least` when one is given."""
    if isinstance(obj, bool) or isinstance(obj, float) and not obj.is_integer():
        raise ParseError(f"bad integer {obj!r}")
    try:
        value = int(obj)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad integer {obj!r}") from exc
    if least is not None and value < least:
        raise ParseError(f"integer {value} below the minimum {least}")
    return value


def _rat(obj) -> Fraction:
    try:
        return Fraction(str(obj))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {obj!r}") from exc


def _crat(obj) -> CRat:
    """{"re", "im"} (each part optional) or a bare rational."""
    if isinstance(obj, dict):
        return CRat(_rat(obj.get("re", 0)), _rat(obj.get("im", 0)))
    return CRat(_rat(obj))


def _indices(obj, degree: int, size: int) -> tuple:
    """The strictly increasing indices in [0, size) of a degree-`degree` term."""
    idx = tuple(_int(i) for i in _list(obj, degree))
    if any(not 0 <= i < size for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ParseError(f"term indices {list(idx)} are not increasing in [0, {size})")
    return idx


def vector_to_json(v):
    return [rat_str(x) for x in v]


def vector_from_json(obj):
    return tuple(_rat(x) for x in _list(obj))


def cvector_to_json(w):
    return [crat_str(c) for c in w]


def cvector_from_json(obj):
    return tuple(_crat(c) for c in _list(obj))


def form_to_json(form: Alt):
    return {"degree": form.degree,
            "terms": [{"indices": list(k), "value": crat_str(CRat.of(v))}
                      for k, v in sorted(form.terms.items())]}


def _form_fields(obj, n: int):
    """(degree, terms) of a complex form on C^n."""
    degree = _int(_get(obj, "degree"), 0)
    terms = {_indices(_get(t, "indices"), degree, n): _crat(_get(t, "value"))
             for t in _list(_get(obj, "terms", []))}
    return degree, terms


def form_from_json(obj, n: int) -> Alt:
    """A complex form on C^n."""
    from .exterior import Alt
    return Alt(*_form_fields(obj, n))


def _functional_to_json(coeffs, rhs):
    return {"coeffs": vector_to_json(coeffs), "const": rat_str(rhs)}


def _functional_from_json(obj, ambient):
    coeffs = vector_from_json(_get(obj, "coeffs"))
    if len(coeffs) != ambient:
        raise ParseError(f"{len(coeffs)} coefficients in ambient dimension {ambient}")
    return coeffs, _rat(_get(obj, "const"))


def hpoly_to_json(p: HPoly):
    return {"ambient": p.ambient,
            "eq": [_functional_to_json(a, b) for a, b in p.eq],
            "ineq": [_functional_to_json(a, b) for a, b in p.ineq]}


def _hpoly_fields(obj):
    """(ambient, eq, ineq) of an H-polyhedron."""
    ambient = _int(_get(obj, "ambient"), 1)
    eq = [_functional_from_json(e, ambient) for e in _list(_get(obj, "eq", []))]
    ineq = [_functional_from_json(e, ambient) for e in _list(_get(obj, "ineq", []))]
    return ambient, eq, ineq


def hpoly_from_json(obj) -> HPoly:
    from .polyhedra import HPoly
    return HPoly(*_hpoly_fields(obj)).canonical()


def polyhedralset_to_json(ps) -> dict:
    return {"cells": [hpoly_to_json(c) for c in ps.cells]}


def polyhedralset_from_json(obj, k: int, ambient: int):
    from .polyhedra import HPoly, PolyhedralSet
    cells = [HPoly(*_hpoly_fields(c)).canonical() for c in _list(_get(obj, "cells"))]
    return PolyhedralSet.from_cells(k, ambient, cells)


def vpolytope_to_json(v: VPolytope):
    return {"vertices": [vector_to_json(p) for p in v.vertices]}


def points_from_json(obj):
    """The vertex list of a polytope file, as given (not reduced to the
    extreme points)."""
    verts = [vector_from_json(p) for p in _list(_get(obj, "vertices"))]
    if not verts:
        raise ParseError("polytope needs at least one vertex")
    if len({len(v) for v in verts}) != 1:
        raise ParseError("vertices of mixed dimensions")
    if _get(obj, "rays", None):
        raise ParseError("unbounded input polytopes are not supported")
    return verts


def vpolytope_from_json(obj) -> VPolytope:
    """A polytope of the dual of C^n: its vertices have 2n coordinates."""
    from .polyhedra import VPolytope
    points = points_from_json(obj)
    if len(points[0]) % 2:
        raise ParseError(f"vertices of {len(points[0])} coordinates: a polytope "
                         "in the dual of C^n has 2n")
    return VPolytope.from_points(points)


def framedset_to_json(x) -> dict:
    from .framed import _framed
    framed = _framed(x)
    cells = []
    for c in framed.cells:
        cells.append({"geom": hpoly_to_json(c.poly),
                      "frame": {"form": form_to_json(c.frame),
                                "basis": [vector_to_json(b)
                                          for b in c.poly.tangent_basis]}})
    return {"n": framed.n, "k": framed.k, "cells": cells}


def framedset_from_json(obj) -> FramedSet:
    from .exterior import Alt, OddForm
    from .framed import FramedCell, FramedSet
    from .polyhedra import HPoly
    n = _int(_get(obj, "n"), 1)
    k = _int(_get(obj, "k"), 0)
    cells = []
    for entry in _list(_get(obj, "cells", [])):
        poly = HPoly(*_hpoly_fields(_get(entry, "geom"))).canonical()
        if poly.ambient != 2 * n:
            raise ParseError(f"cell of ambient dimension {poly.ambient} for n = {n}")
        frame_obj = _get(entry, "frame", {})
        form = Alt(*_form_fields(_get(frame_obj, "form"), n))
        basis = [vector_from_json(b) for b in _list(_get(frame_obj, "basis", []))]
        if basis and tuple(basis) != tuple(poly.tangent_basis):
            odd = OddForm(form=form, basis=tuple(basis))
            form = odd.transported(tuple(poly.tangent_basis)).form
        cells.append(FramedCell(poly, form))
    return FramedSet(n, k, cells)


def etv_from_json(obj) -> EtvRep:
    from .framed import canonicalize
    return canonicalize(framedset_from_json(obj))


def affine_to_json(f: AffineFunc):
    return {"w": cvector_to_json(f.w), "c": rat_str(f.c)}


def plfunction_to_json(h: PLFunction):
    return {"n": h.n,
            "plus": [affine_to_json(f) for f in h.plus],
            "minus": [affine_to_json(f) for f in h.minus]}


def plfunction_from_json(obj) -> PLFunction:
    from .monge import AffineFunc, PLFunction, affine_zero

    def affine(f):
        return AffineFunc(w=cvector_from_json(_get(f, "w")), c=_rat(_get(f, "c")))

    n = _int(_get(obj, "n"), 1)
    plus = tuple(affine(f) for f in _list(_get(obj, "plus")))
    minus = tuple(affine(f) for f in _list(_get(obj, "minus", [])))
    if any(len(f.w) != n for f in plus + minus):
        raise ParseError(f"affine function of the wrong length for n = {n}")
    if not minus:
        minus = (affine_zero(n),)
    if not plus:
        raise ParseError("plus family must be nonempty")
    return PLFunction(n=n, plus=plus, minus=minus)


def _poly_terms(obj, nvars: int) -> dict:
    """exponent tuple -> coefficient of a polynomial in nvars variables."""
    terms = {}
    for t in _list(obj):
        terms[tuple(_int(e) for e in _list(_get(t, "exps"), nvars))] = _rat(_get(t, "coeff"))
    return terms


def poly_from_json(obj, nvars: int) -> Poly:
    from .polynomials import Poly
    return Poly(nvars, _poly_terms(obj, nvars))


def testform_from_json(obj) -> TestForm:
    from .framed import TestForm
    from .polynomials import Poly
    degree = _int(_get(obj, "degree"), 0)
    window = tuple((_rat(lo), _rat(hi))
                   for lo, hi in (_list(w, 2) for w in _list(_get(obj, "window"))))
    nv = len(window)
    terms = tuple((_indices(_get(t, "indices"), degree, nv),
                   Poly(nv, _poly_terms(_get(t, "poly"), nv)))
                  for t in _list(_get(obj, "terms", [])))
    return TestForm(degree, terms, window)


def family_from_json(obj):
    from .degeneracy import VectorFamily
    n = _int(_get(obj, "n"), 1)
    sets = tuple(tuple(cvector_from_json(v) for v in _list(s))
                 for s in _list(_get(obj, "sets")))
    if any(len(v) != n for s in sets for v in s):
        raise ParseError(f"family vector of the wrong length for n = {n}")
    return VectorFamily(n=n, sets=sets)
