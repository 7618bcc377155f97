"""Per-layer tracing of the etv library from the outside.

`install` wraps every public function and every public method of a public
class defined in the traced modules (one layer per module), and rebinds
each name in every loaded `etv` module that held the original, since
modules import functions by name (`polyhedra` holds its own `solve_lp`;
`framed`, `intersection`, `monge`, `dualfan`, `jsonio` and `cli` hold their
own `canonicalize`).  `verify` then fails loudly if any `etv` module, or
any module passed to it, still holds an unwrapped original.

`scalars` and `polynomials` are not wrapped: their arithmetic is counted
in the self time of whichever layer calls it.

A span's inclusive time is its own duration; its self time is that minus
the durations of its child spans.  Inclusive times are summed over the
outermost span of each function only, so recursion is not counted twice.
Spans are recorded only while `Tracer.enabled` is set, which the
benchmark does around each job, so the exact checks are never traced.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
import types

TRACED_MODULES = ("lp", "linalg", "exterior", "polyhedra", "framed", "dualfan",
                  "intersection", "monge", "degeneracy", "jsonio", "cli")

CANONICAL = "polyhedra.HPoly.canonical"
CANONICALIZE = "framed.canonicalize"
SOLVE_LP = "lp.solve_lp"
RANK = "linalg.rank"
SPLIT = "polyhedra.split_by_hyperplanes"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []          # child time of each open span, ns
        self.depth = {}          # function name -> open spans
        self.layer_depth = {m: 0 for m in TRACED_MODULES}
        self.calls = {}          # function name -> calls
        self.incl_ns = {}        # function name -> ns in outermost spans
        self.self_ns = {m: 0 for m in TRACED_MODULES}
        self.counters = {"lp_rows": 0, "lp_nonoptimal": 0,
                         "lp_under_canonical": 0, "lp_under_canonicalize": 0,
                         "canonical_nontrivial": 0, "pieces": 0,
                         "rank_under_degeneracy": 0}
        self.canonical_inputs = set()
        self.originals = {}      # id(original) -> (original, wrapper)
        self.methods = []        # (class, attribute name, wrapped descriptor)

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name, layer):
        tracer = self
        clock = time.perf_counter_ns
        depth = self.depth
        layer_depth = self.layer_depth
        self_ns = self.self_ns
        calls = self.calls
        incl = self.incl_ns
        stack = self.stack
        calls[name] = 0
        incl[name] = 0
        depth[name] = 0
        pre = {SOLVE_LP: self._pre_solve_lp, CANONICAL: self._pre_canonical,
               RANK: self._pre_rank}.get(name)
        post = {SOLVE_LP: self._post_solve_lp, SPLIT: self._post_split}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args, kwargs)
            outer = depth[name]
            depth[name] = outer + 1
            layer_depth[layer] += 1
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                depth[name] = outer
                layer_depth[layer] -= 1
                self_ns[layer] += dt - child
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                if outer == 0:
                    incl[name] += dt
            if post is not None:
                post(result)
            return result
        return wrapper

    # -- counters at layer boundaries ----------------------------------------

    def _pre_solve_lp(self, args, kwargs):
        c = self.counters
        for pos, key in ((1, "a_ub"), (3, "a_eq")):
            rows = kwargs.get(key, args[pos] if len(args) > pos else None)
            c["lp_rows"] += len(rows or ())
        if self.depth[CANONICAL]:
            c["lp_under_canonical"] += 1
        if self.depth[CANONICALIZE]:
            c["lp_under_canonicalize"] += 1

    def _post_solve_lp(self, result):
        if result.status != "optimal":
            self.counters["lp_nonoptimal"] += 1

    def _pre_canonical(self, args, kwargs):
        poly = args[0]
        if poly._canonical:
            return
        self.counters["canonical_nontrivial"] += 1
        key = (poly.ambient, tuple(sorted(set(poly.eq))),
               tuple(sorted(set(poly.ineq))))
        self.canonical_inputs.add(
            hashlib.blake2b(repr(key).encode(), digest_size=16).hexdigest())

    def _pre_rank(self, args, kwargs):
        if self.layer_depth["degeneracy"]:
            self.counters["rank_under_degeneracy"] += 1

    def _post_split(self, result):
        self.counters["pieces"] += len(result)

    # -- results -------------------------------------------------------------

    def state(self):
        """Raw totals, mergeable across processes (see `merge`)."""
        return {"calls": dict(self.calls), "incl_ns": dict(self.incl_ns),
                "self_ns": dict(self.self_ns), "counters": dict(self.counters),
                "canonical_inputs": sorted(self.canonical_inputs)}

    def merge(self, state):
        for field in ("calls", "incl_ns", "self_ns", "counters"):
            mine = getattr(self, field)
            for key, value in state[field].items():
                mine[key] = mine.get(key, 0) + value
        self.canonical_inputs.update(state["canonical_inputs"])

    def summary(self):
        """The per-layer metrics that tracing measures (see BENCHMARK.json)."""
        calls, incl, c = self.calls, self.incl_ns, self.counters
        lp_calls = calls[SOLVE_LP]
        canon = c["canonical_nontrivial"]

        def secs(ns):
            return ns / 1e9

        def ratio(a, b):
            return a / b if b else 0.0
        out = {
            "lp.solve_lp.calls": lp_calls,
            "lp.solve_lp.rows_mean": ratio(c["lp_rows"], lp_calls),
            "lp.solve_lp.nonoptimal_ratio": ratio(c["lp_nonoptimal"], lp_calls),
            "linalg.calls": sum(v for k, v in calls.items()
                                if k.startswith("linalg.")),
            "linalg.rref.calls": calls["linalg.rref"],
            "polyhedra.canonical.calls": canon,
            "polyhedra.canonical.distinct_ratio":
                ratio(len(self.canonical_inputs), canon),
            "polyhedra.canonical.lp_per_call":
                ratio(c["lp_under_canonical"], canon),
            "polyhedra.canonical.incl_s": secs(incl[CANONICAL]),
            "polyhedra.split_by_hyperplanes.pieces": c["pieces"],
            "polyhedra.common_refinement.incl_s":
                secs(incl["polyhedra.common_refinement"]),
            "framed.canonicalize.calls": calls[CANONICALIZE],
            "framed.canonicalize.lp_calls": c["lp_under_canonicalize"],
            "framed.canonicalize.incl_s": secs(incl[CANONICALIZE]),
            "framed.equivalent.incl_s": secs(incl["framed.equivalent"]),
            "dualfan.dual_fan_etp.incl_s": secs(incl["dualfan.dual_fan_etp"]),
            "intersection.transversal.calls": calls["intersection.transversal"],
            "intersection.transversal.incl_s":
                secs(incl["intersection.transversal"]),
            "intersection.stable_support.incl_s":
                secs(incl["intersection.stable_support"]),
            "monge.corner_locus.incl_s": secs(incl["monge.corner_locus"]),
            "degeneracy.is_nondegenerate.calls":
                calls["degeneracy.is_nondegenerate"],
            "degeneracy.rank_calls": c["rank_under_degeneracy"],
            "degeneracy.degeneracy_witness.incl_s":
                secs(incl["degeneracy.degeneracy_witness"]),
        }
        for layer in ("lp", "linalg", "polyhedra", "framed", "dualfan",
                      "intersection", "monge", "degeneracy", "exterior",
                      "jsonio"):
            out[f"{layer}.self_s"] = secs(self.self_ns[layer])
        return out


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__):
            yield name, obj


def _public_classes(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and isinstance(obj, type)
                and obj.__module__ == module.__name__
                and not issubclass(obj, BaseException)):
            yield name, obj


def install(tracer: Tracer):
    """Wrap the traced modules' public functions and methods in place."""
    modules = {m: importlib.import_module(f"etv.{m}") for m in TRACED_MODULES}
    for layer, module in modules.items():
        for name, fn in _public_functions(module):
            tracer.originals[id(fn)] = (fn, tracer.wrap(fn, f"{layer}.{name}", layer))
        for cname, cls in _public_classes(module):
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                label = f"{layer}.{cname}.{attr}"
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(tracer.wrap(raw.__func__, label, layer))
                elif isinstance(raw, types.FunctionType):
                    wrapped = tracer.wrap(raw, label, layer)
                else:
                    continue  # properties and data fields stay as they are
                setattr(cls, attr, wrapped)
                tracer.methods.append((cls, attr, wrapped))
    for module in _etv_modules():
        _rebind(tracer, module)


def _etv_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "etv" or name.startswith("etv."))]


def _rebind(tracer, module):
    for name, obj in list(vars(module).items()):
        entry = tracer.originals.get(id(obj))
        if entry is not None and entry[0] is obj:
            setattr(module, name, entry[1])


def verify(tracer: Tracer, extra_modules=()):
    """Raise if a module still holds an unwrapped traced function."""
    stale = []
    for module in _etv_modules() + list(extra_modules):
        for name, obj in vars(module).items():
            entry = tracer.originals.get(id(obj))
            if entry is not None and entry[0] is obj:
                stale.append(f"{module.__name__}.{name}")
    for cls, attr, wrapped in tracer.methods:
        if vars(cls).get(attr) is not wrapped:
            stale.append(f"{cls.__module__}.{cls.__name__}.{attr}")
    if stale:
        raise RuntimeError("unwrapped traced functions: " + ", ".join(stale))
    for name in (SOLVE_LP, RANK, SPLIT, CANONICALIZE, CANONICAL,
                 "degeneracy.is_nondegenerate", "intersection.stable_support"):
        if name not in tracer.calls:
            raise RuntimeError(f"{name} is not traced")
