"""cli-batch: chains of `etv` subcommands, each a child process on JSON files.

The only workload that measures `cli`/`jsonio`, process start and import,
and the only one where `framed.canonicalize` runs on input that is
already canonical (the CLI canonicalizes every saved fan it loads).
One child runs at a time; each pays the interpreter start and
`import etv`, as a CLI user does on every call.

A round is one chain of 12 commands on freshly generated input files:

  dual-fan A, dual-fan B   grade-3 fans of a lattice triangle A and a
                           lattice segment B in a real plane of C^2
  product, stable-support  of the two saved fans
  bergman                  of the saved fan of A
  boundary                 of the per-face fan representative of A
  equivalent               that representative against the saved fan
  mixed-volume             two lattice segments (n = 2)
  mv-zero x2               two parallel segments (zero) and a triangle
                           with a segment (nonzero), bodies in R^2
  degeneracy x2            a free and a planted family, n = 4

Checks, after the timed phase and in this process: fans are valid cycles
equivalent to `dual_fan_etp` of the same polytope; product and bergman
reports are equivalent to the library's own `product`/`bergman_fan`; the
product is positive with total weight 2! times the oracle mixed volume
of A and B, and stable-support reports cells exactly when that volume is
nonzero; the boundary is empty and `equivalent` says true; scalar reports match the
golden bytes of the same command run in-process through `etv.cli.main`,
and their values match the oracles (`mixed_volume_oracle`,
`witness_bruteforce`, `DegeneracyWitness.validate`).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from math import factorial

import common
import wl_degeneracy
from common import Job, embed_plane, random_polygon
from etv import cli, jsonio
from etv.degeneracy import DegeneracyWitness, witness_bruteforce
from etv.dualfan import dual_fan_etp
from etv.framed import cell_weight, equivalent, is_etp, is_positive
from etv.intersection import bergman_fan, product
from etv.monge import mixed_volume_oracle
from etv.polyhedra import VPolytope
from etv.scalars import rat_str

CHILD_TIMEOUT_S = 120


class _Batch:
    """Where this process's files go, and whether children run traced."""

    def __init__(self):
        self.dir = os.path.join(common.WORK_DIR, f"cli-{os.getpid()}")
        self.traced = False
        self.trace_files = []


BATCH = _Batch()


def trace_children():
    """Run every later CLI child under the tracer; see `child_trace_states`."""
    BATCH.traced = True


def child_trace_states():
    """The tracer totals each traced child wrote (see tracecli.py).

    A child that died before writing them is already a failed job.
    """
    return [_read(path) for path in BATCH.trace_files if os.path.exists(path)]


def peak_rss_kb():
    """Peak resident memory of the largest CLI child."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def cleanup():
    shutil.rmtree(BATCH.dir, ignore_errors=True)


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _vertices(points):
    return {"vertices": [[rat_str(Fraction(x)) for x in p] for p in points]}


def _family(fam):
    return {"n": fam.n,
            "sets": [[[{"re": rat_str(c.re), "im": rat_str(c.im)} for c in v]
                      for v in s] for s in fam.sets]}


def _launch(argv, out_path):
    """Run one `etv` command as a child process; return its report bytes."""
    env = common.child_env()
    command = [sys.executable, "-m", "etv.cli"]
    if BATCH.traced:
        command = [sys.executable, os.path.join(common.BENCH_DIR, "tracecli.py")]
        env["PERFBENCH_TRACE"] = out_path + ".trace.json"
        BATCH.trace_files.append(env["PERFBENCH_TRACE"])
    _, code, _, err = common.run_child([*command, *argv, "--output", out_path],
                                       CHILD_TIMEOUT_S, env=env,
                                       stderr=subprocess.PIPE)
    if code != 0:
        raise RuntimeError(f"etv {argv[0]} exited {code}: "
                           f"{err.decode(errors='replace')[-300:]}")
    with open(out_path, "rb") as fh:
        return fh.read()


def _golden(argv, path):
    """The report bytes of the same command run in this process."""
    code = cli.main([*argv, "--output", path])
    with open(path, "rb") as fh:
        return code, fh.read()


def _scalar_job(argv, out_path, value_ok):
    def run(results):
        return _launch(argv, out_path)

    def check(raw, results):
        code, golden = _golden(argv, out_path + ".golden")
        return code == 0 and raw == golden and value_ok(json.loads(raw))
    return run, check


def _fan_job(points, poly_path, out_path, fan_path, rep_path):
    def run(results):
        raw = _launch(["dual-fan", "--polytope", poly_path, "--k", "3"], out_path)
        report = json.loads(raw)
        _write(fan_path, report["canonical"])
        _write(rep_path, report["result"])
        return report

    def check(report, results):
        gamma = VPolytope.from_points(points)
        return (report["status"] == "ok"
                and is_etp(jsonio.framedset_from_json(report["result"])).ok
                and equivalent(jsonio.etv_from_json(report["canonical"]),
                               dual_fan_etp(gamma, 3).result))
    return run, check


def _cycle_job(argv, out_path, golden, value_ok=lambda cycle: True):
    def run(results):
        return json.loads(_launch(argv, out_path))

    def check(report, results):
        if report["status"] != "ok":
            return False
        cycle = jsonio.etv_from_json(report["result"])
        return equivalent(cycle, golden()) and value_ok(cycle)
    return run, check


def _weight_ok(bodies):
    """The cycle is positive with total weight 2! times the mixed volume."""
    def ok(cycle):
        weight = sum(cell_weight(c.frame, c.poly.tangent_basis)
                     for c in cycle.cells())
        return (is_positive(cycle)
                and weight == factorial(2) * mixed_volume_oracle(*bodies))
    return ok


def _support_ok(bodies):
    """Stable cells are reported exactly when the mixed volume is nonzero."""
    def ok(report):
        return bool(report["cells"]) is (mixed_volume_oracle(*bodies) != 0)
    return ok


def _boundary_job(rep_path, out_path):
    def run(results):
        return json.loads(_launch(["boundary", rep_path], out_path))

    def check(report, results):
        cells = jsonio.framedset_from_json(report["result"]).support_cells()
        return report["support_empty"] is True and not cells
    return run, check


def _mv_zero_ok(bodies):
    def ok(report):
        zero = mixed_volume_oracle(*bodies) == 0
        return report["zero"] is zero
    return ok


def _degeneracy_ok(fam):
    def ok(report):
        oracle = witness_bruteforce(fam)
        if report["nondegenerate"]:
            return oracle is None
        w = report["witness"]
        witness = DegeneracyWitness(
            p=w["p"], set_indices=tuple(w["set_indices"]),
            subspace_basis=tuple(jsonio.cvector_from_json(v)
                                 for v in w["subspace_basis"]))
        return oracle is not None and witness.validate(fam)
    return ok


def make_round(rng, rnd):
    d = os.path.join(BATCH.dir, f"round{rnd}")
    os.makedirs(d, exist_ok=True)

    def path(name):
        return os.path.join(d, name)

    tri2d, seg2d = random_polygon(rng, 3, 2), random_polygon(rng, 2, 2)
    tri = embed_plane(tri2d, 2)
    seg = embed_plane(seg2d, 2, slot=1)
    # both bodies lie in the real plane of x1 and x2; the segment's
    # coordinates are swapped there (slot 1)
    plane_bodies = [[(Fraction(x), Fraction(y)) for x, y in tri2d],
                    [(Fraction(y), Fraction(x)) for x, y in seg2d]]
    mv_bodies = [[tuple(Fraction(x) for x in p) for p in random_polygon(rng, 2, 2)]
                 for _ in range(2)]
    direction = random_polygon(rng, 2, 2)
    parallel = [[(Fraction(x), Fraction(y)) for x, y in direction],
                [(Fraction(2 * x + 1), Fraction(2 * y)) for x, y in direction]]
    mixed = [[tuple(Fraction(x) for x in p) for p in random_polygon(rng, m, 2)]
             for m in (3, 2)]
    families = [wl_degeneracy.family(rng, 4, "free", 0),
                wl_degeneracy.family(rng, 4, "planted", 2)]

    _write(path("A.json"), _vertices(tri))
    _write(path("B.json"), _vertices(seg))
    mv_paths = [_write(path(f"mv{i}.json"), _vertices(embed_plane(b, 2)))
                for i, b in enumerate(mv_bodies)]
    zero_paths = [[_write(path(f"z{j}{i}.json"), _vertices(b))
                   for i, b in enumerate(bodies)]
                  for j, bodies in enumerate((parallel, mixed))]
    fam_paths = [_write(path(f"fam{i}.json"), _family(f))
                 for i, f in enumerate(families)]
    fan_a, fan_b = path("fanA.json"), path("fanB.json")
    rep_a = path("repA.json")

    def loaded(p):
        return jsonio.etv_from_json(_read(p))

    jobs = [
        Job("dual-fan:A", "dual-fan",
            *_fan_job(tri, path("A.json"), path("out-fanA"), fan_a, rep_a)),
        Job("dual-fan:B", "dual-fan",
            *_fan_job(seg, path("B.json"), path("out-fanB"), fan_b,
                      path("repB.json"))),
        Job("product", "product",
            *_cycle_job(["product", fan_a, fan_b], path("out-product"),
                        lambda: product(loaded(fan_a), loaded(fan_b)),
                        _weight_ok(plane_bodies))),
        Job("stable-support", "stable-support",
            *_scalar_job(["stable-support", fan_a, fan_b], path("out-stable"),
                         _support_ok(plane_bodies))),
        Job("bergman", "bergman",
            *_cycle_job(["bergman", fan_a], path("out-bergman"),
                        lambda: bergman_fan(loaded(fan_a)))),
        Job("boundary", "boundary", *_boundary_job(rep_a, path("out-boundary"))),
        Job("equivalent", "equivalent",
            *_scalar_job(["equivalent", rep_a, fan_a], path("out-equivalent"),
                         lambda report: report["equivalent"] is True)),
        Job("mixed-volume", "mixed-volume",
            *_scalar_job(["mixed-volume", *mv_paths], path("out-mv"),
                         lambda report: report["value"]
                         == rat_str(mixed_volume_oracle(*mv_bodies)))),
    ]
    for j, bodies in enumerate((parallel, mixed)):
        jobs.append(Job(f"mv-zero:{j}", "mv-zero",
                        *_scalar_job(["mv-zero", "--bodies", *zero_paths[j]],
                                     path(f"out-mvzero{j}"), _mv_zero_ok(bodies))))
    for i, fam in enumerate(families):
        jobs.append(Job(f"degeneracy:{i}", "degeneracy",
                        *_scalar_job(["degeneracy", "--family", fam_paths[i]],
                                     path(f"out-deg{i}"), _degeneracy_ok(fam))))
    return jobs
