import json
from fractions import Fraction as F

import pytest

from etv import cli, jsonio
from etv.cli import main
from etv.dualfan import DualFanEtp, dual_fan_etp, pascal_check, valid_k_range
from etv.framed import canonicalize, equivalent, is_etp
from etv.monge import (PLFunction, affine_zero, AffineFunc, corner_locus,
                       mixed_volume_via_ma, support_function)
from etv.polyhedra import HPoly, VPolytope
from etv.scalars import CRat


def pt(*xs):
    return tuple(F(x) for x in xs)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _one_term_cycle(n, indices):
    """A framed set in C^n of one cell, where the first n real coordinates
    vanish, framed by one degree-n term at the given indices."""
    eq = [{"coeffs": [str(int(i == j)) for j in range(2 * n)], "const": "0"}
          for i in range(n)]
    return {"n": n, "k": n, "cells": [{
        "geom": {"ambient": 2 * n, "eq": eq},
        "frame": {"form": {"degree": n, "terms": [{"indices": indices, "value": "1"}]}}}]}


@pytest.fixture
def square_file(tmp_path):
    sq = VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])
    return write(tmp_path, "square.json", jsonio.vpolytope_to_json(sq))


class TestRoundTrips:
    def test_framedset_roundtrip_canonical(self):
        fan = dual_fan_etp(VPolytope.from_points([pt(0, 0), pt(1, 0)]), 1).result
        blob = jsonio.framedset_to_json(fan)
        back = jsonio.etv_from_json(blob)
        assert equivalent(fan, back)
        assert jsonio.framedset_to_json(back) == blob

    def test_frame_transported_from_flipped_basis(self):
        fan = dual_fan_etp(VPolytope.from_points([pt(0, 0), pt(1, 0)]), 1).result
        blob = jsonio.framedset_to_json(fan)
        cell = blob["cells"][0]
        # flip the stored basis and negate the form: same odd form
        cell["frame"]["basis"] = [["0", "-1"]]
        for term in cell["frame"]["form"]["terms"]:
            v = term["value"]
            term["value"] = {"re": v["re"], "im": v["im"].lstrip("-") or "0"}
        back = jsonio.etv_from_json(blob)
        assert equivalent(fan, back)

    def test_plfunction_roundtrip(self):
        h = PLFunction.convex(2, [affine_zero(2),
                                  AffineFunc((CRat(1), CRat(0, 2)), F(1, 3))])
        blob = jsonio.plfunction_to_json(h)
        assert jsonio.plfunction_from_json(blob) == h


class TestCommands:
    def test_schema_flag(self, capsys):
        code, out = run(capsys, "--schema")
        assert code == 0 and "framed_set" in out
        # polytope readers reject rays, so the schema does not offer them
        assert set(out["vpolytope"]["properties"]) == {"vertices"}

    def test_dual_fan_square(self, capsys, square_file):
        code, out = run(capsys, "dual-fan", "--polytope", square_file, "--k", "1")
        assert code == 0
        assert out["balanced"] is True
        assert len(out["result"]["cells"]) == 4
        assert out["conventions"]["id"] == "etv-conventions-1"

    def test_determinism(self, capsys, square_file):
        code1, out1 = run(capsys, "dual-fan", "--polytope", square_file, "--k", "1")
        code2, out2 = run(capsys, "dual-fan", "--polytope", square_file, "--k", "1")
        assert out1 == out2

    def test_mixed_volume_segments(self, capsys, tmp_path):
        e1 = write(tmp_path, "e1.json",
                   {"vertices": [["0", "0", "0", "0"], ["1", "0", "0", "0"]]})
        e2 = write(tmp_path, "e2.json",
                   {"vertices": [["0", "0", "0", "0"], ["0", "0", "1", "0"]]})
        code, out = run(capsys, "mixed-volume", e1, e2)
        assert code == 0 and out["value"] == "1/2"

    def test_mv_oracle_matches(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"vertices": [["0", "0"], ["1", "0"]]})
        b = write(tmp_path, "b.json", {"vertices": [["0", "0"], ["0", "1"]]})
        code, out = run(capsys, "mv-oracle", a, b)
        assert code == 0 and out["value"] == "1/2"

    def test_equivalent_fan_and_refinement(self, capsys, tmp_path, square_file):
        code, fan_out = run(capsys, "dual-fan", "--polytope", square_file, "--k", "1")
        x = write(tmp_path, "x.json", fan_out["result"])
        code, out = run(capsys, "equivalent", x, x)
        assert code == 0 and out["equivalent"] is True

    def test_line_minus_its_halves_is_equivalent_to_empty(self, capsys, tmp_path):
        def cell(ineq, value):
            geom = {"ambient": 2, "eq": [{"coeffs": ["0", "1"], "const": "0"}],
                    "ineq": [{"coeffs": ineq, "const": "0"}] if ineq else []}
            form = {"degree": 1, "terms": [{"indices": [0], "value": value}]}
            return {"geom": geom, "frame": {"form": form}}

        y = {"n": 1, "k": 1,
             "cells": [cell(None, "1"), cell(["-1", "0"], "-1"), cell(["1", "0"], "-1")]}
        empty = {"n": 1, "k": 1, "cells": []}
        code, out = run(capsys, "equivalent", write(tmp_path, "y.json", y),
                        write(tmp_path, "empty.json", empty))
        assert code == 0 and out["equivalent"] is True

    def test_validate_etp_failure_exit_code(self, capsys, tmp_path):
        bad = {"n": 1, "k": 1, "cells": [{
            "geom": {"ambient": 2, "eq": [{"coeffs": ["1", "0"], "const": "0"}],
                     "ineq": [{"coeffs": ["0", "1"], "const": "0"}]},
            "frame": {"form": {"degree": 1,
                               "terms": [{"indices": [0],
                                          "value": {"re": "0", "im": "-1"}}]},
                      "basis": [["0", "1"]]}}]}
        path = write(tmp_path, "bad.json", bad)
        code, out = run(capsys, "validate-etp", path)
        assert code == 1 and out["ok"] is False and out["witness"]

    @pytest.mark.parametrize("order", [1, -1], ids=["valid-first", "invalid-first"])
    def test_validate_etp_names_the_failing_cell(self, capsys, tmp_path, order):
        """The imaginary axis framed by -i dz is valid; the real line y = 0
        framed by i dz is not, and the witness names it in either file order."""
        def line(coeffs, im):
            return {"geom": {"ambient": 2, "eq": [{"coeffs": coeffs, "const": "0"}]},
                    "frame": {"form": {"degree": 1, "terms": [
                        {"indices": [0], "value": {"re": "0", "im": im}}]}}}
        obj = {"n": 1, "k": 1, "cells": [line(["1", "0"], "-1"), line(["0", "1"], "1")][::order]}
        witness = "cell {y1 = 0}: restriction not real-valued"
        assert is_etp(jsonio.framedset_from_json(obj)).witness == witness
        code, out = run(capsys, "validate-etp", write(tmp_path, "x.json", obj))
        assert code == 1 and out["witness"] == witness

    def test_dc_checks_its_cycle(self, capsys, tmp_path):
        """The plane of C^1 framed by i is no cycle.  d^c of an affine h is
        zero, so its weighted boundary is zero, and only a check of the
        input sees the fault."""
        term = {"indices": [], "value": {"re": "0", "im": "1"}}
        plane = {"n": 1, "k": 2, "cells": [
            {"geom": {"ambient": 2}, "frame": {"form": {"degree": 0, "terms": [term]}}}]}
        h = {"n": 1, "plus": [{"w": ["0"], "c": "0"}]}
        code, out = run(capsys, "dc", write(tmp_path, "h.json", h),
                        write(tmp_path, "x.json", plane))
        assert code == 1
        assert out["error"] == "not a valid cycle: cell {}: restriction not real-valued"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        code, out = run(capsys, "validate-etp", str(p))
        assert code == 2 and out["status"] == "parse-error"

    @pytest.mark.parametrize("command, cycle, form", [
        ("validate-etp", {"n": 1, "k": 1, "cells": [{"frame": {"form": {"degree": 1}}}]},
         None),
        ("eval-current", None, {"degree": 0, "window": [["-1", "1"], ["-1", "1"]],
                                "terms": [{"indices": [], "poly": [{"coeff": "1"}]}]}),
        ("eval-current", None, {"degree": 0, "window": [["0"]], "terms": []}),
        ("validate-etp", _one_term_cycle(1, [5]), None),
        ("validate-etp", _one_term_cycle(2, [1, 0]), None),
        ("validate-etp", _one_term_cycle(2, [0]), None),
        ("eval-current", None, {"degree": 1, "window": [["-1", "1"], ["-1", "1"]],
                                "terms": [{"indices": [2], "poly": []}]}),
    ], ids=["cell-without-geom", "poly-term-without-exps", "window-entry-of-one",
            "index-out-of-range", "indices-not-increasing", "indices-fewer-than-degree",
            "test-form-index-out-of-range"])
    def test_malformed_input_is_a_parse_error(self, capsys, tmp_path, square_file,
                                              command, cycle, form):
        if cycle is None:
            code, fan_out = run(capsys, "dual-fan", "--polytope", square_file, "--k", "1")
            cycle = fan_out["result"]
        args = [write(tmp_path, "cycle.json", cycle)]
        if form is not None:
            args.append(write(tmp_path, "form.json", form))
        code, out = run(capsys, command, *args)
        assert code == 2 and out["status"] == "parse-error"

    def test_resource_cap_exit_code(self, capsys, tmp_path, monkeypatch, square_file):
        monkeypatch.setenv("ETV_MAX_CELLS", "0")
        code, fan_out = run(capsys, "dual-fan", "--polytope", square_file, "--k", "1")
        x = write(tmp_path, "x.json", fan_out["result"])
        code, out = run(capsys, "equivalent", x, x)
        assert code == 3 and out["status"] == "resource-cap"

    def test_cell_cap_counts_framed_sets_and_canonical_cycles(self, monkeypatch):
        fan = dual_fan_etp(VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1)]), 1).result
        monkeypatch.setenv("ETV_MAX_CELLS", str(len(fan.cells()) - 1))
        for x in (fan, fan.framed):
            with pytest.raises(cli.ResourceCap):
                cli._guard_cells(x)
        monkeypatch.setenv("ETV_MAX_CELLS", str(len(fan.cells())))
        assert cli._guard_cells(fan.framed) is fan.framed

    @pytest.mark.parametrize("command", ["validate-etp", "boundary", "dc"])
    def test_cell_cap_holds_on_every_framed_input(self, capsys, tmp_path, monkeypatch,
                                                  square_file, command):
        code, fan_out = run(capsys, "dual-fan", "--polytope", square_file, "--k", "2")
        cells = len(fan_out["result"]["cells"])
        args = [write(tmp_path, "x.json", fan_out["result"])]
        if command == "dc":
            h = {"n": 1, "plus": [{"w": ["0"], "c": "0"}, {"w": ["1"], "c": "0"}]}
            args.insert(0, write(tmp_path, "h.json", h))
        monkeypatch.setenv("ETV_MAX_CELLS", str(cells - 1))
        code, out = run(capsys, command, *args)
        assert code == 3 and out["status"] == "resource-cap"
        monkeypatch.setenv("ETV_MAX_CELLS", str(cells))
        assert run(capsys, command, *args)[0] == 0

    def test_cell_cap_precedes_canonical_form(self, capsys, tmp_path, monkeypatch,
                                              square_file):
        code, fan_out = run(capsys, "dual-fan", "--polytope", square_file, "--k", "2")
        blob = fan_out["result"]
        over = write(tmp_path, "x.json", blob)
        not_a_list = write(tmp_path, "y.json", dict(blob, cells={"geom": {}}))
        monkeypatch.setenv("ETV_MAX_CELLS", str(len(blob["cells"]) - 1))

        def refuse(self):
            raise AssertionError("a cell was put in canonical form before the cap")

        monkeypatch.setattr(HPoly, "canonical", refuse)
        code, out = run(capsys, "validate-etp", over)
        assert code == 3 and out["status"] == "resource-cap"
        code, out = run(capsys, "validate-etp", not_a_list)
        assert code == 2 and out["status"] == "parse-error"

    def test_degeneracy_command(self, capsys, tmp_path):
        fam = {"n": 2, "sets": [
            [[{"re": "1", "im": "0"}, {"re": "0", "im": "0"}]],
            [[{"re": "1", "im": "0"}, {"re": "0", "im": "0"}]]]}
        path = write(tmp_path, "fam.json", fam)
        code, out = run(capsys, "degeneracy", "--family", path)
        assert code == 0
        assert out["nondegenerate"] is False
        assert out["witness"]["p"] == 2

    def test_mv_zero_command(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"vertices": [["0", "0"], ["1", "0"]]})
        code, out = run(capsys, "mv-zero", "--bodies", a, a)
        assert code == 0 and out["zero"] is True and len(out["subset"]) == 2

    @pytest.mark.parametrize("command", ["mv-oracle", "mv-zero"])
    def test_bodies_of_different_dimensions_are_invalid(self, capsys, tmp_path, command):
        a = write(tmp_path, "a.json", {"vertices": [["0", "0"], ["1", "0"]]})
        b = write(tmp_path, "b.json", {"vertices": [["0", "0", "0"], ["1", "0", "0"]]})
        args = [a, b] if command == "mv-oracle" else ["--bodies", a, b]
        code, out = run(capsys, command, *args)
        assert code == 1 and out["status"] == "invalid"

    def test_dc_ambient_mismatch_is_invalid(self, capsys, tmp_path):
        square = write(tmp_path, "square.json", {"vertices": [
            ["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "1", "0"],
            ["1", "0", "1", "0"]]})
        code, fan = run(capsys, "dual-fan", "--polytope", square, "--k", "4")
        x = write(tmp_path, "x4.json", fan["result"])
        h = write(tmp_path, "h.json", {
            "n": 1, "plus": [{"w": ["0"], "c": "0"}, {"w": ["1"], "c": "0"}]})
        code, out = run(capsys, "dc", h, x)
        assert code == 1 and out["error"] == "ambient mismatch"

    def test_integer_field_of_wrong_type_is_a_parse_error(self, capsys, tmp_path):
        h = write(tmp_path, "h.json", {
            "n": True, "plus": [{"w": ["0"], "c": "0"}, {"w": ["1"], "c": "0"}]})
        code, out = run(capsys, "corner-locus", h)
        assert code == 2 and out["status"] == "parse-error"

    def test_corner_locus_and_eval_current(self, capsys, tmp_path):
        h = {"n": 1,
             "plus": [{"w": [{"re": "0", "im": "0"}], "c": "0"},
                      {"w": [{"re": "1", "im": "0"}], "c": "0"}],
             "minus": [{"w": [{"re": "0", "im": "0"}], "c": "0"}]}
        hpath = write(tmp_path, "h.json", h)
        code, out = run(capsys, "corner-locus", hpath)
        assert code == 0
        cyc = write(tmp_path, "cyc.json", out["result"])
        phi = write(tmp_path, "phi.json",
                    {"degree": 0, "window": [["-1", "1"], ["-1", "1"]],
                     "terms": [{"indices": [], "poly": [{"exps": [0, 0],
                                                         "coeff": "1"}]}]})
        code, out = run(capsys, "eval-current", cyc, phi)
        assert code == 0 and out["value"] == "2"

    @pytest.mark.parametrize("size", [1, 3])
    def test_eval_current_window_of_the_wrong_size(self, capsys, tmp_path, size):
        h = {"n": 1,
             "plus": [{"w": [{"re": "0", "im": "0"}], "c": "0"},
                      {"w": [{"re": "1", "im": "0"}], "c": "0"}],
             "minus": [{"w": [{"re": "0", "im": "0"}], "c": "0"}]}
        code, out = run(capsys, "corner-locus", write(tmp_path, "h.json", h))
        cyc = write(tmp_path, "cyc.json", out["result"])
        phi = write(tmp_path, "phi.json",
                    {"degree": 0, "window": [["-1", "1"]] * size,
                     "terms": [{"indices": [], "poly": [{"exps": [0] * size,
                                                         "coeff": "1"}]}]})
        code, out = run(capsys, "eval-current", cyc, phi)
        assert code == cli.EXIT_INVALID and out["status"] == "invalid"
        assert f"{size} intervals" in out["error"] and "2 real coordinates" in out["error"]

    def test_boundary_command(self, capsys, tmp_path, square_file):
        code, fan_out = run(capsys, "dual-fan", "--polytope", square_file, "--k", "1")
        x = write(tmp_path, "x.json", fan_out["result"])
        code, out = run(capsys, "boundary", x)
        assert code == 0 and out["support_empty"] is True

    def test_product_command(self, capsys, tmp_path):
        e1 = write(tmp_path, "e1.json",
                   {"vertices": [["0", "0", "0", "0"], ["1", "0", "0", "0"]]})
        e2 = write(tmp_path, "e2.json",
                   {"vertices": [["0", "0", "0", "0"], ["0", "0", "1", "0"]]})
        code, f1 = run(capsys, "dual-fan", "--polytope", e1, "--k", "3")
        x = write(tmp_path, "x.json", f1["result"])
        code, f2 = run(capsys, "dual-fan", "--polytope", e2, "--k", "3")
        y = write(tmp_path, "y.json", f2["result"])
        code, out = run(capsys, "product", x, y)
        assert code == 0 and len(out["result"]["cells"]) == 1


class TestRemainingCommands:
    def seg_fan_file(self, capsys, tmp_path, name, coords):
        seg = write(tmp_path, f"{name}-gamma.json", {"vertices": coords})
        code, out = run(capsys, "dual-fan", "--polytope", seg, "--k", "3")
        assert code == 0
        return write(tmp_path, f"{name}.json", out["result"])

    def test_bergman_command(self, capsys, tmp_path):
        x = self.seg_fan_file(capsys, tmp_path, "x",
                              [["0", "0", "0", "0"], ["1", "0", "0", "0"]])
        code, out = run(capsys, "bergman", x)
        assert code == 0 and len(out["result"]["cells"]) == 1

    def test_stable_support_command(self, capsys, tmp_path):
        x = self.seg_fan_file(capsys, tmp_path, "x",
                              [["0", "0", "0", "0"], ["1", "0", "0", "0"]])
        y = self.seg_fan_file(capsys, tmp_path, "y",
                              [["0", "0", "0", "0"], ["0", "0", "1", "0"]])
        code, out = run(capsys, "stable-support", x, y)
        assert code == 0 and len(out["cells"]) == 1

    def test_mixed_ma_command(self, capsys, tmp_path):
        h1 = write(tmp_path, "h1.json", {
            "n": 2,
            "plus": [{"w": [{"re": "0", "im": "0"}, {"re": "0", "im": "0"}], "c": "0"},
                     {"w": [{"re": "1", "im": "0"}, {"re": "0", "im": "0"}], "c": "0"}]})
        h2 = write(tmp_path, "h2.json", {
            "n": 2,
            "plus": [{"w": [{"re": "0", "im": "0"}, {"re": "0", "im": "0"}], "c": "0"},
                     {"w": [{"re": "0", "im": "0"}, {"re": "1", "im": "0"}], "c": "0"}]})
        code, out = run(capsys, "mixed-ma", h1, h2)
        assert code == 0 and len(out["result"]["cells"]) == 1

    def test_dc_command(self, capsys, tmp_path):
        gamma = write(tmp_path, "gamma.json",
                      {"vertices": [["0", "0"], ["1", "0"]]})
        code, fan = run(capsys, "dual-fan", "--polytope", gamma, "--k", "2")
        x = write(tmp_path, "x2.json", fan["result"])
        h = write(tmp_path, "h.json", {
            "n": 1,
            "plus": [{"w": [{"re": "0", "im": "0"}], "c": "0"},
                     {"w": [{"re": "1", "im": "0"}], "c": "0"}]})
        code, out = run(capsys, "dc", h, x)
        assert code == 0 and len(out["result"]["cells"]) == 1

    def test_add_command(self, capsys, tmp_path):
        x = self.seg_fan_file(capsys, tmp_path, "x",
                              [["0", "0", "0", "0"], ["1", "0", "0", "0"]])
        code, out = run(capsys, "add", x, x)
        assert code == 0
        term = out["result"]["cells"][0]["frame"]["form"]["terms"][0]
        assert term["value"] == {"re": "0", "im": "-2"}


class TestProductDeterminism:
    def test_byte_identical_reports(self, capsys, tmp_path):
        e1 = write(tmp_path, "e1.json",
                   {"vertices": [["0", "0", "0", "0"], ["1", "0", "0", "0"]]})
        code, f1 = run(capsys, "dual-fan", "--polytope", e1, "--k", "3")
        x = write(tmp_path, "x.json", f1["canonical"])
        main(["product", x, x, "--seed", "9", "--output", str(tmp_path / "p1.json")])
        main(["product", x, x, "--seed", "9", "--output", str(tmp_path / "p2.json")])
        assert (tmp_path / "p1.json").read_bytes() == (tmp_path / "p2.json").read_bytes()


    def test_product_does_not_depend_on_seed(self, capsys, tmp_path):
        fans = []
        for name, verts in (("tri", [[0, 0], [1, 0], [0, 1]]),
                            ("sq", [[0, 0], [1, 0], [0, 1], [1, 1]])):
            gamma = write(tmp_path, f"{name}-gamma.json", {"vertices": [
                [str(x), "0", str(y), "0"] for x, y in verts]})
            code, out = run(capsys, "dual-fan", "--polytope", gamma, "--k", "3")
            fans.append(write(tmp_path, f"{name}.json", out["result"]))
        code0, out0 = run(capsys, "product", *fans, "--seed", "0")
        code9, out9 = run(capsys, "product", *fans, "--seed", "9")
        assert code0 == code9 == 0
        assert out0["result"]["cells"]
        assert out0["result"] == out9["result"]


class TestPolyhedralSetJson:
    def test_roundtrip(self):
        from etv.jsonio import polyhedralset_from_json, polyhedralset_to_json
        from etv.polyhedra import HPoly, PolyhedralSet
        cells = [HPoly(2, eq=[((F(1), F(0)), F(0))],
                       ineq=[((F(0), F(1)), F(0))]).canonical(),
                 HPoly(2, eq=[((F(1), F(0)), F(0))],
                       ineq=[((F(0), F(-1)), F(0))]).canonical()]
        ps = PolyhedralSet.from_cells(1, 2, cells)
        blob = polyhedralset_to_json(ps)
        back = polyhedralset_from_json(blob, 1, 2)
        assert polyhedralset_to_json(back) == blob


@pytest.mark.parametrize("reader, obj", [
    (jsonio.hpoly_from_json, {"ambient": 2, "ineq": [{"coeffs": ["1"], "const": "0"}]}),
    (jsonio.plfunction_from_json, {"n": 2, "plus": [{"w": ["1"], "c": "0"}]}),
    (jsonio.framedset_from_json, {"n": 2, "k": 2, "cells": [
        {"geom": {"ambient": 2}, "frame": {"form": {"degree": 2}}}]}),
    (lambda obj: jsonio.form_from_json(obj, 1), {"degree": "one"}),
    (jsonio.vpolytope_from_json, {"vertices": "01"}),
    (jsonio.family_from_json, {"n": 2, "sets": [[["1"]], [["1", "0"]]]}),
], ids=["row-length", "covector-length", "cell-ambient", "degree-type", "vertices-type",
        "family-vector-length"])
def test_reader_rejects_wrong_arity_and_types(reader, obj):
    with pytest.raises(jsonio.ParseError):
        reader(obj)


_PIECES = [{"w": ["1", "0"], "c": "0"}]


@pytest.mark.parametrize("reader, obj", [
    (jsonio.plfunction_from_json, {"n": 2.7, "plus": _PIECES}),
    (jsonio.plfunction_from_json, {"n": True, "plus": [{"w": ["1"], "c": "0"}]}),
    (jsonio.plfunction_from_json, {"n": 0, "plus": [{"w": [], "c": "0"}]}),
    (jsonio.family_from_json, {"n": -1, "sets": []}),
    (jsonio.hpoly_from_json, {"ambient": 0}),
    (jsonio.hpoly_from_json, {"ambient": 1.5}),
    (jsonio.framedset_from_json, {"n": 1, "k": -1, "cells": []}),
    (jsonio.framedset_from_json, {"n": 1, "k": False, "cells": []}),
    (lambda obj: jsonio.form_from_json(obj, 2),
     {"degree": 1.9, "terms": [{"indices": [0], "value": "1"}]}),
    (lambda obj: jsonio.form_from_json(obj, 2), {"degree": -1}),
    (lambda obj: jsonio.form_from_json(obj, 2),
     {"degree": 1, "terms": [{"indices": [True], "value": "1"}]}),
    (jsonio.testform_from_json, {"degree": -1, "window": []}),
    (lambda obj: jsonio.poly_from_json(obj, 1), [{"exps": [1.5], "coeff": "1"}]),
], ids=["n-fraction", "n-boolean", "n-zero", "family-n-negative", "ambient-zero",
        "ambient-fraction", "k-negative", "k-boolean", "degree-fraction", "degree-negative",
        "index-boolean", "test-form-degree-negative", "exponent-fraction"])
def test_reader_rejects_non_integers_and_values_below_the_minimum(reader, obj):
    with pytest.raises(jsonio.ParseError):
        reader(obj)


@pytest.mark.parametrize("n", [2, 2.0, "2"])
def test_integral_numbers_and_decimal_strings_read_as_integers(n):
    assert jsonio.plfunction_from_json({"n": n, "plus": _PIECES}).n == 2


def test_complex_parts_parse_exactly():
    assert jsonio.cvector_from_json([{"re": 0.1, "im": 0}, {"re": "1/3", "im": 0.25}, 0.1]) \
        == (CRat(F(1, 10)), CRat(F(1, 3), F(1, 4)), CRat(F(1, 10)))


_ODD_POLYTOPE = {"vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]}


class TestOddDualCoordinates:
    """A polytope of the dual of C^n has 2n real coordinates, so an odd count
    is refused, not indexed past; `mv-oracle` and `mv-zero` read real points
    of R^n, of any length."""

    @pytest.mark.parametrize("argv", [
        ("dual-fan", "--polytope", "{p}", "--k", "1"),
        ("mixed-volume", "{p}"),
        ("mixed-volume", "{p}", "{p}"),
    ], ids=["dual-fan", "mixed-volume-one", "mixed-volume-two"])
    def test_commands_exit_with_a_parse_error(self, capsys, tmp_path, argv):
        p = write(tmp_path, "odd.json", _ODD_POLYTOPE)
        code, out = run(capsys, *(a.format(p=p) for a in argv))
        assert code == cli.EXIT_PARSE and out["status"] == "parse-error"
        assert "2n" in out["error"]

    def test_reader(self):
        with pytest.raises(jsonio.ParseError):
            jsonio.vpolytope_from_json(_ODD_POLYTOPE)
        assert len(jsonio.points_from_json(_ODD_POLYTOPE)) == 3

    @pytest.mark.parametrize("call", [
        support_function,
        lambda gamma: corner_locus(support_function(gamma)),
        lambda gamma: dual_fan_etp(gamma, 1),
        valid_k_range,
        lambda gamma: pascal_check(gamma, 0),
        lambda gamma: DualFanEtp(gamma, 1, None, []).framed_rep(),
        mixed_volume_via_ma,
    ], ids=["support-function", "corner-locus", "dual-fan", "valid-k-range", "pascal-check",
            "framed-rep", "mixed-volume"])
    def test_library_raises_value_error(self, call):
        gamma = VPolytope.from_points([pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)])
        with pytest.raises(ValueError, match="2n coordinates"):
            call(gamma)

    def test_real_points_of_any_length_still_read(self, capsys, tmp_path):
        bodies = [write(tmp_path, f"e{i}.json",
                        {"vertices": [["0"] * 3, [str(int(i == j)) for j in range(3)]]})
                  for i in range(3)]
        code, out = run(capsys, "mv-oracle", *bodies)
        assert code == 0 and out["value"] == "1/6"
        code, out = run(capsys, "mv-zero", "--bodies", *bodies)
        assert code == 0 and out["zero"] is False
