"""Pinned CLI reports: every subcommand's report bytes, its `--output` file
and its exit code, the error paths and the help texts, against SHA-256
digests recorded from a known-good build.

A change to any report, exit code or help text fails here.  If the change
is intended, print the new values with `_observed` and re-record them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from etv.cli import main

_CPLX0 = {"re": "0", "im": "0"}
_CPLX1 = {"re": "1", "im": "0"}

_INPUTS = {
    "square": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
    "seg": {"vertices": [["0", "0"], ["1", "0"]]},
    "seg-im": {"vertices": [["0", "0"], ["0", "1"]]},
    "e1": {"vertices": [["0", "0", "0", "0"], ["1", "0", "0", "0"]]},
    "e2": {"vertices": [["0", "0", "0", "0"], ["0", "0", "1", "0"]]},
    "h": {"n": 1, "plus": [{"w": [_CPLX0], "c": "0"}, {"w": [_CPLX1], "c": "0"}],
          "minus": [{"w": [_CPLX0], "c": "0"}]},
    "h-convex": {"n": 1, "plus": [{"w": [_CPLX0], "c": "0"}, {"w": [_CPLX1], "c": "0"}]},
    "h1": {"n": 2, "plus": [{"w": [_CPLX0, _CPLX0], "c": "0"},
                            {"w": [_CPLX1, _CPLX0], "c": "0"}]},
    "h2": {"n": 2, "plus": [{"w": [_CPLX0, _CPLX0], "c": "0"},
                            {"w": [_CPLX0, _CPLX1], "c": "0"}]},
    "fam-deg": {"n": 2, "sets": [[[_CPLX1, _CPLX0]], [[_CPLX1, _CPLX0]]]},
    "fam-nondeg": {"n": 2, "sets": [[[_CPLX1, _CPLX0]],
                                    [[_CPLX1, _CPLX0], [_CPLX0, _CPLX1]]]},
    "phi": {"degree": 0, "window": [["-1", "1"], ["-1", "1"]],
            "terms": [{"indices": [], "poly": [{"exps": [0, 0], "coeff": "1"}]}]},
    "bad-cycle": {"n": 1, "k": 1, "cells": [{
        "geom": {"ambient": 2, "eq": [{"coeffs": ["1", "0"], "const": "0"}],
                 "ineq": [{"coeffs": ["0", "1"], "const": "0"}]},
        "frame": {"form": {"degree": 1,
                           "terms": [{"indices": [0], "value": {"re": "0", "im": "-1"}}]},
                  "basis": [["0", "1"]]}}]},
}

# framed sets made by the CLI itself: name -> (argv, key of the report)
_DERIVED = {
    "fan-sq": (["dual-fan", "--polytope", "@square", "--k", "1"], "result"),
    "fan-x": (["dual-fan", "--polytope", "@e1", "--k", "3"], "result"),
    "fan-y": (["dual-fan", "--polytope", "@e2", "--k", "3"], "result"),
    "fan-seg": (["dual-fan", "--polytope", "@seg", "--k", "2"], "result"),
    "locus": (["corner-locus", "@h"], "result"),
}


def _make_files(root):
    """Write every input under root: (root, input name -> path)."""
    paths = {}
    for name, obj in _INPUTS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    for name in ("garbage", "garbage2"):
        paths[name] = root / f"{name}.json"
        paths[name].write_text("{not json")
    for name, (argv, key) in _DERIVED.items():
        report = root / f"{name}-report.json"
        assert main(_resolve(argv, paths) + ["--output", str(report)]) == 0
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(json.loads(report.read_text())[key]))
    return root, paths


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _make_files(tmp_path_factory.mktemp("pinned"))


def _resolve(argv, paths):
    return [str(paths[a[1:]]) if a.startswith("@") else a for a in argv]


# id -> (argv, environment, exit code, digest of stdout)
_PINNED = {
    "validate-etp": (["validate-etp", "@fan-sq"], {}, 0, "417d14c06f337e55"),
    "boundary": (["boundary", "@fan-sq"], {}, 0, "5849037794220f79"),
    "dual-fan": (["dual-fan", "--polytope", "@square", "--k", "1"], {}, 0, "4099667370e1ab5e"),
    "add": (["add", "@fan-x", "@fan-x"], {}, 0, "5e2cf87f51273ed2"),
    "product": (["product", "@fan-x", "@fan-y", "--seed", "9"], {}, 0, "b85d9dad2fb8e454"),
    "stable-support": (["stable-support", "@fan-x", "@fan-y"], {}, 0, "bb38315413228587"),
    "bergman": (["bergman", "@fan-x"], {}, 0, "83606bb1a18665a7"),
    "corner-locus": (["corner-locus", "@h"], {}, 0, "146c15d08a68f3d0"),
    "dc": (["dc", "@h-convex", "@fan-seg"], {}, 0, "081b061877973943"),
    "mixed-ma": (["mixed-ma", "@h1", "@h2", "--seed", "2"], {}, 0, "25692b51afae5b04"),
    "mixed-volume": (["mixed-volume", "@e1", "@e2"], {}, 0, "c54b3279cb0c8d3e"),
    "mv-oracle": (["mv-oracle", "@seg", "@seg-im"], {}, 0, "40a911c1dc219e0d"),
    "degeneracy": (["degeneracy", "--family", "@fam-deg"], {}, 0, "ae58ec7dc83c5398"),
    "degeneracy-nondegenerate": (["degeneracy", "--family", "@fam-nondeg"],
                                 {}, 0, "c132365a056a8a74"),
    "mv-zero": (["mv-zero", "--bodies", "@seg", "@seg"], {}, 0, "55c698c711a54f39"),
    "mv-zero-nonzero": (["mv-zero", "--bodies", "@seg", "@seg-im"], {}, 0, "94badffa665d9af9"),
    "eval-current": (["eval-current", "@locus", "@phi"], {}, 0, "1d13819d1186fb6f"),
    "equivalent": (["equivalent", "@fan-sq", "@fan-sq"], {}, 0, "07662cb4f57d4386"),
    "validate-etp-invalid": (["validate-etp", "@bad-cycle"], {}, 1, "a9288f9d19efccae"),
    "value-error": (["mv-zero", "--bodies", "@seg"], {}, 1, "99f508c6de158f11"),
    "parse-error": (["validate-etp", "@garbage"], {}, 2, "cc3e8629048979cd"),
    "parse-error-second-input": (["dc", "@h-convex", "@garbage"], {}, 2, "cc3e8629048979cd"),
    # with two unreadable inputs, the error names the one read first
    "dc-reads-function-first": (["dc", "@garbage", "@garbage2"], {}, 2, "cc3e8629048979cd"),
    "eval-current-reads-cycle-first": (["eval-current", "@garbage2", "@garbage"],
                                       {}, 2, "66c7a86aaf2c25d1"),
    "resource-cap-cells": (["equivalent", "@fan-sq", "@fan-sq"],
                           {"ETV_MAX_CELLS": "0"}, 3, "455c5c0cc88ec959"),
    "resource-cap-subsets": (["degeneracy", "--family", "@fam-deg"],
                             {"ETV_MAX_SUBSETS": "3"}, 3, "07d04ca6bc4a2528"),
    # outputs under the cell cap, and one that is not
    "resource-cap-corner-locus": (["corner-locus", "@h"],
                                  {"ETV_MAX_CELLS": "0"}, 3, "933853865f08df7d"),
    "resource-cap-mixed-ma": (["mixed-ma", "@h1", "@h2"],
                              {"ETV_MAX_CELLS": "0"}, 3, "933853865f08df7d"),
    "dual-fan-uncapped": (["dual-fan", "--polytope", "@square", "--k", "1"],
                          {"ETV_MAX_CELLS": "0"}, 0, "4099667370e1ab5e"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _observed(capsys, monkeypatch, files, case):
    """(exit code, digest of stdout) of a pinned case, with the input
    directory replaced by a fixed name so that error messages hash alike."""
    root, paths = files
    argv, env, _, _ = _PINNED[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out = _run(capsys, _resolve(argv, paths))
    return code, _digest(out.replace(str(root), "<dir>").encode())


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_report_bytes_and_exit_code(capsys, monkeypatch, files, case):
    _, _, code, digest = _PINNED[case]
    assert _observed(capsys, monkeypatch, files, case) == (code, digest)


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_fresh_process_gives_the_pinned_report(files, case):
    """The same cases as `python -m etv.cli` children: a module imported in
    the wrong order, or an import cycle, fails only in a fresh process."""
    root, paths = files
    argv, env, code, digest = _PINNED[case]
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-m", "etv.cli", *_resolve(argv, paths)],
                         capture_output=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src), **env})
    assert (out.returncode, _digest(out.stdout.replace(str(root).encode(), b"<dir>"))) \
        == (code, digest)


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_output_file_holds_the_report(capsys, monkeypatch, files, tmp_path, case):
    """`--output` moves a report to the file; an error report stays on stdout."""
    root, paths = files
    argv, env, code, _ = _PINNED[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = _resolve(argv, paths)
    _, out = _run(capsys, argv)
    target = tmp_path / "report.json"
    if "error" in json.loads(out):
        assert _run(capsys, argv + ["--output", str(target)]) == (code, out)
        assert not target.exists()
    else:
        assert _run(capsys, argv + ["--output", str(target)]) == (code, "")
        assert target.read_text() == out


_HELP = """\
usage: etv [-h] [--schema]
           {validate-etp,boundary,dual-fan,add,product,stable-support,bergman,corner-locus,dc,mixed-ma,mixed-volume,mv-oracle,degeneracy,mv-zero,eval-current,equivalent}
           ...

exact computations with exponential tropical varieties

positional arguments:
  {validate-etp,boundary,dual-fan,add,product,stable-support,bergman,corner-locus,dc,mixed-ma,mixed-volume,mv-oracle,degeneracy,mv-zero,eval-current,equivalent}
    validate-etp        check the cycle conditions
    boundary            framed boundary of a complex
    dual-fan            dual-fan cycle of a polytope
    add                 sum of two cycles
    product             stable product of two cycles
    stable-support      stable cells of two cycles
    bergman             recession fan of a cycle
    corner-locus        corner locus of a PL function
    dc                  weighted boundary of a cycle
    mixed-ma            mixed product of corner loci
    mixed-volume        mixed volume via the mixed product
    mv-oracle           mixed volume by polarization
    degeneracy          family degeneracy verdict and witness
    mv-zero             zero mixed volume criterion
    eval-current        pair a cycle with a test form
    equivalent          same cycle class

options:
  -h, --help            show this help message and exit
  --schema              print the JSON schemas and exit
"""

# subcommand -> digest of its --help text
_SUB_HELP = {
    "validate-etp": "c8f54c7064f3c062",
    "boundary": "58d3f555b9626db6",
    "dual-fan": "b70e66e62d9a4a01",
    "add": "8fc10a86491fb9f6",
    "product": "68baa95f381cca01",
    "stable-support": "0d823bb78200d328",
    "bergman": "7e4dd93fa5dfc6ab",
    "corner-locus": "5202015bc0135e63",
    "dc": "b9abcf8af5046af2",
    "mixed-ma": "ddc218435b8e5155",
    "mixed-volume": "17b30036f8da6cd6",
    "mv-oracle": "adf345b37e6b4a37",
    "degeneracy": "90f21495f397af4c",
    "mv-zero": "ce98ee30ed931bc8",
    "eval-current": "2a71522039aec6c5",
    "equivalent": "72b4dcdbee4188a6",
}


@pytest.fixture
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_top_level_help(capsys, fixed_width):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _HELP


def test_no_command_prints_help_and_exits_2(capsys, fixed_width):
    assert _run(capsys, []) == (2, _HELP)


@pytest.mark.parametrize("command", sorted(_SUB_HELP))
def test_subcommand_help(capsys, fixed_width, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert _digest(capsys.readouterr().out.encode()) == _SUB_HELP[command]
