import ast
import importlib
import json
import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# per-layer metrics that the benchmark measures outside the tracer
_NOT_FROM_TRACER = {"cli.process_ms", "trace.untraced_s", "trace.overhead_ratio"}

_TRACE_SUMMARY = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracer
t = tracer.Tracer()
tracer.install(t)
tracer.verify(t)
print(json.dumps(sorted(t.summary())))
"""


def test_tracer_summary_names_every_per_layer_metric():
    """A traced name that disappears from the library fails here, not only
    in a traced benchmark run."""
    code = _TRACE_SUMMARY.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(json.loads(out.stdout)) == {m["name"] for m in declared} - _NOT_FROM_TRACER


def _library_nodes():
    """(file name, node) for every syntax node of the library's modules."""
    for path in sorted((ROOT / "src" / "etv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_library_imports_only_the_standard_library():
    for name, node in _library_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] in sys.stdlib_module_names, \
                f"{name}:{node.lineno} imports {module}"


def test_library_has_no_float_constant():
    for name, node in _library_nodes():
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), \
                f"{name}:{node.lineno} has the constant {node.value!r}"


def test_only_polyhedra_solves_lps():
    """Every LP of the library runs through `polyhedra`, so patching its
    `solve_lp` sees them all."""
    importers = set()
    for name, node in _library_nodes():
        if isinstance(node, ast.ImportFrom) and node.module in ("lp", "etv.lp"):
            if any(alias.name == "solve_lp" for alias in node.names):
                importers.add(name)
        elif isinstance(node, ast.Attribute) and node.attr == "solve_lp":
            importers.add(name)
    assert importers == {"polyhedra.py"}


def _names_read(node):
    """Names that a syntax tree reads: loaded names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _names_bound(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_name_is_used():
    """Each module-level private name of the library is read by some other
    top-level statement of the library, so no leftover helper stays behind."""
    statements = [(path.name, stmt) for path in sorted((ROOT / "src" / "etv").glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [set(_names_read(stmt)) for _, stmt in statements]
    for i, (name, stmt) in enumerate(statements):
        for bound in _names_bound(stmt):
            if bound.startswith("_") and not bound.startswith("__"):
                assert any(bound in r for j, r in enumerate(reads) if j != i), \
                    f"{name}:{stmt.lineno} defines {bound}, which nothing reads"


def test_every_memo_is_written_through_the_one_eviction():
    """Each module-level `_*_MEMO` dict of the library is read by `.get` and
    written only by `linalg._remember` under its own `_*_MEMO_CAP`, which
    drops the oldest entry when full, so no memo grows without bound."""
    from etv.linalg import _remember
    memo = {}
    for key in range(5):
        assert _remember(memo, 3, key, -key) == -key
        assert len(memo) <= 3
    assert memo == {2: -2, 3: -3, 4: -4}

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "etv").glob("*.py"))}
    memos, caps, bindings = set(), set(), set()
    for tree in trees.values():
        for stmt in tree.body:
            for bound in _names_bound(stmt):
                if re.fullmatch(r"_\w+_MEMO", bound):
                    assert isinstance(stmt.value, ast.Dict) and not stmt.value.keys, bound
                    memos.add(bound)
                    bindings.add(stmt)
                elif re.fullmatch(r"_\w+_MEMO_CAP", bound):
                    caps.add(bound)
    assert {"_CANONICAL_MEMO", "_TANGENT_MEMO", "_SPLIT_MEMO"} <= memos
    assert caps == {memo + "_CAP" for memo in memos}
    for name, tree in trees.items():
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Name) and node.id in memos):
                continue
            up = parent[node]
            read = isinstance(up, ast.Attribute) and up.attr == "get" \
                and isinstance(parent[up], ast.Call) and parent[up].func is up
            kept = isinstance(up, ast.Call) and getattr(up.func, "id", None) == "_remember" \
                and up.args[:2] and up.args[0] is node \
                and getattr(up.args[1], "id", None) == node.id + "_CAP"
            assert read or kept or up in bindings, \
                f"{name}:{node.lineno} uses {node.id} other than by .get or _remember"


def test_every_slot_is_read():
    """Each entry of a library class's `__slots__` is loaded as an attribute
    somewhere in the library, so no dead cache slot stays behind."""
    slots = []
    loaded = set()
    for name, node in _library_nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                    slots += [(name, node.name, elt.value) for elt in stmt.value.elts]
    assert slots
    for name, cls, slot in slots:
        assert slot in loaded, f"{name}: {cls}.{slot} is never read"


def test_readme_layout_table_names_every_module():
    """Each library module but `__init__` has a row, as `etv.<name>`, in the
    layout table of the README."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    table = takewhile(lambda line: line.startswith("|"),
                      lines[lines.index("| module | contents |"):])
    named = set(re.findall(r"`etv\.(\w+)`", "\n".join(table)))
    modules = {p.stem for p in (ROOT / "src" / "etv").glob("*.py")} - {"__init__"}
    assert modules - named == set()


def _library_classes():
    for path in sorted((ROOT / "src" / "etv").glob("*.py")):
        module = importlib.import_module("etv" if path.stem == "__init__" else f"etv.{path.stem}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def test_every_class_is_a_record_slotted_or_an_exception():
    """Library objects carry no per-instance `__dict__`: each class is a
    `NamedTuple`, declares `__slots__`, or is an exception."""
    classes = list(_library_classes())
    assert classes
    for cls in classes:
        if issubclass(cls, BaseException):
            continue
        record = issubclass(cls, tuple) and hasattr(cls, "_fields")
        assert record or "__slots__" in vars(cls), f"{cls.__qualname__} is neither"
        assert cls.__dictoffset__ == 0, f"{cls.__qualname__} instances have a __dict__"


def _loaded_after(code, cwd=None):
    """The modules that a fresh `python -S` child has loaded after running
    `code`, as printed on the last line of its output: `etv` submodules
    without the `etv.` prefix, and `dataclasses` and `inspect`."""
    code += ("\nimport sys\nprint(*sorted(m[4:] if m.startswith('etv.') else m"
             " for m in sys.modules if m.startswith('etv.')"
             " or m in ('dataclasses', 'inspect')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env, cwd=cwd)
    return set(out.stdout.splitlines()[-1].split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """`import etv.cli` is paid on every CLI call: it loads neither of these
    two modules, which cost about a fifth of it and no computation needs,
    and of the library only the command-line core.  `import etv` loads no
    submodule until a name or a submodule is read from it."""
    assert _loaded_after("import etv.cli") <= {"cli", "jsonio", "scalars"}
    assert _loaded_after("import etv") == set()
    assert _loaded_after("import etv; etv.lp") == {"lp"}
    assert _loaded_after("from etv import VectorFamily") == {"degeneracy", "linalg", "scalars"}


_C0, _C1 = {"re": "0", "im": "0"}, {"re": "1", "im": "0"}
_LOAD_INPUTS = {
    "fam": {"n": 2, "sets": [[[_C1, _C0]], [[_C1, _C0], [_C0, _C1]]]},
    "seg": {"vertices": [["0", "0"], ["1", "0"]]},
    "seg-im": {"vertices": [["0", "0"], ["0", "1"]]},
    "square": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
}
_VECTOR_FAMILY_ONLY = {"polyhedra", "lp", "framed", "exterior", "intersection", "dualfan",
                       "monge", "schemas"}

# a command's arguments -> (the modules it runs, modules it must not load)
_COMMAND_LOADS = {
    "degeneracy": (["degeneracy", "--family", "fam.json"], {"degeneracy"},
                   _VECTOR_FAMILY_ONLY),
    "mv-zero": (["mv-zero", "--bodies", "seg.json", "seg.json"], {"degeneracy"},
                _VECTOR_FAMILY_ONLY),
    "mv-zero-nonzero": (["mv-zero", "--bodies", "seg.json", "seg-im.json"], {"degeneracy"},
                        _VECTOR_FAMILY_ONLY),
    "dual-fan": (["dual-fan", "--polytope", "square.json", "--k", "1"], {"dualfan"},
                 {"monge", "intersection", "degeneracy", "schemas"}),
    "schema": (["--schema"], {"schemas"}, set()),
}


@pytest.mark.parametrize("case", sorted(_COMMAND_LOADS))
def test_each_command_loads_only_its_modules(tmp_path, case):
    """A CLI call compiles what it loads when bytecode is not cached, so a
    command loads the modules it runs and no others; only `--schema`
    loads the schemas."""
    argv, runs, never = _COMMAND_LOADS[case]
    for name, obj in _LOAD_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    if argv != ["--schema"]:
        argv = argv + ["--output", "report.json"]
    loaded = _loaded_after(f"import etv.cli\nassert etv.cli.main({argv!r}) == 0", tmp_path)
    assert runs <= loaded
    assert loaded & never == set()


def test_every_public_method_is_read():
    """Each public method or property of a library class is read as an
    attribute, `.name`, somewhere in the library, its tests, the benchmark
    or the README, so no method that nothing calls stays behind."""
    methods = [(name, node.name, stmt.name) for name, node in _library_nodes()
               if isinstance(node, ast.ClassDef) for stmt in node.body
               if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]
    assert methods
    loaded = set(re.findall(r"\.(\w+)", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        loaded.update(node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    for name, cls, method in methods:
        assert method in loaded, f"{name}: {cls}.{method} is never read"


def test_every_exported_name_is_read():
    """Each name that `etv/__init__.py` exports is imported, or read as an
    attribute, by another library module, a test, the benchmark or the
    README's Python examples; a local of the same name does not count."""
    init = ast.parse((ROOT / "src" / "etv" / "__init__.py").read_text(encoding="utf-8"))
    table = next(node.value for node in init.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"])
    exported = {name for names in ast.literal_eval(table).values() for name in names}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees = [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    trees += [ast.parse(path.read_text(encoding="utf-8"))
              for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                           *(ROOT / "perfbench").glob("*.py")]
              if path.name != "__init__.py"]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert exported
    assert exported - read == set()


def test_every_exported_name_resolves_alike():
    """Each name of the export table of `etv/__init__.py` is the same object
    read as `etv.<name>`, by `from etv import *` and from its module; the
    table is `__all__` and `dir(etv)`, and no other name resolves."""
    import etv
    star = {}
    exec("from etv import *", star)
    del star["__builtins__"]
    names = {name for names in etv._EXPORTS.values() for name in names}
    for module, in_module in etv._EXPORTS.items():
        for name in in_module:
            obj = getattr(getattr(etv, module), name)
            assert getattr(etv, name) is obj, name
            assert star[name] is obj, name
    assert set(star) == names
    assert sorted(etv.__all__) == sorted(dir(etv)) == sorted(names)
    with pytest.raises(AttributeError):
        etv.no_such_name
