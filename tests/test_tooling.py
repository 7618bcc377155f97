import ast
import json
import subprocess
import sys
from pathlib import Path

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
