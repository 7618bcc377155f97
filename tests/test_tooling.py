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
