"""Every name the benchmark's tracer (perfbench/spans.py) wraps or reads resolves in src/.

A refactor that renames or removes one of them fails here, not in `--trace 1`.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))  # spans.py imports speed.py by its bare name
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def resolve(name: str):
    layer, attr = name.split(".")
    module = importlib.import_module(f"jordanlab.{layer}")
    assert hasattr(module, attr), f"{name} is gone from jordanlab.{layer}"
    return module, getattr(module, attr)


def is_span(module, attr: str, obj) -> bool:
    """What Tracer.install wraps: a public function defined in the layer module."""
    return (not attr.startswith("_") and not isinstance(obj, type) and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__)


def test_layers_and_methods_resolve(spans):
    for layer in spans.LAYERS:
        importlib.import_module(f"jordanlab.{layer}")
    for layer, methods in spans.METHODS.items():
        assert layer in spans.LAYERS
        module = importlib.import_module(f"jordanlab.{layer}")
        for cls_name, method, _ in methods:
            cls = getattr(module, cls_name, None)
            assert isinstance(cls, type), f"{layer}.{cls_name} is not a class"
            assert method in cls.__dict__, f"{layer}.{cls_name}.{method} is gone"


def test_under_skip_and_cache_names_resolve(spans):
    for name, ancestor in spans.UNDER.items():
        for span in (name, ancestor):
            module, obj = resolve(span)
            assert is_span(module, span.split(".")[1], obj), f"{span} is not wrapped"
    for name in spans.SKIP:
        resolve(name)
    for name in spans.CACHES:
        _, fn = resolve(name)
        assert hasattr(fn, "cache_info"), f"{name} is no longer cached"
    resolve("theta._STRUCTURES")  # Tracer.report counts the cached structures


def test_per_op_imports_resolve(spans):
    tree = ast.parse(inspect.getsource(spans.per_op))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, attr in imported:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr} is gone"


def test_theta_structure_keeps_what_per_op_reads(spans):
    # per_op reads the basis and the object layer off a level-3 structure
    source = inspect.getsource(spans.per_op)
    assert "structure.basis" in source and "structure.mu_elements()" in source
    from jordanlab.ellcurve import Curve
    from jordanlab.theta import ThetaStructure, theta_structure
    structure = theta_structure(Curve.make(13, 7, 0), 3)
    assert isinstance(structure, ThetaStructure) and callable(ThetaStructure.mu_elements)
    assert len(structure.basis) == 2 and len(structure.mu_elements()) == 27


def test_tracer_installs_and_every_benchmark_span_exists():
    # in a child interpreter: install() rebinds names across the whole package
    script = (
        "import json, spans\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "import jordanlab.cli as cli\n"
        "cli.main(['abstract', '--delta', '2'])\n"
        "wrapped = set(tracer.originals) | {f'{layer}.{cls}.{label}' for layer, methods\n"
        "    in spans.METHODS.items() for cls, _, label in methods}\n"
        "report = tracer.report()\n"
        "print(json.dumps({'wrapped': sorted(wrapped), 'traced': sorted(report['spans'])}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=PERFBENCH, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    wrapped = set(out["wrapped"])
    assert "cli.run_abstract" in out["traced"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        name = metric["name"]
        for suffix in (".calls", ".self_s"):
            if name.endswith(suffix):
                assert name[: -len(suffix)] in wrapped, f"{name} names no traced span"
