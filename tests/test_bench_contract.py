"""What the benchmark needs from the library, checked without running it.

``bench/spans.py`` wraps library functions by name and ``bench/workloads.py``
reads ``slack_matrix(...).matrix``; a rename or deletion there breaks the
traced benchmark long before it breaks a unit test, so this file loads
``spans.py`` by path and checks those names against the package.
"""

import importlib.util
from pathlib import Path

import exactnmf
from exactnmf.linalg import Matrix

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for name, module_name, attr in load_spans().TARGETS:
        module = getattr(exactnmf, module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the class's own attribute, not an inherited one
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr)), name


def test_slack_matrix_exposes_matrix(h7_polygon):
    assert isinstance(exactnmf.slack_matrix(h7_polygon).matrix, Matrix)


def test_every_exported_name_resolves():
    for name in exactnmf.__all__:
        assert hasattr(exactnmf, name), name
