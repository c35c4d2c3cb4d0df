"""Every span target of the benchmark tracer exists in the library.

``perfbench/tracer.py`` wraps the functions listed in its ``SPANS`` table;
a renamed or removed target would break ``perfbench/run.py --trace 1``.
The tracer source is read and executed in a private namespace, so no file
under ``perfbench/`` is written.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["SPANS"]


def test_tracer_span_targets_resolve():
    spans = _spans()
    assert spans
    for module_name, attr, span, _ in spans:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # the tracer patches class attributes through the class __dict__
            cls_name, name = attr.split(".")
            assert name in vars(getattr(owner, cls_name)), span
        else:
            assert callable(getattr(owner, attr, None)), span
