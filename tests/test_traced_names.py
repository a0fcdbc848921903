import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark's tracer wraps these names by lookup; a rename in setlab
    # must fail here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, attr, *_ in tracing.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module}.{attr}, traced by perfbench/tracing.py, does not exist"
            owner = getattr(owner, part)
