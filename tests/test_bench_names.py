"""Every birkhoff name the benchmark harness reaches still exists.

bench/tracer.py wraps the layer boundaries by owner and attribute name, and
bench/workloads.py imports its inputs and oracles by name, so a rename in
the package would otherwise show up only as a failed benchmark run.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    # a harness file under a name of its own, so no module that
    # bench/test_bench.py imports from that directory is shadowed
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves_to_a_callable():
    targets = load("tracer").birkhoff_targets()
    missing = [span for span, owner, attribute, _ in targets
               if not callable(getattr(owner, attribute, None))]
    assert targets and missing == []


def test_workloads_imports_every_name_it_uses():
    # its `from birkhoff... import ...` lines run here; a missing name raises
    # ImportError
    load("workloads")
