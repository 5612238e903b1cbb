"""Every birkhoff name the benchmark harness reaches still exists.

bench/tracer.py wraps the layer boundaries by owner and attribute name, and
bench/workloads.py imports its inputs and oracles by name, so a rename in
the package would otherwise show up only as a failed benchmark run.  The
tracer's hooks count work through what the package returns (polynomial
lengths, generator parts, output files), so each is run on a real call too.
"""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from birkhoff import (CanonicalPolynomial, CubicQuarticCoefficients, Frequencies, ModelParams,
                      ResonanceError, build_model_hamiltonian, coefficients, normalize,
                      poisson_bracket)
from birkhoff.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def test_conftest_loads_by_path_with_only_src_on_the_path(tmp_path):
    # bench/workloads.py::lie_forms runs tests/conftest.py by file path, for
    # normalize-batch's oracle, where tests/ is not on sys.path: an import of
    # a module beside conftest.py would fail there, and so it fails here
    code = "\n".join([
        "import importlib.util, sys",
        f"sys.path.insert(0, {str(ROOT / 'src')!r})",
        "spec = importlib.util.spec_from_file_location(",
        f"    'birkhoff_test_conftest', {str(ROOT / 'tests' / 'conftest.py')!r})",
        "module = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(module)",
        "names = ('lie_k2200', 'lie_k1111', 'lie_k0022', 'lie_d2')",
        "print(*(n for n in names if callable(getattr(module, n, None))))",
    ])
    # -I: no PYTHONPATH, no user site and no script or working directory
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["lie_k2200", "lie_k1111", "lie_k0022", "lie_d2"]


def test_workloads_calls_the_k_functions_as_bench_does():
    # the cross-check screen calls k2200, k1111 and k0022 at a (coefficients,
    # Frequencies) pair: at the README point, and at the exact pole
    # omega1 = 0.5, where it steps to the next double
    cross_check_fails = load("workloads").cross_check_fails
    cq = coefficients(ModelParams(mu=0.00025, q=0.025, Q=0.00025, A=0.00025)).cubic_quartic()
    for omega1 in (0.3, 0.5):
        assert type(cross_check_fails(cq, omega1)) is bool


def test_every_hook_counts_a_real_call(tmp_path):
    hooks = {span: hook for span, _, _, hook in load("tracer").birkhoff_targets() if hook}
    counts = Counter()
    f = CanonicalPolynomial({(1, 1, 0, 0): 1.0, (2, 0, 0, 0): 0.5})
    g = CanonicalPolynomial({(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 2.0, (0, 0, 1, 0): 3.0})
    hooks.pop("polyalg.poisson_bracket")(counts, (f, g), {}, poisson_bracket(f, g), None)

    ham = build_model_hamiltonian(CubicQuarticCoefficients(a1=0.4, a3=-0.9, b1=0.7),
                                  Frequencies(1.07, 0.41))
    report = normalize(ham)
    # a2 u^2 v is resonant on omega3 = 2 omega1
    resonant = build_model_hamiltonian(CubicQuarticCoefficients(a2=1.0), Frequencies(1.0, 2.0))
    with pytest.raises(ResonanceError) as err:
        normalize(resonant)
    count_normal_form = hooks.pop("normalform.normalize")
    count_normal_form(counts, (ham,), {}, report, None)
    count_normal_form(counts, (resonant,), {}, None, err.value)

    source, output = tmp_path / "h.json", tmp_path / "report.json"
    source.write_text(json.dumps(ham.to_json_dict()))
    argv = ["normalize", "--input", str(source), "--output", str(output)]
    hooks.pop("cli.main")(counts, (argv,), {}, main(argv), None)

    generator_terms = sum(len(p.terms) for p in report.generating.parts.values())
    assert hooks == {} and generator_terms > 0
    assert counts == {"polyalg.poisson_bracket.term_pairs": 6,
                      "normalform.generator_terms": generator_terms,
                      "normalform.resonance_errors": 1,
                      "cli.output_bytes": output.stat().st_size}
