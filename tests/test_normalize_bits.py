"""Bit pin of the chart changes, the bracket and the normalize report.

Over a seeded set of Hamiltonians -- fully populated ones in both charts,
model-form ones and near-resonant ones, plus a few exactly resonant ones --
every coefficient repr of complexify, realify and poisson_bracket(h3, w3), in
the order the polynomial holds its terms, and the exit code, stdout and stderr
of `birkhoff normalize` on the written file are hashed and compared with a
digest recorded from the nested-loop bracket and chart change and the
recursive report writer.
"""

import itertools
import json
import random

from birkhoff import (
    CubicQuarticCoefficients,
    Frequencies,
    GradedHamiltonian,
    ResonanceError,
    build_model_hamiltonian,
    normalize,
)
from birkhoff import polyalg
from birkhoff.cli import main
from birkhoff.polyalg import complexify, poisson_bracket, realify
from conftest import assert_digest

#: SHA-256 of the lines of outcomes(); recorded before the loops were flattened
DIGEST = "d0be7a5637d4f811e5b4030383474157f0ec49a89a8315222fad5ee49bd3afff"

#: (omega1, omega3) next to a cubic or quartic resonance, inside the flag
#: window and above the divisor tolerance
NEAR_RESONANT = ((2.00002, 1.0), (1.0, 2.0000031), (0.5, 1.5000004),
                 (1.0000007, 1.0), (3.0, 1.0000009))
#: exact resonances: 2:1 (cubic), 1:1 and 3:1 (quartic); exit 4
RESONANT = ((2.0, 1.0), (1.0, 1.0), (1.5, 0.5))

_RARE = (0.0, -0.0, 1e-17, -3e-16, 1e-30, 1e12, -7.5e9)


def _monomials():
    return [list(e) for e in itertools.product(range(5), repeat=4) if sum(e) in (3, 4)]


def _value(rng):
    return rng.choice(_RARE) if rng.random() < 0.1 else rng.uniform(-1.0, 1.0)


def populated(rng, chart, freqs):
    """Every cubic and quartic monomial; the harmonic part in the file's chart."""
    w1, w3 = freqs
    if chart == "real":
        terms = [{"exponents": e, "re": w / 2, "im": 0.0}
                 for e, w in (([2, 0, 0, 0], w1), ([0, 2, 0, 0], w1),
                              ([0, 0, 2, 0], w3), ([0, 0, 0, 2], w3))]
    else:
        terms = [{"exponents": [1, 1, 0, 0], "re": 0.0, "im": w1},
                 {"exponents": [0, 0, 1, 1], "re": 0.0, "im": w3}]
    for e in _monomials():
        if rng.random() < 0.9:
            terms.append({"exponents": e, "re": _value(rng),
                          "im": _value(rng) if chart == "complex" else 0.0})
    return {"dof": 2, "chart": chart, "frequencies": [w1, w3], "terms": terms}


def model(rng, freqs):
    coeffs = CubicQuarticCoefficients(*[_value(rng) for _ in range(7)])
    return build_model_hamiltonian(coeffs, Frequencies(*freqs)).to_json_dict()


def payloads():
    """[(label, payload), ...] in a fixed order."""
    rng = random.Random(20261018)
    out = []
    for k in range(12):
        freqs = (rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        out.append((f"populated-real-{k}", populated(rng, "real", freqs)))
        out.append((f"populated-complex-{k}", populated(rng, "complex", freqs)))
        out.append((f"model-{k}", model(rng, freqs)))
    for k, freqs in enumerate(NEAR_RESONANT):
        out.append((f"near-resonant-real-{k}", populated(rng, "real", freqs)))
        out.append((f"near-resonant-complex-{k}", populated(rng, "complex", freqs)))
        out.append((f"near-resonant-model-{k}", model(rng, freqs)))
    for k, freqs in enumerate(RESONANT):
        out.append((f"resonant-{k}", populated(rng, "real", freqs)))
    return out


def _terms(poly):
    return " ".join(f"{e}:{c!r}" for e, c in poly.terms.items())


def outcomes(tmp_path, capsys, items):
    """Outcome lines of [(label, payload), ...], in order."""
    lines = []
    for label, payload in items:
        ham = GradedHamiltonian.from_json_dict(payload)
        if ham.chart == "real":
            real = ham
            cplx = ham.complexify()
            for d in real.degrees():
                lines.append(f"{label} complexify {d} {_terms(complexify(real.part(d)))}")
        else:
            cplx = ham
        for d in cplx.degrees():
            lines.append(f"{label} realify {d} {_terms(realify(cplx.part(d)))}")
        try:
            w3 = normalize(cplx).generating.part(3)
        except ResonanceError as err:
            lines.append(f"{label} resonance {err}")
        else:
            lines.append(f"{label} bracket {_terms(poisson_bracket(cplx.part(3), w3))}")
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["normalize", "--input", str(path)])
        captured = capsys.readouterr()
        lines.append(f"{label} exit {code}")
        lines.append(captured.out)
        lines.append(captured.err)
    return lines


def test_outcomes_match_the_recorded_digest(tmp_path, capsys):
    lines = outcomes(tmp_path, capsys, payloads())
    # exit codes: every populated, model and near-resonant file normalizes,
    # every exactly resonant one is refused
    codes = [line.rsplit(" ", 1)[1] for line in lines if " exit " in line]
    assert codes == ["0"] * (len(codes) - len(RESONANT)) + ["4"] * len(RESONANT)
    flagged = [line for line in lines if '"resonances": [\n    {' in line]
    assert len(flagged) >= len(NEAR_RESONANT)
    assert_digest(lines, DIGEST, tmp_path)


def report_bits(payload):
    """Every coefficient repr of normalize's report on payload, in order."""
    ham = GradedHamiltonian.from_json_dict(payload)
    if ham.chart == "real":
        ham = ham.complexify()
    try:
        report = normalize(ham)
    except ResonanceError as err:
        return [f"resonance {err}"]
    lines = [repr((report.k2200, report.k1111, report.k0022, report.d2,
                   report.resonance_flags))]
    for graded in (report.generating, report.kamiltonian):
        lines += [f"{d} {_terms(graded.part(d))}" for d in graded.degrees()]
    return lines


def test_cold_and_warm_tables_give_the_same_report(monkeypatch):
    # the monomial table changes only how an entry is first worked out: each
    # payload on a table of its own, then all of them on one table that the
    # same list has already filled
    items = payloads()
    cold = []
    for _, payload in items:
        monkeypatch.setattr(polyalg, "_TABLE", polyalg._MonomialTable())
        cold.append(report_bits(payload))
    table = polyalg._MonomialTable()
    monkeypatch.setattr(polyalg, "_TABLE", table)
    for _, payload in items:
        report_bits(payload)
    warm = [report_bits(payload) for _, payload in items]
    assert polyalg._TABLE is table
    assert warm == cold
    assert sum(len(lines) > 1 for lines in cold) == len(items) - len(RESONANT)
