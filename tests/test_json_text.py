"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True)."""

import itertools
import json
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from birkhoff import GradedHamiltonian, normalize  # noqa: E402
from birkhoff.cli import _json_rows, _json_text, _report_text, main  # noqa: E402
from test_normalize_bits import NEAR_RESONANT, populated  # noqa: E402

# finite floats, subnormals and zeros of both signs included
ROW_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-300, -1e300, 1e300]))
SCAN_ROW = st.tuples(ROW_FLOATS, ROW_FLOATS,
                     st.sampled_from(["ok", "pole", "resonant", "degenerate"]))
#: rows split into one or more blocks
SCAN_BLOCKS = st.lists(st.lists(SCAN_ROW, min_size=1, max_size=8), min_size=1, max_size=4)


@given(SCAN_BLOCKS)
@example([[(0.0, -0.0, "ok"), (5e-324, 1e300, "pole")],
          [(-1e-300, -1e300, "resonant")], [(2.0, 1.5, "degenerate")]])
def test_scan_rows_equal_json_text_of_the_row_objects(blocks):
    # each block goes in as scan_blocks gives it, (omega1s, d2s, flags)
    rows = list(itertools.chain.from_iterable(blocks))
    objects = [{"omega1": w, "D2": d2, "flag": flag} for w, d2, flag in rows]
    columns = (tuple(zip(*block)) for block in blocks)
    assert "".join(_json_rows(columns)) == json.dumps(objects, indent=2, sort_keys=True) + "\n"


# every frequency pair is off the exact resonances; the second and third put
# a cubic and a quartic divisor inside the near-resonance flag window
HAMILTONIAN_FREQUENCIES = st.sampled_from([(1.07, 0.41), (2.00002, 1.0),
                                           (1.0, 1.0000007), (0.3, 1.0)])
CUBIC_QUARTIC = st.sampled_from(
    [list(e) for e in itertools.product(range(5), repeat=4) if sum(e) in (3, 4)])
TERM_FLOATS = (st.floats(min_value=-1e3, max_value=1e3)
               | st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-17]))
TERMS = st.lists(st.fixed_dictionaries(
    {"exponents": CUBIC_QUARTIC, "re": TERM_FLOATS, "im": TERM_FLOATS}), max_size=12)


def _hamiltonian_file(freqs, terms):
    w1, w3 = freqs
    harmonic = [{"exponents": [1, 1, 0, 0], "re": 0.0, "im": w1},
                {"exponents": [0, 0, 1, 1], "re": 0.0, "im": w3}]
    return {"dof": 2, "chart": "complex", "frequencies": [w1, w3],
            "terms": harmonic + terms}


#: (frequencies, terms): an empty generator, whose report has D2 = -0.0, and
#: a flagged near resonance
EMPTY_GENERATOR = ((1.07, 0.41), [])
NEAR_RESONANCE = ((2.00002, 1.0), [{"exponents": [1, 0, 0, 2], "re": -0.5, "im": 0.25}])


def _cli_report(work, freqs, terms):
    """(text `birkhoff normalize` writes, the payload it read)."""
    source, target = work / "h.json", work / "report.json"
    payload = _hamiltonian_file(freqs, terms)
    source.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["normalize", "--input", str(source), "--output", str(target)]) == 0
    return target.read_text(encoding="utf-8"), payload


@given(HAMILTONIAN_FREQUENCIES, TERMS)
@example(*EMPTY_GENERATOR)
@example(*NEAR_RESONANCE)
def test_normalize_report_equals_json_dumps(tmp_path_factory, freqs, terms):
    text, payload = _cli_report(tmp_path_factory.mktemp("normalize"), freqs, terms)
    report = normalize(GradedHamiltonian.from_json_dict(payload)).to_json_dict()
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_normalize_report_examples_cover_the_layout_cases(tmp_path):
    empty = json.loads(_cli_report(tmp_path, *EMPTY_GENERATOR)[0])
    assert empty["generating"]["terms"] == [] and math.copysign(1.0, empty["D2"]) == -1.0
    flagged = json.loads(_cli_report(tmp_path, *NEAR_RESONANCE)[0])
    assert [r["exponents"] for r in flagged["resonances"]] == [[1, 0, 0, 2]]


def _report(freqs, terms):
    return normalize(GradedHamiltonian.from_json_dict(_hamiltonian_file(freqs, terms)))


def test_report_template_equals_json_text_for_any_number_of_flags():
    # no flag off resonance, one for a single near-resonant term, and
    # one or more for fully populated files at each near-resonant pair
    rng = random.Random(20261021)
    reports = [_report((1.07, 0.41), [{"exponents": [1, 0, 0, 2], "re": -0.5, "im": 0.25}]),
               _report(*NEAR_RESONANCE)]
    for w1, w3 in NEAR_RESONANT:
        for chart in ("real", "complex"):
            ham = GradedHamiltonian.from_json_dict(populated(rng, chart, (w1, w3)))
            reports.append(normalize(ham))
    counts = [len(report.resonance_flags) for report in reports]
    assert counts[:2] == [0, 1] and max(counts) > 1
    for report in reports:
        payload = report.to_json_dict()
        assert _report_text(payload) == _json_text(payload)


def test_report_template_equals_json_text_for_an_empty_generator():
    # every cubic and quartic term of the file is 0, so none is stored
    zeros = [{"exponents": list(e), "re": 0.0, "im": -0.0}
             for e in itertools.product(range(5), repeat=4) if sum(e) in (3, 4)]
    payload = _report((1.07, 0.41), zeros).to_json_dict()
    assert payload["generating"]["terms"] == [] and payload["resonances"] == []
    assert _report_text(payload) == _json_text(payload)


@pytest.mark.parametrize("field", ["k2200", "k1111", "k0022", "d2"])
def test_report_template_equals_json_text_for_a_negative_zero(field):
    report = _report(*NEAR_RESONANCE)._replace(**{field: -0.0})
    payload = report.to_json_dict()
    assert _report_text(payload) == _json_text(payload)
    assert '": -0.0,' in _report_text(payload)
