import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import birkhoff
from birkhoff import ModelParams, d2_from_k, scan_omega1
from birkhoff import cli, rtbpmodel
from birkhoff.cli import main
from birkhoff.normalform import normalize
from conftest import CANCELLATION_POINT, reference_model_hamiltonian


REF_FLAGS = ["--mu", "0.00025", "--q", "0.025", "--Q", "0.00025", "--A", "0.00025"]
# omega3 = 2*omega1 exactly; the K2200 denominator is 0 there and one ulp up
DOUBLE_ZERO_POLE = ["--omega1", "0.0007807924243102605", "--omega3", "0.001561584848620521"]
# omega3/omega1 = 1.945, off every pole, but both terms of the K2200
# denominator round to the same subnormal
SUBNORMAL_DENOMINATOR = ["--omega1", "5.412331930599114e-82",
                         "--omega3", "1.0528646526423265e-81"]
REFERENCE_POINT = ModelParams(mu=0.00025, q=0.025, Q=0.00025, A=0.00025)

NON_POSITIVE_OR_NON_FINITE = ["0", "-1", "nan", "inf"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def hamiltonian_payload(freqs=(1.0, 3.0), extra_terms=()):
    w1, w3 = freqs
    terms = [
        {"exponents": [2, 0, 0, 0], "re": w1 / 2, "im": 0.0},
        {"exponents": [0, 2, 0, 0], "re": w1 / 2, "im": 0.0},
        {"exponents": [0, 0, 2, 0], "re": w3 / 2, "im": 0.0},
        {"exponents": [0, 0, 0, 2], "re": w3 / 2, "im": 0.0},
    ]
    terms.extend(extra_terms)
    return {"dof": 2, "chart": "real", "frequencies": [w1, w3], "terms": terms}


def populated_payload(seed, chart, freqs=(1.07, 0.41)):
    """Every cubic and quartic monomial, with coefficients drawn from Random(seed)."""
    rng = random.Random(seed)
    w1, w3 = freqs
    if chart == "real":
        payload = hamiltonian_payload(freqs)
    else:
        payload = {"dof": 2, "chart": "complex", "frequencies": [w1, w3], "terms": [
            {"exponents": [1, 1, 0, 0], "re": 0.0, "im": w1},
            {"exponents": [0, 0, 1, 1], "re": 0.0, "im": w3},
        ]}
    for e in itertools.product(range(5), repeat=4):
        if sum(e) in (3, 4):
            im = rng.uniform(-1.0, 1.0) if chart == "complex" else 0.0
            payload["terms"].append(
                {"exponents": list(e), "re": rng.uniform(-1.0, 1.0), "im": im})
    return payload


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestClosedFormCommand:
    def test_vertical_quartic_value(self, capsys):
        code, out, _ = run(capsys, ["closed-form", "--b5", "1", "--omega1", "1",
                                    "--omega3", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["K0022"] == pytest.approx(-1.5)
        assert payload["K2200"] == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["closed-form", "--b5", "1", "--omega1", "1",
                                    "--omega3", "3", "--format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "K2200,K1111,K0022,D2"
        assert float(row.split(",")[2]) == pytest.approx(-1.5)

    def test_determinant_overflow_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["closed-form", "--a1", "1", "--omega1", "1e-320",
                                      "--omega3", "1"])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    def test_coefficient_overflow_names_the_determinant(self, capsys):
        # a1**2 overflows inside k2200; the message must not be errno text
        code, out, err = run(capsys, ["closed-form", "--a1", "1e200", "--omega1", "0.3",
                                      "--omega3", "1"])
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "domain"
        assert "determinant overflows" in payload["message"]
        assert "Numerical result out of range" not in payload["message"]

    def test_pole_exits_with_resonance_code(self, capsys):
        code, _, err = run(capsys, ["closed-form", "--a3", "1", "--omega1", "2",
                                    "--omega3", "1"])
        assert code == 4
        payload = json.loads(err)
        assert payload["error"] == "resonance"
        assert "omega1 = 2*omega3" in payload["relation"]

    @pytest.mark.parametrize("argv, code, digest", [
        (["--b5", "1", "--omega1", "1", "--omega3", "3"], 0,
         "1c24d9da882eef615ff1b16d4f5b7b34f65082fc3319804a994684039395f407"),
        (["--b5", "1", "--omega1", "1", "--omega3", "3", "--format", "csv"], 0,
         "6ccf1af191a001b57a6a0ab7205af09232d2c542bf0fd1d93db8436e212132c1"),
        (["--a1", "0.4", "--a2", "-0.3", "--a3", "-0.9", "--a4", "0.2", "--b1", "0.7",
          "--b3", "-0.5", "--b5", "1.1", "--omega1", "1.07", "--omega3", "0.41"], 0,
         "64315ab0571bdde48766142d94a87918f817cec3a63cb186c1488d589f37934e"),
        (["--a3", "1", "--omega1", "2", "--omega3", "1"], 4,
         "b8f298863632a07fd27d1e94b0b6f9b885f44882d95ce36c841f176410956518"),
        (["--a1", "1e200", "--omega1", "0.3", "--omega3", "1"], 3,
         "4d98b1b279b1d26d4d8acb3ac29de1f922ca8341bc755a7b42780b2fd75f52d2"),
        (["--a1", "1", "--omega1", "1e-100", "--omega3", "1e-100"], 3,
         "fdccdca877cc2b9e983217fa843e4e5bb5b2b0167a8ffabd5ebaf1730420d4d5"),
    ], ids=["readme-json", "readme-csv", "seven-coefficients", "exact-pole",
            "coefficient-overflow", "underflowing-denominator"])
    def test_golden_output_bytes(self, capsys, argv, code, digest):
        # SHA-256 of stdout and stderr when the command built one tabulated
        # kernel and applied its four functions at the point (CPython 3.11)
        got, out, err = run(capsys, ["closed-form", *argv])
        assert (got, sha256(out + err)) == (code, digest)

    def test_underflowing_denominator_is_domain_error(self, capsys):
        for argv in (
                # omega3 = 2*omega1 does not hold; both terms of the K2200
                # denominator are 0
                ["--a1", "1", "--omega1", "1e-100", "--omega3", "1e-100"],
                # omega3/omega1 = 1.945; both terms round to the same subnormal
                ["--a2", "1", "--a3", "1", *SUBNORMAL_DENOMINATOR]):
            code, out, err = run(capsys, ["closed-form", *argv])
            assert (code, out) == (3, ""), argv
            payload = json.loads(err)
            assert payload["error"] == "domain"
            assert "underflows" in payload["message"]


class TestNormalizeCommand:
    def test_readme_hamiltonian_file_example_normalizes(self, capsys, tmp_path):
        # the first json block under "Hamiltonian file format" in README.md
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as f:
            text = f.read()
        section = text[text.index("### Hamiltonian file format"):]
        start = section.index("```json\n") + len("```json\n")
        path = tmp_path / "h.json"
        path.write_text(section[start:section.index("```", start)])
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        for key in ("K2200", "K1111", "K0022", "D2"):
            assert math.isfinite(payload[key])
        assert payload["K2200"] != 0.0 and payload["K0022"] != 0.0

    def test_quadratic_only_hamiltonian(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(hamiltonian_payload()))
        code, out, _ = run(capsys, ["normalize", "--input", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["D2"] == 0.0
        assert payload["generating"]["terms"] == []
        assert payload["resonances"] == []

    def test_reported_determinant_recomposes_exactly(self, capsys, tmp_path):
        extra = [
            {"exponents": [3, 0, 0, 0], "re": 0.4, "im": 0.0},
            {"exponents": [1, 0, 2, 0], "re": -0.9, "im": 0.0},
            {"exponents": [4, 0, 0, 0], "re": 0.7, "im": 0.0},
        ]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(hamiltonian_payload((1.07, 0.41), extra)))
        code, out, _ = run(capsys, ["normalize", "--input", str(path)])
        assert code == 0
        payload = json.loads(out)
        from birkhoff import Frequencies
        recomposed = d2_from_k(payload["K2200"], payload["K1111"],
                               payload["K0022"], *Frequencies(1.07, 0.41))
        assert payload["D2"] == recomposed

    def test_resonant_hamiltonian_exits_with_offender(self, capsys, tmp_path):
        extra = [{"exponents": [2, 0, 0, 1], "re": 0.7, "im": 0.0}]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(hamiltonian_payload((1.0, 2.0), extra)))
        code, _, err = run(capsys, ["normalize", "--input", str(path)])
        assert code == 4
        payload = json.loads(err)
        assert payload["error"] == "resonance"
        j, l, r, s = payload["exponents"]
        assert abs(1.0 * (l - j) + 2.0 * (s - r)) < 1e-9
        assert abs(payload["divisor"]) < 1e-9

    @pytest.mark.parametrize("payload", [
        [hamiltonian_payload()],
        hamiltonian_payload(extra_terms=[{"re": 0.4, "im": 0.0}]),
        hamiltonian_payload(extra_terms=[{"exponents": [3, 0, 0, 0], "re": None}]),
        hamiltonian_payload(extra_terms=[{"exponents": [3.9, 0, 0, 0], "re": 0.4}]),
        hamiltonian_payload(extra_terms=[{"exponents": [True, 0, 2, 0], "re": 0.4}]),
        hamiltonian_payload(extra_terms=[{"exponents": ["2", 0, 1, 0], "re": 0.4}]),
        hamiltonian_payload(extra_terms=[{"exponents": [3, 0, 0, 0], "re": math.nan}]),
        hamiltonian_payload(extra_terms=[{"exponents": [4, 0, 0, 0], "re": math.inf}]),
        hamiltonian_payload(extra_terms=[{"exponents": [1, 0, 2, 0], "im": -math.inf}]),
        hamiltonian_payload(extra_terms=[{"exponents": [3, 0, 0, 0], "re": "2.0"}]),
        hamiltonian_payload(extra_terms=[{"exponents": [3, 0, 0, 0], "re": True}]),
        dict(hamiltonian_payload((0.3, 1.0)), frequencies=["0.3", 1.0]),
        dict(hamiltonian_payload((1.0, 1.0)), frequencies=[1.0, True]),
    ], ids=["top-level-list", "missing-exponents", "null-coefficient",
            "float-exponent", "bool-exponent", "string-exponent",
            "nan-coefficient", "infinite-coefficient", "infinite-imaginary-part",
            "string-coefficient", "bool-coefficient", "string-frequency",
            "bool-frequency"])
    def test_malformed_hamiltonian_is_domain_error(self, capsys, tmp_path, payload):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    @pytest.mark.parametrize("field", ["re", "im", "omega1", "omega3"])
    @pytest.mark.parametrize("value", [
        None, math.nan, math.inf, -math.inf, True, "2.0", [1.0], {},
        pytest.param(10**400, id="10**400"),
    ], ids=repr)
    def test_refused_number_names_its_field(self, capsys, tmp_path, field, value):
        # every value README's file format refuses, written as JSON text
        term = {"exponents": [3, 0, 0, 0], "re": 0.4, "im": 0.0}
        payload = hamiltonian_payload((0.3, 1.0), [term])
        if field in term:
            term[field] = value
        else:
            payload["frequencies"][field == "omega3"] = value
        path = tmp_path / "h.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "domain", "message": f"{field} must be a finite number, got {value!r}"}

    def test_malformed_term_list_is_named(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(dict(hamiltonian_payload(), terms=5)))
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "domain", "message": "terms must be a list of term objects, got 5"}

    def test_empty_complex_file_names_the_missing_diagonal(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(
            {"dof": 2, "chart": "complex", "frequencies": [0.3, 1.0], "terms": []}))
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert code == 3
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "domain"
        assert "missing the diagonal term (1, 1, 0, 0)" in error["message"]

    @pytest.mark.parametrize("seed, chart, digest", [
        (11, "real", "ada7ab1d061fe88a695d13a2a9d716a77557248657530985b8039133f8a772a3"),
        (12, "complex", "e50d77cd6a99e37df4a4f2a2876f65bb840134c4882e14faf813a99714983f38"),
    ], ids=["seed-11-real", "seed-12-complex"])
    def test_golden_output_bytes(self, capsys, tmp_path, seed, chart, digest):
        # SHA-256 of the report of the engine that re-checked the exponents
        # of every intermediate polynomial (CPython 3.11)
        path = tmp_path / "h.json"
        path.write_text(json.dumps(populated_payload(seed, chart)))
        code, out, _ = run(capsys, ["normalize", "--input", str(path)])
        assert code == 0
        assert sha256(out) == digest

    def test_written_reference_model_normalizes_as_in_memory(self, capsys, tmp_path):
        # the quadratic and cubic parts are below 1e-14 of the quartic one
        ham = reference_model_hamiltonian()
        want = normalize(ham.complexify())
        path = tmp_path / "h.json"
        path.write_text(json.dumps(ham.to_json_dict()))
        code, out, _ = run(capsys, ["normalize", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["D2"] == want.d2
        terms = report["generating"]["terms"]
        assert len(terms) == 52
        assert sorted(sum(t["exponents"]) for t in terms) == [3] * 20 + [4] * 32

    def test_near_resonant_report_is_laid_out_as_json_dumps(self, capsys, tmp_path):
        # omega1 = 2*omega3 + 2e-5: X1*Y2^2 has divisor -2e-5, inside the
        # NEAR_RESONANCE_WINDOW flag band yet above the divisor tolerance
        path = tmp_path / "h.json"
        path.write_text(json.dumps(populated_payload(13, "real", (2.00002, 1.0))))
        code, out, _ = run(capsys, ["normalize", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert [1, 0, 0, 2] in [r["exponents"] for r in report["resonances"]]
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_overflow_inside_the_engine_is_domain_error(self, capsys, tmp_path):
        # the degree-4 source overflows; it used to vanish and the run exit 0
        # with only the b1 term left in K2200
        path = tmp_path / "h.json"
        path.write_text(json.dumps(hamiltonian_payload((1.07, 0.41), [
            {"exponents": [3, 0, 0, 0], "re": 1e200, "im": 0.0},
            {"exponents": [1, 0, 2, 0], "re": 1e200, "im": 0.0},
            {"exponents": [4, 0, 0, 0], "re": 1.0, "im": 0.0},
        ])))
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "domain"
        assert "of the monomial (" in payload["message"]

    def test_missing_input_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["normalize", "--input",
                                    str(tmp_path / "missing.json")])
        assert code == 3
        assert json.loads(err)["error"] == "domain"

    def test_overflow_names_the_engine_stage(self, capsys, tmp_path):
        # X1^3 and Y1^3 at 1e200: their bracket is 1e400, at a monomial of
        # the degree-4 source that the file never wrote
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "dof": 2, "chart": "complex", "frequencies": [1.07, 0.41], "terms": [
                {"exponents": [1, 1, 0, 0], "re": 0.0, "im": 1.07},
                {"exponents": [0, 0, 1, 1], "re": 0.0, "im": 0.41},
                {"exponents": [3, 0, 0, 0], "re": 1e200, "im": 0.0},
                {"exponents": [0, 3, 0, 0], "re": 1e200, "im": 0.0}]}))
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "domain",
            "message": "degree-4 source H4 + {H3, W3}/2: coefficient (nan+infj) "
                       "of the monomial (2, 2, 0, 0) is not finite"}

    def test_deeply_nested_input_is_domain_error(self, capsys, tmp_path):
        # the JSON decoder recurses once per bracket
        path = tmp_path / "h.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "domain"
        assert payload["message"].startswith("the input nests too deeply to read: ")


class TestRtbpEvalCommand:
    def test_stable_point(self, capsys):
        code, out, _ = run(capsys, ["rtbp-eval", *REF_FLAGS, "--omega1", "0.3",
                                    "--omega3", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"]["status"] == "stable"
        assert payload["coefficients"]["a1"] != 0.0

    @pytest.mark.parametrize("extra, digest", [
        (["--omega1", "0.3"],
         "ba124342b077eb0fe64eb00ef11c2ae386913f9580b9e3faa6d147dec280db7a"),
        (["--omega1", "0.5"],
         "3b075be39a800e1d1c296015a45c85fe19adc08e1ff0b57e1d1641b6cdd8844a"),
        (["--omega1", "0.3", "--max-half-order", "2", "--d2-tolerance", "1e30"],
         "c30fee8a0d7b80fcd4ac94dff945a27ec6811cc6ac322facee364d0efff38c36"),
        (["--omega1", "1"],
         "071d26e33d33200be00dc9a352a8a3fad07a4f07a769168d1ac599d2b31e6621"),
    ], ids=["stable", "pole", "degenerate", "resonant"])
    def test_golden_output_bytes(self, capsys, extra, digest):
        # SHA-256 of the output when the coefficients were evaluated twice,
        # once for the verdict and once for the report (CPython 3.11)
        code, out, _ = run(capsys, ["rtbp-eval", *REF_FLAGS, *extra, "--omega3", "1"])
        assert code == 0
        assert sha256(out) == digest

    def test_stable_next_to_a_root_of_the_determinant(self, capsys):
        mu, q, Q, A, w1 = (repr(v) for v in CANCELLATION_POINT)
        code, out, _ = run(capsys, ["rtbp-eval", "--mu", mu, "--q", q, "--Q", Q,
                                    "--A", A, "--omega1", w1, "--omega3", "1"])
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "stable"

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, ["rtbp-eval", "--mu", "2.0", "--q", "0.5",
                                    "--Q", "0.5", "--A", "0", "--omega1", "0.3"])
        assert code == 3
        assert json.loads(err)["error"] == "domain"

    def test_non_finite_series_sum_names_the_model_point(self, capsys):
        # a1's A**2 term overflows to -inf at this point, truncated after A
        code, out, err = run(capsys, ["rtbp-eval", "--mu", "1e-35", "--q", "0.5",
                                      "--Q", "0.5", "--A", "1e155",
                                      "--max-half-order", "2", "--omega1", "0.3"])
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "domain",
            "message": "the expansions summed through half-order 2 at (mu, q, Q, A) = "
                       "(1e-35, 0.5, 0.5, 1e+155) are not finite: "
                       "a1 must be finite, got -inf"}

    def test_usage_error_exit_code(self, capsys):
        code, out, err = run(capsys, ["rtbp-eval", "--mu", "0.1"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage",
                                   "message": "rtbp-eval needs --q, --Q, --A, --omega1"}

    def test_underflowing_denominator_is_domain_error(self, capsys):
        for frequencies in (["--omega1", "1e-100", "--omega3", "1e-100"],
                            SUBNORMAL_DENOMINATOR):
            code, out, err = run(capsys, ["rtbp-eval", *REF_FLAGS, *frequencies])
            assert (code, out) == (3, ""), frequencies
            payload = json.loads(err)
            assert payload["error"] == "domain"
            assert "underflows" in payload["message"]

    def test_exact_pole_with_a_zero_denominator_one_ulp_up(self, capsys):
        # omega3 = 2*omega1 exactly, and the K2200 denominator still rounds to
        # 0 at the next omega1 up; the point is a pole, not an error
        code, out, _ = run(capsys, ["rtbp-eval", *REF_FLAGS, *DOUBLE_ZERO_POLE])
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["status"] == "pole"
        assert verdict["notes"] == ["pole:omega3 = 2*omega1"]


class TestRtbpScanCommand:
    def test_csv_shape_and_flags(self, capsys):
        code, out, _ = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                    "--grid", "0.05:0.95:181", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "omega1,D2,flag"
        assert len(lines) == 182
        flags = [ln.split(",")[2] for ln in lines[1:]]
        assert set(flags) <= {"ok", "pole", "degenerate"}
        assert "pole" in flags
        # all values parse as finite floats (no infinity tokens)
        for ln in lines[1:]:
            w, d2, _ = ln.split(",")
            assert abs(float(d2)) < float("inf")

    def test_determinant_blows_up_and_changes_sign_at_half(self, capsys):
        code, out, _ = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                    "--grid", "0.05:0.95:181", "--format", "csv"])
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        parsed = [(float(w), float(v), f) for w, v, f in rows]
        below = [v for w, v, f in parsed if f == "ok" and w < 0.5]
        above = [v for w, v, f in parsed if f == "ok" and w > 0.5]
        assert below[-1] > 0 > above[0]
        assert abs(below[-1]) > 10 * abs(below[len(below) // 2])

    def test_byte_identical_reruns(self, capsys):
        argv = ["rtbp-scan", *REF_FLAGS, "--omega3", "1", "--grid", "0.1:0.9:50"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("extra, digest", [
        (["--grid", "0.05:0.95:181", "--format", "csv"],
         "52a7aae6968002fba09f7aaf3df533ee9c06752dd5821c945a30bd4422f74937"),
        (["--grid", "0.05:4.0:10000", "--format", "json"],
         "d3f2902a20dd299b69d9ae546d98ddc41a4c03323160203c6fffcd044f06b072"),
        (["--grid", "0.25:2.25:9", "--max-half-order", "2", "--format", "csv"],
         "316be61b057ef9352fb8dfd644ae47b2bce3dc74e18971a2adde759cfad54ac2"),
        (["--grid", "0.05:4.0:10000", "--format", "csv"],
         "83d2e57265463217635778fdb02cb345e870ffe94915c777b65a6af8c9b1c19d"),
        (["--grid", "0.25:2.25:8193", "--format", "csv"],
         "4bb8de13e4a1b795d2c888341a0b5d9f0bfca5a6390791fc60874b1665586a4b"),
        (["--grid", "0.25:2.25:8193", "--format", "json"],
         "ba755a229f489c7fd726f094399912e754841c1d0183dd18e25c1a153489aaf2"),
    ], ids=["csv-181-rows", "json-10000-rows", "csv-9-rows-half-order-2", "csv-10000-rows",
            "csv-8193-rows-on-poles", "json-8193-rows-on-poles"])
    def test_golden_output_bytes(self, capsys, extra, digest):
        # SHA-256 of the output of the per-row scan that evaluated the
        # coefficient series at every grid point (CPython 3.11); the 9-point
        # grid's row at omega1 = 1 has been flagged resonant, as rtbp-eval
        # reports it, since the scan and the verdict share one band rule.
        # The larger grids end inside a block of written rows, and the
        # 8193-point grid holds the exact poles 0.5 and 2.0 and omega1 = 1
        code, out, _ = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1", *extra])
        assert code == 0
        assert sha256(out) == digest

    def test_determinant_overflow_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                      "--grid", "1e-300:0.9:3"])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    def test_underflowing_denominator_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1e-100",
                                      "--grid", "1e-101:2e-100:3"])
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "domain"
        assert "underflows" in payload["message"]

    def test_grid_starting_on_an_exact_pole_with_a_zero_denominator_one_ulp_up(self, capsys):
        omega1, omega3 = DOUBLE_ZERO_POLE[1], DOUBLE_ZERO_POLE[3]
        code, out, _ = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", omega3,
                                    "--grid", f"{omega1}:0.003:3"])
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert float(first[0]) == float(omega1)
        assert first[2] == "pole"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_scan_writes_nothing(self, capsys, tmp_path, fmt):
        # every grid point is evaluated before the first byte is written
        target = tmp_path / "scan.out"
        for output in (["--output", str(target)], []):
            code, out, err = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                          "--grid", "1e-300:0.9:3", "--format", fmt,
                                          *output])
            assert code == 3
            assert out == ""
            assert json.loads(err)["error"] == "domain"
        assert not target.exists()

    @pytest.mark.parametrize("grid", ["0.3:0.3000000001:2", "0.25:2.25:9",
                                      "0.05:4.0:2001"])
    def test_streamed_json_is_the_whole_document(self, capsys, grid):
        code, out, _ = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                    "--grid", grid, "--format", "json"])
        assert code == 0
        lo, hi, steps = cli._parse_grid(grid)
        rows = scan_omega1(REFERENCE_POINT, 1.0, lo, hi, steps)
        whole = json.dumps([{"omega1": w, "D2": d2, "flag": flag}
                            for w, d2, flag in rows], indent=2, sort_keys=True)
        assert out == whole + "\n"
        assert len(json.loads(out)) == steps

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scan_memory_is_bounded_per_row(self, monkeypatch, tmp_path, fmt):
        # the scan call keeps D2 (8 B) and the median's sorted runs of |D2|
        # (8 B) per row, about 17 B/row in all.  Small runs make the median
        # a select over many runs: one sorted list of every |D2| costs 32 B/row.
        # The flag and write pass that follows holds one block of rows and
        # its text at a time, whatever the grid size; its peak is read apart
        # from the scan call's, which the median sets.  The second grid lies
        # wholly inside the pole band at 0.5, so every row's flag comes from
        # _status.  The scan call is the same for both formats, so the larger
        # size, which shows that its peak does not grow faster than the rows,
        # runs for CSV alone
        monkeypatch.setattr(rtbpmodel, "MEDIAN_CHUNK", 1024)
        scan_blocks, held = cli.scan_blocks, []

        def measured(*args, **kwargs):
            blocks = scan_blocks(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            held.append((current, peak))
            tracemalloc.reset_peak()
            return blocks

        monkeypatch.setattr(cli, "scan_blocks", measured)
        argv = ["rtbp-scan", *REF_FLAGS, "--omega3", "1", "--format", fmt,
                "--output", str(tmp_path / f"scan.{fmt}")]
        for lo, hi in [("0.05", "4.0"), ("0.4995", "0.5005")]:
            assert main([*argv, "--grid", f"{lo}:{hi}:2"]) == 0  # warm caches
            for steps in (50_000, 100_000) if fmt == "csv" else (50_000,):
                held.clear()
                tracemalloc.start()
                try:
                    assert main([*argv, "--grid", f"{lo}:{hi}:{steps}"]) == 0
                    write_peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                [(at_return, scan_peak)] = held
                assert scan_peak / steps < 32, (lo, hi, steps)
                # one block's columns, fields, format and text take about
                # 180 (CSV) and 270 (JSON) B a row
                assert write_peak - at_return < 512 * rtbpmodel.FLAG_BLOCK, (lo, hi, steps)

    @pytest.mark.parametrize("steps", [2 * rtbpmodel.FLAG_BLOCK, 2 * rtbpmodel.FLAG_BLOCK + 5])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_written_a_block_at_a_time(self, monkeypatch, fmt, steps):
        # each chunk handed to the writer holds at most one block of rows, so
        # the text held at once is bounded whatever the grid size, and the
        # chunks join to the row-by-row document.  Above omega1 = 3 the grid
        # is clear of every void relation's window, so whole blocks fill it
        chunks = []

        class Sink:
            def writelines(self, lines):
                chunks.extend(lines)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["rtbp-scan", *REF_FLAGS, "--omega3", "1", "--format", fmt,
                     "--grid", f"0.05:40.0:{steps}"]) == 0
        rows = list(scan_omega1(REFERENCE_POINT, 1.0, 0.05, 40.0, steps))
        if fmt == "csv":
            whole = "omega1,D2,flag\n" + "".join("%.16e,%.16e,%s\n" % row for row in rows)
        else:
            whole = json.dumps([{"omega1": w, "D2": d2, "flag": flag} for w, d2, flag in rows],
                               indent=2, sort_keys=True) + "\n"
        assert "".join(chunks) == whole
        # a CSV row is one line, and a JSON row is the one object with a flag
        marker = {"csv": "\n", "json": '"flag"'}[fmt]
        assert max(chunk.count(marker) for chunk in chunks) == rtbpmodel.FLAG_BLOCK
        assert len(chunks) >= 3

    def test_closed_pipe_on_stdout_is_a_normal_end(self):
        # the reader takes one line of a 10^5-row scan and closes its end
        src = os.path.dirname(os.path.dirname(birkhoff.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "birkhoff.cli", "rtbp-scan", *REF_FLAGS,
             "--grid", "0.05:4:100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first == b"omega1,D2,flag\n"
        assert err == b""

    def test_unwritable_output_is_a_domain_error(self, tmp_path):
        src = os.path.dirname(os.path.dirname(birkhoff.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "birkhoff.cli", "rtbp-scan", *REF_FLAGS,
             "--grid", "0.05:4:100", "--output", str(tmp_path / "missing" / "scan.csv")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == ""
        error = json.loads(proc.stderr)
        assert error["error"] == "domain"
        assert "No such file or directory" in error["message"]

    def test_no_non_finite_token_without_debug_checks(self):
        # the kernel's d2 checks the composed value in its own body, so the
        # overflow exits 3 under -O as well and no nan or inf token is written
        src = os.path.dirname(os.path.dirname(birkhoff.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "birkhoff.cli", "rtbp-scan", *REF_FLAGS,
             "--omega3", "1", "--grid", "1e-300:0.9:3"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == ""  # in particular, no nan or inf token
        assert json.loads(proc.stderr)["error"] == "domain"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                    "--grid", "0.1:0.9:5", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert set(payload[0]) == {"omega1", "D2", "flag"}

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                    "--grid", "0.1:0.9:5", "--output", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("omega1,D2,flag")

    def test_infinite_grid_bound_is_named(self, capsys):
        code, out, err = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                      "--grid", "0.1:inf:10"])
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "domain"
        assert payload["message"] == "grid bound hi must be finite, got inf"

    def test_bad_grid_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["rtbp-scan", *REF_FLAGS, "--grid", "nonsense"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage",
                                   "message": "--grid: grid must look like lo:hi:steps"}


@pytest.mark.parametrize("command", [
    ["rtbp-scan", *REF_FLAGS, "--omega3", "1", "--grid", "0.1:0.9:5"],
    ["rtbp-eval", *REF_FLAGS, "--omega1", "0.3"],
], ids=["scan", "eval"])
@pytest.mark.parametrize("tolerance", NON_POSITIVE_OR_NON_FINITE)
def test_invalid_d2_tolerance_is_domain_error(capsys, command, tolerance):
    code, out, err = run(capsys, [*command, "--d2-tolerance", tolerance])
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert "d2_tolerance" in payload["message"]


@pytest.mark.parametrize("model", [
    ["--mu", "1e-40", "--q", "0.5", "--Q", "0.5", "--A", "0.001"],
    ["--mu", "1e-300", "--q", "0.5", "--Q", "1e-300", "--A", "0.001"],
    ["--mu", "1e-32", "--q", "0.5", "--Q", "0.5", "--A", "0.001"],
    ["--mu", "0.1", "--q", "0.5", "--Q", "0.5", "--A", "1e200"],
    [*REF_FLAGS, "--max-half-order", "-3"],
], ids=["series-underflow", "mu-times-Q-underflow", "coefficient-square-overflow",
        "huge-oblateness", "negative-max-half-order"])
@pytest.mark.parametrize("command", [
    ["rtbp-eval", "--omega1", "0.3"],
    ["rtbp-scan", "--grid", "0.1:0.9:5"],
], ids=["eval", "scan"])
def test_unevaluable_model_is_domain_error(capsys, model, command):
    code, out, err = run(capsys, [*command, *model])
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert "Numerical result out of range" not in payload["message"]


OUTPUT_COMMANDS = {
    "normalize": ["normalize", "--input", "h.json"],
    "closed-form": ["closed-form", "--b5", "1", "--omega1", "1", "--omega3", "3"],
    "rtbp-eval": ["rtbp-eval", *REF_FLAGS, "--omega1", "0.3"],
    "rtbp-scan-csv": ["rtbp-scan", *REF_FLAGS, "--grid", "0.05:0.95:181"],
    "rtbp-scan-json": ["rtbp-scan", *REF_FLAGS, "--grid", "0.05:0.95:181", "--format", "json"],
}


def output_command(name, tmp_path):
    """OUTPUT_COMMANDS[name], its normalize input written under tmp_path."""
    path = tmp_path / "h.json"
    path.write_text(json.dumps(populated_payload(11, "real")))
    return [str(path) if arg == "h.json" else arg for arg in OUTPUT_COMMANDS[name]]


class TestOutputFile:
    @pytest.mark.parametrize("name", OUTPUT_COMMANDS)
    def test_rewriting_a_longer_file_leaves_exactly_the_new_bytes(self, capsys, tmp_path, name):
        command = output_command(name, tmp_path)
        code, expected, _ = run(capsys, command)
        assert code == 0
        target, link = tmp_path / "out", tmp_path / "link"
        target.write_bytes(b"x" * (len(expected) + 5000))
        os.link(target, link)
        code, out, err = run(capsys, [*command, "--output", str(target)])
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == expected.encode("utf-8")
        # the one inode is rewritten, as open(path, "w") rewrote it
        assert link.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("name", ["normalize", "rtbp-scan-csv"])
    def test_a_device_is_written_and_not_truncated(self, capsys, tmp_path, name):
        # truncating a character device fails with EINVAL, so exit 0 says
        # that no truncation was tried
        with open(os.devnull, "w") as fh, pytest.raises(OSError):
            fh.truncate()
        code, out, err = run(capsys, [*output_command(name, tmp_path), "--output", os.devnull])
        assert (code, out, err) == (0, "", "")

    def test_a_failed_write_leaves_only_what_was_written(self, tmp_path):
        failure = RuntimeError("chunk failed")

        def chunks():
            yield "new\n"
            raise failure

        def truncating_write(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks())

        left = []
        for write in (lambda path: cli._write(chunks(), path), truncating_write):
            target = tmp_path / f"out{len(left)}"
            target.write_text("old text, longer than the new\n" * 100)
            with pytest.raises(RuntimeError) as exc:
                write(str(target))
            assert exc.value is failure
            left.append(target.read_bytes())
        assert left == [b"new\n", b"new\n"]

    @pytest.mark.parametrize("where", ["inside-a-write", "in-the-last-flush"])
    def test_a_failing_write_leaves_only_what_was_written(self, capsys, tmp_path, where):
        # a file size limit makes the system refuse every byte past it with
        # EFBIG, at 10000 bytes while the writer passes on a full buffer,
        # 10 bytes before the end in its last flush; the file must then hold
        # the new head alone, as open(path, "w") leaves it, and not the new
        # head followed by the old tail
        pytest.importorskip("resource")
        command = ["rtbp-scan", *REF_FLAGS, "--grid", "0.05:0.95:901"]
        code, expected, _ = run(capsys, command)
        expected = expected.encode("utf-8")
        limit = 10000 if where == "inside-a-write" else len(expected) - 10
        assert code == 0 and len(expected) > 3 * 10000
        target = tmp_path / "out.csv"
        target.write_bytes(b"x" * (len(expected) + 5000))
        child = ("import resource, signal, sys\n"
                 "from birkhoff.cli import main\n"
                 "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                 f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.RLIM_INFINITY))\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(birkhoff.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", child, *command, "--output", str(target)],
            capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (proc.returncode, proc.stdout) == (cli.DOMAIN_ERROR, b"")
        assert json.loads(proc.stderr)["message"] == "[Errno 27] File too large"
        assert target.read_bytes() == expected[:limit]

    @pytest.mark.parametrize("name", ["normalize", "rtbp-scan-csv"])
    def test_a_directory_is_a_domain_error(self, capsys, tmp_path, name):
        code, out, err = run(capsys, [*output_command(name, tmp_path), "--output", str(tmp_path)])
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "domain",
                                   "message": f"[Errno 21] Is a directory: {str(tmp_path)!r}"}

    def test_an_existing_file_is_not_emptied_at_open(self, capsys, monkeypatch, tmp_path):
        # on a file system that discards the blocks it frees, such as ext4
        # mounted with `discard`, emptying an existing file at open took
        # about five times as long as the whole in-place rewrite; on tmpfs
        # the two cost the same, so this pins the open flags, not a timing
        command = output_command("normalize", tmp_path)
        target = tmp_path / "out.json"
        target.write_text("{}\n")
        opened = []
        os_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((path, flags))
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", recording_open)
        assert run(capsys, [*command, "--output", str(target)])[0] == 0
        flags = [flags for path, flags in opened if path == str(target)]
        assert len(flags) == 1
        assert not flags[0] & os.O_TRUNC
        assert flags[0] & os.O_CREAT


class TestInterpreterFlags:
    def test_optimized_interpreter_gives_the_same_bytes(self, tmp_path):
        # the README invocations, and the point next to a root of D2, give
        # the same exit code, stdout and output file under python and python -O
        mu, q, Q, A, w1 = (repr(v) for v in CANCELLATION_POINT)
        commands = [
            ["closed-form", "--b5", "1", "--omega1", "1", "--omega3", "3"],
            ["rtbp-eval", *REF_FLAGS, "--omega1", "0.3"],
            ["rtbp-scan", *REF_FLAGS, "--omega3", "1", "--grid", "0.05:0.95:181",
             "--format", "csv", "--output", "d2.csv"],
            ["rtbp-eval", "--mu", mu, "--q", q, "--Q", Q, "--A", A, "--omega1", w1],
        ]
        src = os.path.dirname(os.path.dirname(birkhoff.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for command in commands:
            seen = []
            for flags in ([], ["-O"]):
                cwd = tmp_path / ("optimized" if flags else "plain")
                cwd.mkdir(exist_ok=True)
                proc = subprocess.run(
                    [sys.executable, *flags, "-m", "birkhoff.cli", *command],
                    capture_output=True, cwd=cwd, env=env, timeout=60)
                written = cwd / "d2.csv"
                seen.append((proc.returncode, proc.stdout,
                             written.read_bytes() if written.exists() else None))
            assert seen[0][0] == 0
            assert seen[0] == seen[1]


class TestParser:
    def test_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(populated_payload(11, "real")))
        scan = ["rtbp-scan", *REF_FLAGS, "--omega3", "1", "--grid", "0.1:0.9:50"]
        pairs = [
            (scan + ["--d2-tolerance", "1e34"], scan),
            (["normalize", "--input", str(path)],
             ["closed-form", "--b5", "1", "--omega1", "1", "--omega3", "3"]),
        ]
        for before, after in pairs:
            # after alone, then after once more behind before
            fresh = run(capsys, after)
            first = run(capsys, before)
            second = run(capsys, after)
            assert first[0] == second[0] == 0
            assert first[1] != second[1]
            assert second == fresh

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["rtbp-scan", "--help"],
                                      ["closed-form", "--omega1", "1", "-h"]])
    def test_help_names_every_command_and_flag(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        for command, (_, summary, flags) in cli._COMMANDS.items():
            assert f"\n{command}: {summary}\n" in out
            section = out[out.index(f"\n{command}: "):]
            for name in flags:
                assert f"\n  --{name} " in section, (command, name)

    def test_an_abbreviated_flag_is_a_usage_error(self, capsys):
        # argparse took any unique prefix of a flag; the table takes names in full
        code, out, err = run(capsys, ["normalize", "--inp", "h.json"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage",
                                   "message": "normalize has no flag '--inp'"}

    def test_a_separate_value_may_start_with_a_dash(self, capsys):
        # argparse read "-1e-3" as a flag; the table takes the token after a
        # flag as its value, so both forms give the same document
        argv = ["closed-form", "--b5", "1", "--omega3", "3"]
        separate = run(capsys, [*argv, "--omega1", "-1e-3"])
        joined = run(capsys, [*argv, "--omega1=-1e-3"])
        assert separate == joined
        assert separate[0] == 3
        assert cli._parse([*argv, "--omega1", "-1e-3"]).omega1 == -1e-3
