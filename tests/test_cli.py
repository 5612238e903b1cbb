import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import birkhoff
from birkhoff import d2_from_k
from birkhoff import cli
from birkhoff.cli import main
from conftest import CANCELLATION_POINT


REF_FLAGS = ["--mu", "0.00025", "--q", "0.025", "--Q", "0.00025", "--A", "0.00025"]

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

    def test_pole_exits_with_resonance_code(self, capsys):
        code, _, err = run(capsys, ["closed-form", "--a3", "1", "--omega1", "2",
                                    "--omega3", "1"])
        assert code == 4
        payload = json.loads(err)
        assert payload["error"] == "resonance"
        assert "omega1 = 2*omega3" in payload["relation"]


class TestNormalizeCommand:
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
                               payload["K0022"], Frequencies(1.07, 0.41))
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
    ], ids=["top-level-list", "missing-exponents", "null-coefficient",
            "float-exponent", "bool-exponent", "string-exponent"])
    def test_malformed_hamiltonian_is_domain_error(self, capsys, tmp_path, payload):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, ["normalize", "--input", str(path)])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    @pytest.mark.parametrize("seed, chart, digest", [
        (11, "real", "ada7ab1d061fe88a695d13a2a9d716a77557248657530985b8039133f8a772a3"),
        (12, "complex", "e50d77cd6a99e37df4a4f2a2876f65bb840134c4882e14faf813a99714983f38"),
    ])
    def test_golden_output_bytes(self, capsys, tmp_path, seed, chart, digest):
        # SHA-256 of the report of the engine that re-checked the exponents
        # of every intermediate polynomial (CPython 3.11)
        path = tmp_path / "h.json"
        path.write_text(json.dumps(populated_payload(seed, chart)))
        code, out, _ = run(capsys, ["normalize", "--input", str(path)])
        assert code == 0
        assert sha256(out) == digest

    @pytest.mark.parametrize("tolerance", NON_POSITIVE_OR_NON_FINITE)
    def test_invalid_divisor_tolerance_is_domain_error(self, capsys, tmp_path, tolerance):
        # omega1 = 2*omega3 exactly: the term X1*Y2^2 of q1*p2^2 has divisor 0
        extra = [{"exponents": [1, 0, 0, 2], "re": 0.5, "im": 0.0}]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(hamiltonian_payload((2.0, 1.0), extra)))
        code, out, err = run(capsys, ["normalize", "--input", str(path),
                                      "--divisor-tolerance", tolerance])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    def test_missing_input_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["normalize", "--input",
                                    str(tmp_path / "missing.json")])
        assert code == 3
        assert json.loads(err)["error"] == "domain"


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

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rtbp-eval", "--mu", "0.1"])
        assert exc.value.code == 2


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
         "0ef287509a7379cf822846f237b0c993c9b0fd444ee75d4cc528e9065e4e533f"),
    ])
    def test_golden_output_bytes(self, capsys, extra, digest):
        # SHA-256 of the output of the per-row scan that evaluated the
        # coefficient series at every grid point (CPython 3.11)
        code, out, _ = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1", *extra])
        assert code == 0
        assert sha256(out) == digest

    def test_determinant_overflow_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["rtbp-scan", *REF_FLAGS, "--omega3", "1",
                                      "--grid", "1e-300:0.9:3"])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    def test_no_non_finite_token_without_debug_checks(self):
        # d2_closed checks the composed value itself, so the overflow exits 3
        # under -O as well and no nan or inf token is written
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

    def test_bad_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rtbp-scan", *REF_FLAGS, "--grid", "nonsense"])
        assert exc.value.code == 2


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
    def test_cached_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(populated_payload(11, "real")))
        scan = ["rtbp-scan", *REF_FLAGS, "--omega3", "1", "--grid", "0.1:0.9:50"]
        pairs = [
            (scan + ["--d2-tolerance", "1e34"], scan),
            (["normalize", "--input", str(path)],
             ["closed-form", "--b5", "1", "--omega1", "1", "--omega3", "3"]),
        ]
        for before, after in pairs:
            cli.build_parser.cache_clear()
            first = run(capsys, before)
            second = run(capsys, after)
            cli.build_parser.cache_clear()
            fresh = run(capsys, after)
            assert first[0] == second[0] == 0
            assert first[1] != second[1]
            assert second == fresh
