"""Seeded inputs and output oracles of the three benchmark workloads.

Inputs depend on the seed only.  The oracles recompute what they can from
first principles (grid, guard bands, resonances, D2 from the K values) and
compare the rest with code paths other than the timed one: the independent
expanded determinant `closedform.d2_expanded`, the hand-derived `lie_*`
forms of tests/conftest.py, and the mode-swap symmetry of the normal form.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
import statistics
from pathlib import Path
from types import SimpleNamespace

from birkhoff.closedform import PoleError, d2_expanded, k0022, k1111, k2200
from birkhoff.normalform import normalize
from birkhoff.polyalg import REAL_CHART, Frequencies, GradedHamiltonian
from birkhoff.rtbpmodel import ModelParams, coefficients

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("scan-dense", "normalize-batch", "verdict-map")

#: vertical frequency of every scan and verdict
OMEGA3 = 1.0

#: documented output contract: guard-band half-width relative to omega3,
#: degeneracy cut relative to the scan's median |D2|
GUARD = 0.01
DEGENERACY_FRACTION = 1e-6

#: relative agreement demanded from every compared floating-point value
RTOL = 1e-9


def _rng(*parts) -> random.Random:
    # string seeds hash the same in every process, whatever PYTHONHASHSEED is
    return random.Random(":".join(str(p) for p in parts))


def draw_params(rng: random.Random) -> tuple[float, float, float, float]:
    """(mu, q, Q, A) inside the expansions' supported domain (A <= 0.01)."""
    return (10.0 ** rng.uniform(-4.0, -1.0), rng.uniform(0.01, 1.0),
            10.0 ** rng.uniform(-4.0, 0.0), rng.uniform(0.0, 0.01))


def close(got: float, want: float, scale: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= RTOL * scale


def model_d2(params, omega1: float, omega3: float = OMEGA3) -> float:
    """D2 of the model from the expanded closed form, nudged off an exact pole
    to the next representable omega1 as `rtbpmodel.d2_eval` does."""
    cq = coefficients(ModelParams(*params)).cubic_quartic()
    try:
        return d2_expanded(cq, Frequencies(omega1, omega3))
    except PoleError:
        return d2_expanded(cq, Frequencies(math.nextafter(omega1, math.inf), omega3))


#: a point inside the supported domain, next to a root of D2, where the
#: program's debug cross-check in closedform.d2_closed raises AssertionError
#: (composed and expanded D2 differ by 5e-9 relative); run once per
#: scan-dense and verdict-map run so the defect stays visible
CROSS_CHECK_REPRODUCER = (0.002720043807294557, 0.5463885506276273, 0.3866753034233212,
                          0.0048672361891881405, 0.5746535936534526)


def cross_check_fails(cq, omega1: float, omega3: float = OMEGA3) -> bool:
    """Whether d2_closed's debug cross-check rejects this frequency pair.

    Mirrors the program: an exact pole is evaluated at the next
    representable omega1, and the composed and expanded determinants must
    agree to 1e-9 of max(|composed|, |expanded|, 1).  Inputs for which it
    fails are screened out of the timed workloads (no timed operation may
    fail) and counted in the report.
    """
    for w1 in (omega1, math.nextafter(omega1, math.inf)):
        freqs = Frequencies(w1, omega3)
        try:
            composed = -(k2200(cq, freqs) * omega3 ** 2
                         + k1111(cq, freqs) * w1 * omega3
                         + k0022(cq, freqs) * w1 ** 2)
            expanded = d2_expanded(cq, freqs)
        except PoleError:
            continue
        return abs(composed - expanded) > 1e-9 * max(abs(composed), abs(expanded), 1.0)
    return False


def in_pole_band(omega1: float, omega3: float = OMEGA3) -> bool:
    guard = GUARD * omega3
    return (abs(2.0 * omega1 - omega3) < guard or abs(omega1 - 2.0 * omega3) < guard
            or omega1 < guard)


# -- scan-dense ----------------------------------------------------------------

SCAN_STEPS = 100_000
#: scans cycle through this many screened specs
SCAN_SPECS = 4
SCAN_HEADER = "omega1,D2,flag"
SCAN_FLAGS = ("ok", "pole", "degenerate")


def scan_grid(lo: float, hi: float, steps: int) -> list[float]:
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps - 1)] + [hi]


def scan_specs(seed, count: int = SCAN_SPECS, steps: int = SCAN_STEPS) -> tuple[list[dict], int]:
    """(specs, candidates screened out): model points and grids, each grid
    crossing both pole guard bands, none tripping the cross-check defect."""
    rng = _rng("scan-dense", seed)
    specs, rejected = [], 0
    while len(specs) < count:
        mu, q, Q, A = draw_params(rng)
        spec = {"mu": mu, "q": q, "Q": Q, "A": A,
                "lo": rng.uniform(0.04, 0.06), "hi": rng.uniform(3.9, 4.1)}
        cq = coefficients(ModelParams(mu, q, Q, A)).cubic_quartic()
        if any(cross_check_fails(cq, w) for w in scan_grid(spec["lo"], spec["hi"], steps)):
            rejected += 1
        else:
            specs.append(spec)
    return specs, rejected


def scan_argv(spec: dict, steps: int, output: str) -> list[str]:
    return ["rtbp-scan", "--mu", repr(spec["mu"]), "--q", repr(spec["q"]),
            "--Q", repr(spec["Q"]), "--A", repr(spec["A"]), "--omega3", repr(OMEGA3),
            "--grid", f"{spec['lo']!r}:{spec['hi']!r}:{steps}",
            "--format", "csv", "--output", output]


def check_scan(text: str, spec: dict, steps: int) -> tuple[int, list[str]]:
    """(rows failing, first reasons) for one scan's CSV output.

    Every row outside the pole bands is compared with the expanded closed
    form at the spec's parameters.
    """
    cq = coefficients(ModelParams(spec["mu"], spec["q"], spec["Q"], spec["A"])).cubic_quartic()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != SCAN_HEADER:
        return steps, ["bad header"]
    if len(lines) - 1 != steps:
        return steps, [f"{len(lines) - 1} rows, expected {steps}"]

    bad: set[int] = set()
    reasons: list[str] = []

    def fail(k, why):
        bad.add(k)
        if len(reasons) < 5:
            reasons.append(f"row {k}: {why}")

    lo, hi = spec["lo"], spec["hi"]
    step = (hi - lo) / (steps - 1)
    rows = []
    previous = -math.inf
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        try:
            w, d2 = float(fields[0]), float(fields[1])
        except (ValueError, IndexError):
            fail(k, f"unparsable {line!r}")
            rows.append(None)
            continue
        flag = fields[2] if len(fields) == 3 else None
        if not (math.isfinite(w) and math.isfinite(d2)):
            fail(k, "non-finite value")
        if flag not in SCAN_FLAGS:
            fail(k, f"flag {flag!r}")
        if not w > previous:
            fail(k, "omega1 not increasing")
        if abs(w - (lo + k * step)) > 1e-12 * hi:
            fail(k, f"omega1 {w!r} off the grid")
        if (flag == "pole") != in_pole_band(w):
            fail(k, f"pole flag {flag!r} at omega1 {w!r}")
        previous = w
        rows.append((w, d2, flag))
    if rows[0] is not None and rows[0][0] != lo or rows[-1] is not None and rows[-1][0] != hi:
        fail(0, "grid end points")

    parsed = [r for r in rows if r is not None and math.isfinite(r[1])]
    scale = statistics.median(abs(r[1]) for r in parsed) if parsed else 0.0
    tolerance = DEGENERACY_FRACTION * scale if scale > 0 else 1e-300
    for k, row in enumerate(rows):
        if row is None or k in bad or row[2] == "pole":
            continue
        w, d2, flag = row
        if (flag == "degenerate") != (abs(d2) <= tolerance):
            fail(k, f"degenerate flag {flag!r} with |D2| {abs(d2)!r}")
        want = d2_expanded(cq, Frequencies(w, OMEGA3))
        if not close(d2, want, max(abs(d2), abs(want))):
            fail(k, f"D2 {d2!r}, expanded form gives {want!r}")
    return len(bad), reasons


# -- verdict-map ---------------------------------------------------------------

VERDICT_CHUNK = 4096
SPECIAL_EVERY = 1000
#: exact poles (omega3 = 2*omega1, omega1 = 2*omega3) and exact resonances
SPECIAL_OMEGA1 = (0.5, 2.0, 1.0, 1.0 / 3.0, 3.0)
STATUSES = ("stable", "resonant", "degenerate", "pole")
#: D2 is compared with the expanded form on this many points per chunk
VERDICT_D2_SAMPLE = 512


def verdict_chunk(seed, chunk: int) -> tuple[list[tuple[float, float, float, float, float]], int]:
    """((mu, q, Q, A, omega1) points, draws screened out).

    No point shares parameters with another; a draw that trips the
    cross-check defect is replaced by the next one.
    """
    rng = _rng("verdict-map", seed, chunk)
    points, rejected = [], 0
    while len(points) < VERDICT_CHUNK:
        k = chunk * VERDICT_CHUNK + len(points)
        mu, q, Q, A = draw_params(rng)
        w = rng.uniform(0.05, 4.0)
        if k % SPECIAL_EVERY == SPECIAL_EVERY // 2:
            w = SPECIAL_OMEGA1[(k // SPECIAL_EVERY) % len(SPECIAL_OMEGA1)]
        if cross_check_fails(coefficients(ModelParams(mu, q, Q, A)).cubic_quartic(), w):
            rejected += 1
            continue
        points.append((mu, q, Q, A, w))
    return points, rejected


def verdict_warmup(seed):
    mu, q, Q, A = draw_params(_rng("verdict-map", seed, "warm-up"))
    return (mu, q, Q, A, 0.3)


def expected_status(omega1: float, d2: float, omega3: float = OMEGA3) -> str:
    """Verdict recomputed from the bands, the low-order resonances and D2.

    Without a tolerance the degeneracy cut is 1e-6 of |D2| itself, so only
    an exact zero is degenerate.
    """
    if in_pole_band(omega1, omega3):
        return "pole"
    tolerance = 1e-9 * max(omega1, omega3)
    gaps = (omega1 - omega3, 3.0 * omega1 - omega3, omega1 - 3.0 * omega3,
            2.0 * omega1 - omega3, omega1 - 2.0 * omega3)
    if any(abs(g) < tolerance for g in gaps):
        return "resonant"
    return "degenerate" if d2 == 0.0 else "stable"


def check_verdicts(chunk: int, points, statuses, d2s,
                   sample=VERDICT_D2_SAMPLE) -> tuple[int, list[str]]:
    """(points failing, first reasons) for the verdicts of one chunk's points.

    Every status is recomputed; D2 is compared with the expanded form on the
    special points and on `sample` points drawn from the chunk index.
    """
    picked = set(_rng("verdict-sample", chunk).sample(
        range(len(statuses)), min(sample, len(statuses))))
    bad = 0
    reasons = []
    for i, (point, status, d2) in enumerate(zip(points, statuses, d2s)):
        why = None
        if status not in STATUSES or not math.isfinite(d2):
            why = f"status {status!r}, D2 {d2!r}"
        elif status != expected_status(point[4], d2):
            why = f"status {status!r}, expected {expected_status(point[4], d2)!r}"
        elif i in picked or point[4] in SPECIAL_OMEGA1:
            want = model_d2(point[:4], point[4])
            if not close(d2, want, max(abs(d2), abs(want))):
                why = f"D2 {d2!r}, expanded form gives {want!r}"
        if why:
            bad += 1
            if len(reasons) < 5:
                reasons.append(f"point {chunk * VERDICT_CHUNK + i}: {why}")
    return bad, reasons


# -- normalize-batch -----------------------------------------------------------

#: one block of the input pool; the pool repeats POOL_BLOCKS shuffled blocks,
#: so any run of consecutive items keeps the mix to within one block
POOL_BLOCK = (("populated", 27), ("model", 10), ("complex", 12), ("resonant", 1))
POOL_BLOCKS = 8
MALFORMED_KINDS = ("missing-exponents", "null-coefficient")
MALFORMED_PER_KIND = 2


def _monomials(degree: int):
    return [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) == degree]


def _draw_frequencies(rng: random.Random, min_gap: float = 0.05) -> tuple[float, float]:
    while True:
        w1, w3 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        gaps = (2 * w1 - w3, w1 - 2 * w3, w1 - w3, 3 * w1 - w3, w1 - 3 * w3)
        if min(abs(g) for g in gaps) > min_gap:
            return w1, w3


def _term(e, re, im=0.0):
    return {"exponents": list(e), "re": re, "im": im}


def _populated(rng: random.Random, w1: float, w3: float, chart: str) -> dict:
    """Every cubic (20) and quartic (35) monomial with a random coefficient."""
    real = chart == REAL_CHART
    if real:
        terms = [_term((2, 0, 0, 0), 0.5 * w1), _term((0, 2, 0, 0), 0.5 * w1),
                 _term((0, 0, 2, 0), 0.5 * w3), _term((0, 0, 0, 2), 0.5 * w3)]
    else:
        terms = [_term((1, 1, 0, 0), 0.0, w1), _term((0, 0, 1, 1), 0.0, w3)]
    for e in _monomials(3) + _monomials(4):
        terms.append(_term(e, rng.uniform(-1.0, 1.0), 0.0 if real else rng.uniform(-1.0, 1.0)))
    return {"dof": 2, "chart": chart, "frequencies": [w1, w3], "terms": terms}


_MODEL_MONOMIALS = {
    "a1": (3, 0, 0, 0), "a2": (2, 0, 1, 0), "a3": (1, 0, 2, 0), "a4": (0, 0, 3, 0),
    "b1": (4, 0, 0, 0), "b3": (2, 0, 2, 0), "b5": (0, 0, 4, 0),
}


def _model(rng: random.Random, w1: float, w3: float) -> tuple[dict, dict]:
    """Sparse u/v shape of the cubic/quartic model, and its coefficients."""
    coeffs = {name: rng.uniform(-2.0, 2.0) for name in _MODEL_MONOMIALS}
    terms = [_term((2, 0, 0, 0), 0.5 * w1), _term((0, 2, 0, 0), 0.5 * w1),
             _term((0, 0, 2, 0), 0.5 * w3), _term((0, 0, 0, 2), 0.5 * w3)]
    terms += [_term(e, coeffs[name]) for name, e in _MODEL_MONOMIALS.items()]
    return {"dof": 2, "chart": REAL_CHART, "frequencies": [w1, w3], "terms": terms}, coeffs


def normalize_pool(seed) -> list[dict]:
    """Pool entries {"kind", "payload"[, "coefficients"]} in run order."""
    rng = _rng("normalize-batch", seed)
    pool = []
    for block in range(POOL_BLOCKS):
        kinds = [kind for kind, n in POOL_BLOCK for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            w1, w3 = _draw_frequencies(rng)
            if kind == "model":
                payload, coeffs = _model(rng, w1, w3)
                pool.append({"kind": kind, "payload": payload, "coefficients": coeffs})
            elif kind == "resonant":
                # omega1 = 2*omega3 exactly: a cubic divisor vanishes
                chart = REAL_CHART if block % 2 == 0 else "complex"
                payload = _populated(rng, 2.0 * w3, w3, chart)
                pool.append({"kind": kind, "payload": payload})
            else:
                chart = REAL_CHART if kind == "populated" else "complex"
                pool.append({"kind": kind, "payload": _populated(rng, w1, w3, chart)})
    return pool


def malformed_payloads(seed) -> list[tuple[str, dict]]:
    """Payloads the reader must refuse with exit 3 (domain error)."""
    rng = _rng("normalize-batch", seed, "malformed")
    out = []
    for kind in MALFORMED_KINDS:
        for _ in range(MALFORMED_PER_KIND):
            payload = _populated(rng, *_draw_frequencies(rng), REAL_CHART)
            victim = payload["terms"][rng.randrange(4, len(payload["terms"]))]
            if kind == "missing-exponents":
                del victim["exponents"]
            else:
                victim["re"] = None
            out.append((kind, payload))
    return out


def mode_swapped(payload: dict) -> dict:
    """(q1, p1) <-> (q2, p2) with the two frequencies exchanged."""
    swapped = dict(payload)
    swapped["frequencies"] = payload["frequencies"][::-1]
    swapped["terms"] = [dict(t, exponents=t["exponents"][2:] + t["exponents"][:2])
                        for t in payload["terms"]]
    return swapped


def _engine_k(payload: dict) -> tuple[float, float, float, float]:
    ham = GradedHamiltonian.from_json_dict(payload)
    if ham.chart == REAL_CHART:
        ham = ham.complexify()
    report = normalize(ham)
    return report.k2200, report.k1111, report.k0022, report.d2


def lie_forms():
    """tests/conftest.py, whose lie_* forms were derived apart from the engine."""
    spec = importlib.util.spec_from_file_location(
        "birkhoff_test_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_k(entry: dict, lie=None):
    """(K2200, K1111, K0022, D2) the item must report, or None for exit 4.

    Model-form items use the lie_* forms of tests/conftest.py; populated and
    complex-chart items use the normal form of the mode-swapped input, whose
    K2200 and K0022 trade places while K1111 and D2 stay.
    """
    kind = entry["kind"]
    if kind == "resonant":
        return None
    if kind == "model":
        lie = lie or lie_forms()
        c = SimpleNamespace(**entry["coefficients"])
        freqs = Frequencies(*entry["payload"]["frequencies"])
        return (lie.lie_k2200(c, freqs), lie.lie_k1111(c, freqs),
                lie.lie_k0022(c, freqs), lie.lie_d2(c, freqs))
    k2200, k1111, k0022, d2 = _engine_k(mode_swapped(entry["payload"]))
    return k0022, k1111, k2200, d2


def check_normalize(entry: dict, expected, rc, stderr: str, report) -> str | None:
    """Reason the item failed, or None when it passed.

    report holds the K values and D2 read from the output file, or a string
    saying why they could not be read.
    """
    w1, w3 = entry["payload"]["frequencies"]
    if entry["kind"] == "resonant":
        if rc != 4:
            return f"exit {rc!r}, expected 4"
        try:
            error = json.loads(stderr)
        except ValueError:
            return f"stderr is not JSON: {stderr[:80]!r}"
        if error.get("error") != "resonance" or not abs(error.get("divisor", 1.0)) < 1e-9 * max(w1, w3):
            return f"resonance report {error!r}"
        return None
    if rc != 0:
        return f"exit {rc!r}: {stderr[:200]!r}"
    if not isinstance(report, dict):
        return str(report)
    try:
        got = tuple(float(report[k]) for k in ("K2200", "K1111", "K0022", "D2"))
    except (TypeError, ValueError, KeyError) as err:
        return f"unreadable report: {err}"
    k2200, k1111, k0022, d2 = got
    k_scale = max(abs(k2200), abs(k1111), abs(k0022), 1e-300)
    d2_scale = abs(k2200) * w3 ** 2 + abs(k1111) * w1 * w3 + abs(k0022) * w1 ** 2
    if not close(d2, -(k2200 * w3 ** 2 + k1111 * w1 * w3 + k0022 * w1 ** 2), d2_scale):
        return f"D2 {d2!r} does not follow from K {got[:3]!r}"
    for name, value, want in zip(("K2200", "K1111", "K0022"), got[:3], expected[:3]):
        if not close(value, want, k_scale):
            return f"{name} {value!r}, oracle gives {want!r}"
    if not close(d2, expected[3], d2_scale):
        return f"D2 {d2!r}, oracle gives {expected[3]!r}"
    return None
