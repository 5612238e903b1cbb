"""Bit pin of the stability verdict.

Every outcome over a seeded set of (mu, q, Q, A, omega1, omega3,
d2_tolerance, max_half_order) points -- the status, float.hex of D2 and
the notes of stability_verdict, or the type and message of the exception
-- is hashed and compared with a digest recorded before the model series
became one flat transcription.  The set holds draws like the verdict-map
benchmark's, the exact poles and resonances of omega1 and one ulp either
side of each, every truncation, explicit tolerances (valid and not) and
the rare mass ratios, radiation factors and oblatenesses of
tests/test_series_bits.py: powers of mu that underflow, coefficients
whose squares overflow and powers of A that overflow.
"""

import math
import random

from birkhoff import ModelParams, stability_verdict
from pins import assert_digest

#: SHA-256 of the lines of outcomes(); recorded from the nested series
#: table that coefficients walked
DIGEST = "672962651e6397fc1da3994f8b9881fe5404623b63992cd5f3d4f95470168be2"

HALF_ORDER_BOUNDS = (None, 0, 1, 2, 3, 4, 7)
#: exact poles (omega3 = 2*omega1, omega1 = 2*omega3) and exact resonances
#: at omega3 = 1
SPECIAL_OMEGA1 = (0.5, 2.0, 1.0, 1.0 / 3.0, 3.0)
TOLERANCES = (None, 1e-12, 1e-6, 1.0, 1e6, 5e-324, 1e300)
#: tolerances the verdict refuses
BAD_TOLERANCES = (0.0, -1.0, math.inf, math.nan)
#: as in tests/test_series_bits.py: 1e-40 and 1e-35 divide by 0, 1e-32
#: gives coefficients whose squares overflow, 1e-20 non-finite ones
RARE_MU = (1e-40, 1e-35, 1e-32, 1e-20, 1.0 - 1e-16)
RARE_RADIATION = (5e-324, 1e-300)
RARE_A = (0.0, 5e-324, 1e155, 1e200, 5.0)


def _near(value):
    """value and the doubles one ulp below and above it."""
    return (math.nextafter(value, 0.0), value, math.nextafter(value, math.inf))


def _drawn(rng):
    """(mu, q, Q, A) drawn as the verdict-map benchmark draws them."""
    return (10.0 ** rng.uniform(-4.0, -1.0), rng.uniform(0.01, 1.0),
            10.0 ** rng.uniform(-4.0, 0.0), rng.uniform(0.0, 0.01))


def points():
    """[(mu, q, Q, A, omega1, omega3, d2_tolerance, max_half_order), ...],
    about 3000 points in all."""
    rng = random.Random(20261020)
    out = []
    for mu in RARE_MU:
        for q, Q in ((0.5, 0.5), (RARE_RADIATION[0], 1.0), (1.0, RARE_RADIATION[1])):
            for A in RARE_A:
                out.append((mu, q, Q, A, rng.uniform(0.05, 4.0), 1.0,
                            None, rng.choice(HALF_ORDER_BOUNDS)))
    for special in SPECIAL_OMEGA1:
        for w1 in _near(special):
            for h in HALF_ORDER_BOUNDS:
                out.append((*_drawn(rng), w1, 1.0, rng.choice(TOLERANCES), h))
    for tolerance in TOLERANCES + BAD_TOLERANCES:
        for _ in range(8):
            out.append((*_drawn(rng), rng.uniform(0.05, 4.0), 1.0, tolerance,
                        rng.choice(HALF_ORDER_BOUNDS)))
    while len(out) < 3000:
        params = _drawn(rng)
        if rng.random() < 0.05:
            # one rare value in place of a drawn one
            field = rng.randrange(4)
            rare = (RARE_MU, RARE_RADIATION, RARE_RADIATION, RARE_A)[field]
            params = params[:field] + (rng.choice(rare),) + params[field + 1:]
        w3 = 1.0 if rng.random() < 0.9 else rng.uniform(0.2, 3.0)
        w1 = (rng.choice(_near(rng.choice(SPECIAL_OMEGA1)))
              if rng.random() < 0.02 else rng.uniform(0.05, 4.0))
        tolerance = rng.choice(TOLERANCES) if rng.random() < 0.1 else None
        out.append((*params, w1, w3, tolerance, rng.choice(HALF_ORDER_BOUNDS)))
    return out


def _outcome(mu, q, Q, A, omega1, omega3, d2_tolerance, max_half_order):
    try:
        v = stability_verdict(ModelParams(mu, q, Q, A), omega1, omega3,
                              d2_tolerance, max_half_order)
    except Exception as err:  # every exception is an outcome to pin
        return f"{type(err).__name__}: {err}"
    return " ".join((v.status.value, v.d2.hex(), *v.notes))


def outcomes():
    """One line per point."""
    return [_outcome(*point) for point in points()]


def test_points_cover_every_rare_value():
    pts = points()
    assert len(pts) >= 3000
    assert {p[7] for p in pts} == set(HALF_ORDER_BOUNDS)
    assert set(RARE_MU) <= {p[0] for p in pts}
    assert set(RARE_RADIATION) <= {p[1] for p in pts} & {p[2] for p in pts}
    assert set(RARE_A) <= {p[3] for p in pts}
    omega1s = {p[4] for p in pts}
    assert all(set(_near(w)) <= omega1s for w in SPECIAL_OMEGA1)


def test_outcomes_match_the_recorded_digest(tmp_path):
    lines = outcomes()
    # the set reaches every status and every kind of failure
    for start in ("stable ", "resonant ", "degenerate ", "pole ",
                  "ModelDomainError: the expansions are",
                  "ModelDomainError: a power of A",
                  "ModelDomainError: the expansions summed",
                  "DeterminantOverflowError: ", "ValueError: d2_tolerance"):
        assert any(line.startswith(start) for line in lines), start
    assert_digest(lines, DIGEST, tmp_path)
