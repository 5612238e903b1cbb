"""Bit pin of the model series and of the coefficients summed from it.

Every outcome over a seeded set of (mu, q, Q, A, max_half_order) points --
float.hex of every table entry of coefficient_series and of every
CoefficientSet field of coefficients, in order (an int as its repr), or
the type and message of the exception -- is hashed and
compared with a digest recorded from the per-quantity series functions,
which evaluated every power where it was written.  The set covers mass
ratios whose powers underflow to 0 (division by zero), give non-finite
coefficients or coefficients whose squares overflow, radiation factors
down to the smallest subnormal, and powers of A that overflow, or stay
finite under truncation.
"""

import random

from birkhoff import ModelParams, coefficient_series, coefficients
from conftest import assert_digest

#: SHA-256 of the lines of outcomes(); recorded from the per-quantity series,
#: then re-pinned when a sum that is not finite came to name its model point
#: (those 8 lines kept the old field message as their tail), and again when
#: an empty sum became the float 0.0 rather than the int 0 (259 lines, each
#: only with tokens 0 -> 0x0.0p+0)
DIGEST = "d052f3a2dc96c09913887d50d57a8b620aa9cb0b96bb95bb325a7c362be18932"

HALF_ORDER_BOUNDS = (None, 0, 1, 2, 3, 4, 7)
#: 1e-40 and 1e-35 divide by 0, 1e-32 gives coefficients whose squares
#: overflow, 1e-20 non-finite ones and 1 - 1e-16 the other end of (0, 1)
RARE_MU = (1e-40, 1e-35, 1e-32, 1e-20, 1.0 - 1e-16)
RARE_RADIATION = (5e-324, 1e-300)
#: A ** 2 overflows at 1e155 and 1e200, A ** 1.5 only past 1e205
RARE_A = (0.0, 5e-324, 1e155, 1e200, 5.0)


def _mu(rng):
    return (rng.choice(RARE_MU) if rng.random() < 0.1
            else 10.0 ** rng.uniform(-6.0, -0.05))


def _radiation(rng):
    return (rng.choice(RARE_RADIATION) if rng.random() < 0.05
            else rng.choice((1.0, rng.uniform(0.01, 1.0))))


def _oblateness(rng):
    return (rng.choice(RARE_A) if rng.random() < 0.1
            else rng.uniform(0.0, 0.01))


def points():
    """[(params, max_half_order), ...], about 2000 points in all."""
    rng = random.Random(20261019)
    out = []
    for mu in RARE_MU:
        for q, Q in ((0.5, 0.5), (RARE_RADIATION[0], 1.0), (1.0, RARE_RADIATION[1])):
            for A in RARE_A:
                out.append((ModelParams(mu, q, Q, A), rng.choice(HALF_ORDER_BOUNDS)))
    for A in RARE_A:
        for h in HALF_ORDER_BOUNDS:
            out.append((ModelParams(0.00025, 0.025, 0.00025, A), h))
    while len(out) < 2000:
        params = ModelParams(_mu(rng), _radiation(rng), _radiation(rng), _oblateness(rng))
        out.append((params, rng.choice(HALF_ORDER_BOUNDS)))
    return out


def _outcome(f):
    try:
        return " ".join(f())
    except Exception as err:  # every exception is an outcome to pin
        return f"{type(err).__name__}: {err}"


def _hex(value):
    # an int, should one appear, is pinned as its repr
    return value.hex() if isinstance(value, float) else repr(value)


def _series_hex(params):
    return [f"{name}:{h}:{_hex(value)}"
            for name, orders in coefficient_series(params).items()
            for h, value in orders.items()]


def _coefficients_hex(params, h):
    c = coefficients(params, h)
    return [f"{name}:{_hex(getattr(c, name))}" for name in c._fields]


def outcomes():
    """Two lines per point: the series table, then the summed coefficients."""
    lines = []
    for params, h in points():
        lines.append(_outcome(lambda: _series_hex(params)))
        lines.append(_outcome(lambda: _coefficients_hex(params, h)))
    return lines


def test_points_cover_every_rare_value():
    pts = points()
    assert {h for _, h in pts} == set(HALF_ORDER_BOUNDS)
    assert set(RARE_MU) <= {p.mu for p, _ in pts}
    assert set(RARE_RADIATION) <= {p.q for p, _ in pts} & {p.Q for p, _ in pts}
    assert set(RARE_A) <= {p.A for p, _ in pts}


def test_outcomes_match_the_recorded_digest(tmp_path):
    lines = outcomes()
    assert len(lines) >= 4000
    # the set reaches every kind of outcome the series can have
    assert any(line.startswith("ModelDomainError: the expansions are") for line in lines)
    assert any(line.startswith("ModelDomainError: a power of A") for line in lines)
    assert any(line.startswith("ModelDomainError: the expansions summed") for line in lines)
    assert_digest(lines, DIGEST, tmp_path)
