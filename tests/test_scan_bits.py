"""Bit pin of a scan's median and rows.

Two sets of outcomes are hashed and compared with a digest recorded while
the median still merged its sorted runs and every clear block was flagged
row by row:

- float.hex of rtbpmodel._median_abs over seeded arrays, with MEDIAN_CHUNK
  of 1, 3, 4, 1024 and the default: odd and even lengths, all-equal values,
  few distinct values (so ties cross run edges), 0.0 with -0.0, 5e-324 and
  the largest double;
- the rows of scan_blocks (float.hex of omega1 and D2, and the flag), or the
  type and message of the exception, for seeded model points on grids that
  cross both pole bands, lie wholly inside one or clear of every void
  relation, at the default tolerance and at explicit ones, among them the
  scan's own smallest and largest |D2|.
"""

import random
import sys

from birkhoff import ModelParams, rtbpmodel, scan_blocks
from pins import assert_digest

#: SHA-256 of the lines of outcomes(); recorded from the merged median and
#: the per-row flag map
DIGEST = "96fd75afaeb0e6db3f9c3fdf6d29b3cc9ce69d18af2035603b7b45ec901818ac"

#: MEDIAN_CHUNK values the median is taken at; None is the module's default
CHUNKS = (1, 3, 4, 1024, None)
LENGTHS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 100, 101, 2048, 2049, 3001)
#: magnitudes the arrays draw from: zero, the least and the largest double
SPECIAL = (0.0, 5e-324, 1e-300, 0.1, 1.0, 3.0, 7e33, sys.float_info.max)

#: (omega3, lo, hi, steps) of the scans: across both pole bands at
#: omega3 = 1 and their block edges, with the poles and resonances on grid
#: points, wholly inside the band at 0.5 or at 2, clear of every window, and
#: omega3 away from 1
GRIDS = ((1.0, 0.05, 4.0, 2 * rtbpmodel.FLAG_BLOCK + 5), (1.0, 0.25, 2.25, 8193),
         (1.0, 1.0 / 3.0, 3.0, 9), (1.0, 0.4995, 0.5005, 600), (1.0, 1.995, 2.005, 2000),
         (1.0, 0.6, 0.9, 1000), (1.0, 2.1, 2.9, 17), (1.0, 0.05, 4.0, 2),
         (0.7, 0.05, 3.0, 3000), (50.0, 1.0, 200.0, 1001))
#: explicit tolerances besides the scan's smallest and largest |D2|
TOLERANCES = (None, 1e-300, 1e24, 1e300)


def _arrays(rng):
    """[(kind, values), ...] of every kind at every length."""
    out = []
    for n in LENGTHS:
        sign = lambda: rng.choice((-1.0, 1.0))  # noqa: E731
        few = [rng.choice(SPECIAL) for _ in range(3)]
        out += [
            ("spread", [sign() * rng.choice(SPECIAL[:-1]) * rng.uniform(0.5, 2.0)
                        for _ in range(n)]),
            ("equal", [sign() * few[0]] * n),
            ("ties", [sign() * rng.choice(few) for _ in range(n)]),
            ("zeros", [rng.choice((0.0, -0.0, 0.0, -0.0, 5e-324)) for _ in range(n)]),
            ("extremes", [sign() * rng.choice((0.0, 5e-324, sys.float_info.max))
                          for _ in range(n)]),
            ("gauss", [rng.gauss(0.0, 1e30) for _ in range(n)]),
        ]
    return out


def median_outcomes():
    """One line per (chunk, array): the chunk, the kind, the length and
    float.hex of the median."""
    rng = random.Random(20261022)
    arrays = _arrays(rng)
    default = rtbpmodel.MEDIAN_CHUNK
    # the default chunk also sees arrays of two and three full runs
    big = [(kind, [rng.choice(few) * rng.uniform(0.5, 2.0) if kind == "ties"
                   else rng.gauss(0.0, 1e30) for _ in range(n)])
           for n in (2 * default + 1, 2 * default + 2)
           for kind, few in (("gauss", None), ("ties", (1.0, 3.0)))]
    lines = []
    try:
        for chunk in CHUNKS:
            rtbpmodel.MEDIAN_CHUNK = default if chunk is None else chunk
            for kind, values in arrays + (big if chunk is None else []):
                median = rtbpmodel._median_abs(values)
                lines.append(f"median {chunk} {kind} {len(values)} {median.hex()}")
    finally:
        rtbpmodel.MEDIAN_CHUNK = default
    return lines


def _scan_lines(params, grid, tolerance):
    head = f"scan {params} {grid} {tolerance!r}"
    try:
        blocks = scan_blocks(params, *grid, d2_tolerance=tolerance)
    except Exception as err:  # every exception is an outcome to pin
        return [f"{head} {type(err).__name__}: {err}"]
    return [head] + [f"{w.hex()} {d2.hex()} {flag}"
                     for block in blocks for w, d2, flag in zip(*block)]


def scan_outcomes():
    """A head line per scan, then one line per row, or the exception."""
    rng = random.Random(20261023)
    points = [ModelParams(0.00025, 0.025, 0.00025, 0.00025)]
    points += [ModelParams(10.0 ** rng.uniform(-4.0, -1.0), rng.uniform(0.01, 1.0),
                           10.0 ** rng.uniform(-4.0, 0.0), rng.uniform(0.0, 0.01))
               for _ in range(2)]
    lines = []
    for params in points:
        for grid in GRIDS:
            magnitudes = sorted(abs(d2) for _, d2s, _ in scan_blocks(params, *grid)
                                for d2 in d2s)
            for tolerance in TOLERANCES + (magnitudes[0], magnitudes[-1]):
                lines += _scan_lines(params, grid, tolerance)
    # a scan that leaves the closed forms raises before any row
    lines += _scan_lines(points[0], (1e308, 0.05, 4.0, 5), None)
    return lines


def outcomes():
    return median_outcomes() + scan_outcomes()


def test_outcomes_match_the_recorded_digest(tmp_path):
    lines = outcomes()
    # the scans reach every flag and the overflow
    for flag in ("ok", "pole", "resonant", "degenerate"):
        assert any(line.endswith(f" {flag}") for line in lines), flag
    assert any("DeterminantOverflowError: " in line for line in lines)
    assert_digest(lines, DIGEST, tmp_path)
