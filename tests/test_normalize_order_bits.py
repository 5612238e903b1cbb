"""Bit pin of the engine on Hamiltonian files whose terms come in any order.

The payloads of test_normalize_bits are written in graded lexicographic
order, so a core that looped over a table of monomials instead of over the
input's own terms would still match that pin.  Here each file's terms are
shuffled with a seeded generator, and a few cubic or quartic exponents are
written twice (from_json_dict adds them up), so every polynomial holds its
terms in an order of its own.  The outcome lines are those of
test_normalize_bits; the digest was recorded from the engine that keyed its
bracket and chart change by exponent tuples.
"""

import random

import test_normalize_bits
from pins import assert_digest
from test_normalize_bits import RESONANT, payloads

#: SHA-256 of the outcome lines of shuffled(); recorded before the engine
#: looked its monomials up in a table
DIGEST = "0e59b79c4f63d6dc9546c0cb58b7583e36e7503c8f6170577f12b15a29481075"

#: repeated entries added to each file
REPEATS = 3


def shuffled():
    """The payloads of test_normalize_bits, terms shuffled, some repeated."""
    rng = random.Random(20261019)
    out = []
    for label, payload in payloads():
        terms = list(payload["terms"])
        higher = [t for t in terms if sum(t["exponents"]) > 2]
        for _ in range(REPEATS if higher else 0):
            extra = dict(rng.choice(higher), re=rng.uniform(-1.0, 1.0))
            terms.insert(rng.randrange(len(terms) + 1), extra)
        rng.shuffle(terms)
        out.append((label, dict(payload, terms=terms)))
    return out


def outcomes():
    """The outcome lines of test_normalize_bits for shuffled()."""
    return test_normalize_bits.outcomes(shuffled())


def test_shuffled_outcomes_match_the_recorded_digest(tmp_path):
    lines = outcomes()
    codes = [line.rsplit(" ", 1)[1] for line in lines if " exit " in line]
    assert codes == ["0"] * (len(codes) - len(RESONANT)) + ["4"] * len(RESONANT)
    assert_digest(lines, DIGEST, tmp_path)
