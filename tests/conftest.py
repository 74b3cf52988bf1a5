import os
import random
from math import gcd, sqrt
from pathlib import Path

import pytest

from surd_sails.arith import QuadraticSurd, squarefree_split

SQUAREFREE_SMALL = [d for d in range(2, 101) if squarefree_split(d)[1] == d]

# sqrt(1000000007), period 12,352, then sqrt(D), (1 + sqrt(D))/2 and (5 - 3 sqrt(D))/7 in
# turn, each for the next squarefree D (D = 1 mod 4 for the second) from 6000002 on
# whose expansion has a period of 800 to 1,200 letters
LONG_PERIOD_SURDS = [QuadraticSurd(0, 1, 1, 1000000007)] + [
    (QuadraticSurd(0, 1, 1, d), QuadraticSurd(1, 1, 2, d), QuadraticSurd(5, -3, 7, d))[i % 3]
    for i, d in enumerate([
        6000013, 6000037, 6000043, 6000087, 6000101, 6000118, 6000139, 6000277, 6000279, 6000281,
        6000337, 6000338, 6000355, 6000361, 6000413, 6000429, 6000457, 6000466, 6000486, 6000497,
        6000515,
    ])
]


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def float_value(alpha: QuadraticSurd) -> float:
    """Test-only float oracle; the library itself never touches floats."""
    return (alpha.a + alpha.b * sqrt(alpha.d)) / alpha.c


def canonical_tuples(a_max=20, b_max=10, c_max=20, d_max=100):
    """All canonical surd tuples within the stated bounds."""
    squarefree = [d for d in SQUAREFREE_SMALL if d <= d_max]
    for d in squarefree:
        for c in range(1, c_max + 1):
            for b in range(-b_max, b_max + 1):
                if b == 0:
                    continue
                for a in range(-a_max, a_max + 1):
                    if gcd(a, b, c) == 1:
                        yield a, b, c, d


def random_canonical_surd(rng: random.Random, a_max=40, b_max=15, c_max=25, d_max=200) -> QuadraticSurd:
    while True:
        d = rng.choice([k for k in range(2, d_max + 1) if squarefree_split(k)[1] == k])
        a = rng.randint(-a_max, a_max)
        b = rng.choice([k for k in range(-b_max, b_max + 1) if k])
        c = rng.randint(1, c_max)
        if gcd(a, b, c) == 1:
            return QuadraticSurd(a, b, c, d)


@pytest.fixture
def rng():
    return random.Random(20260811)
