"""Scalar micro-metrics: microseconds per field operation on fixed operands.

Each figure is the median over BATCHES timed batches of BATCH operations,
so it rests on BATCHES * BATCH >= 10^4 operations.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from hopfcheck.cyclotomic import make_field

BATCH = 1000
BATCHES = 12


def _per_op_us(op, a, b) -> float:
    times = []
    for _ in range(BATCHES):
        t = time.perf_counter()
        for _ in range(BATCH):
            op(a, b)
        times.append(time.perf_counter() - t)
    return statistics.median(times) / BATCH * 1e6


def scalar_metrics() -> dict:
    q = make_field(1)
    q44 = make_field(44)
    q28 = make_field(28)
    x, y = Fraction(3, 7), Fraction(-5, 11)
    z = q28.zeta()
    alg_a = q28.from_rational(Fraction(3, 7)) + z - 2 * z ** 5
    alg_b = q28.from_rational(Fraction(-1, 2)) + z ** 2 + 3 * z ** 7

    def add(a, b):
        return a + b

    def mul(a, b):
        return a * b

    return {
        "cyclotomic.add_us.q1": _per_op_us(add, q.from_rational(x), q.from_rational(y)),
        "cyclotomic.add_us.q44_rat": _per_op_us(
            add, q44.from_rational(x), q44.from_rational(y)
        ),
        "cyclotomic.mul_us.q44_rat": _per_op_us(
            mul, q44.from_rational(x), q44.from_rational(y)
        ),
        "cyclotomic.mul_us.q28_alg": _per_op_us(mul, alg_a, alg_b),
    }
