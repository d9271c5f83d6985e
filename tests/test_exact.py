import random
from fractions import Fraction
from math import comb

import pytest

from eulersum import exact


def test_harmonic_base_cases():
    for kind in (exact.plain(1), exact.semi(3), exact.alternating(2)):
        assert exact.harmonic(0, kind) == 0


def test_harmonic_examples():
    assert exact.harmonic(3, exact.plain(1)) == Fraction(11, 6)
    assert exact.harmonic(3, exact.semi(1)) == Fraction(23, 15)  # 1 + 1/3 + 1/5
    assert exact.harmonic(2, exact.alternating(2)) == Fraction(3, 4)  # 1 - 1/4


def test_harmonic_rejects_bad_input():
    with pytest.raises(ValueError):
        exact.plain(0)
    with pytest.raises(ValueError):
        exact.semi(-1)
    with pytest.raises(ValueError):
        exact.harmonic(-1, exact.plain(1))


@pytest.mark.parametrize("order", [1.5, 2.0, True])
def test_harmonic_kind_refuses_an_order_that_is_not_an_integer(order):
    # 1.5 used to be accepted and fail later inside harmonic
    with pytest.raises(ValueError, match="integer"):
        exact.HarmonicKind("plain", order)


def test_harmonic_even_split_identity():
    # H_2n = S_n + H_n / 2
    for n in range(1, 60):
        assert exact.harmonic(2 * n, exact.plain(1)) == exact.harmonic(
            n, exact.semi(1)
        ) + Fraction(1, 2) * exact.harmonic(n, exact.plain(1))


def test_harmonic_odd_split_identity():
    # H_(2n-1) = H_(n-1)/2 + S_n
    for n in range(1, 60):
        assert exact.harmonic(2 * n - 1, exact.plain(1)) == Fraction(1, 2) * exact.harmonic(
            n - 1, exact.plain(1)
        ) + exact.harmonic(n, exact.semi(1))


def test_harmonic_strictly_increasing():
    for kind in (exact.plain(1), exact.plain(3), exact.semi(1), exact.semi(2)):
        prev = Fraction(0)
        for n in range(1, 40):
            cur = exact.harmonic(n, kind)
            assert cur > prev
            prev = cur


def test_harmonic_results_are_reduced():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 80)
        kind = rng.choice([exact.plain(2), exact.semi(3), exact.alternating(1)])
        v = exact.harmonic(n, kind)
        assert isinstance(v, Fraction)
        # Fraction normalizes; make the invariant explicit anyway
        from math import gcd

        assert gcd(v.numerator, v.denominator) == 1 and v.denominator > 0


def test_bernoulli_small_values():
    assert exact.bernoulli(0) == 1
    assert exact.bernoulli(1) == Fraction(-1, 2)
    assert exact.bernoulli(2) == Fraction(1, 6)
    assert exact.bernoulli(4) == Fraction(-1, 30)
    assert exact.bernoulli(5) == 0
    assert exact.bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_defining_recurrence():
    # independent oracle: sum_{k=0..n} C(n+1,k) B_k = 0 for n >= 1
    for n in range(1, 40):
        total = sum(Fraction(comb(n + 1, k)) * exact.bernoulli(k) for k in range(n + 1))
        assert total == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        exact.bernoulli(-1)
