import json
import random

import numpy as np
import pytest

from qwalkspec import (
    CharPoly,
    DivisibilityError,
    poly_divide_exact,
    poly_gcd,
    poly_mul,
    poly_roots,
    squarefree_decomposition,
)
from qwalkspec import char_poly, int_matrix, mat_mul
from qwalkspec.polynomials import (
    _homogeneous,
    _kron_bits,
    _kron_eval,
    _kron_read,
    poly_derivative,
    poly_graeffe,
    poly_primitive,
    poly_trim,
)

from oracles import _pmul, _ppow, schoolbook_compose, schoolbook_graeffe


def test_poly_mul_examples():
    # (t-1)(t+1) = t^2 - 1
    assert poly_mul([-1, 1], [1, 1]) == [-1, 0, 1]
    # (t^2-1)^3 matches repeated multiplication
    sq = [-1, 0, 1]
    assert _ppow(sq, 3) == poly_mul(sq, poly_mul(sq, sq))


@pytest.mark.parametrize(
    "p",
    [[-1, 1], [1, 1], [-1, 0, 1], [-2, 1], [5, 1], [0, -3, 0, 2], [7, 0, 0, -1], [0, 0, 1], [4], [],
     [1, 2, 1]],
)
@pytest.mark.parametrize("e", [0, 1, 2, 3, 8, 25])
def test_poly_pow_equals_repeated_multiplication(p, e):
    # the library's poly_mul, applied e times, against the oracle's schoolbook power
    expected = [1]
    for _ in range(e):
        expected = poly_mul(expected, p)
    assert _ppow(p, e) == expected


def test_graeffe_squares_the_roots():
    # roots 1, -2, 3 -> 1, 4, 9
    p = poly_mul(poly_mul([-1, 1], [2, 1]), [-3, 1])
    assert poly_graeffe(p) == poly_mul(poly_mul([-1, 1], [-4, 1]), [-9, 1])
    rng = np.random.default_rng(2)
    for n in range(1, 9):
        m = int_matrix(rng.integers(-5, 6, size=(n, n)).tolist())
        assert poly_graeffe(char_poly(m).coeffs) == list(char_poly(mat_mul(m, m)).coeffs)


def _norm(p):
    return sum(map(abs, p))


def _random_poly(rng, degree, size):
    """Signed coefficients up to 2^size in magnitude, about a third of them 0, leading one not 0."""
    p = [rng.choice((0, rng.randint(-(1 << size), 1 << size))) for _ in range(degree)]
    return p + [rng.choice((-1, 1)) * rng.randint(1, 1 << size)]


def test_compose_homogeneous_matches_term_sum():
    # y^d p(x/y) at t = 2^B, B from the 1-norm bound, read back as the term-by-term sum
    rng = random.Random(4)
    cases = [([3, -1, 0, 2], [1, 0, 1], [-2, 1]), ([5], [1, 1], [0, 1]), ([0, 0, 1], [3], [7, 1])]
    for _ in range(30):
        cases.append(tuple(_random_poly(rng, rng.randint(0, d), 20) for d in (12, 3, 3)))
    for p, x, y in cases:
        bits = _kron_bits(_homogeneous([abs(c) for c in p], _norm(x), _norm(y)))
        t = 1 << bits
        value = _homogeneous(p, sum(c * t**i for i, c in enumerate(x)),
                             sum(c * t**i for i, c in enumerate(y)))
        degree = (len(p) - 1) * (max(len(x), len(y)) - 1)
        assert poly_trim(_kron_read(value, degree, bits)) == poly_trim(schoolbook_compose(p, x, y))


@pytest.mark.parametrize("seed", range(12))
def test_kronecker_product_round_trips(seed):
    # one big-int product at 2^B, B from ||f||_1 ||g||_1, is the schoolbook convolution
    rng = random.Random(seed)
    for degrees, size in [((0, 0), 3), ((0, 9), 40), ((7, 7), 2), ((15, 4), 70), ((30, 30), 12)]:
        f, g = (_random_poly(rng, d, size) for d in degrees)
        bits = _kron_bits(_norm(f) * _norm(g))
        product = _kron_eval(f, bits) * _kron_eval(g, bits)
        assert _kron_read(product, len(f) + len(g) - 2, bits) == _pmul(f, g)
        assert poly_mul(f, g) == _pmul(f, g)
        monic = f[:-1] + [1]
        assert poly_graeffe(monic) == schoolbook_graeffe(monic)
    # coefficients filling their byte: the results need more digits than the inputs' largest
    f, g = ([rng.choice((-127, 127)) for _ in range(31)] for _ in range(2))
    bits = _kron_bits(_norm(f) * _norm(g))
    assert _kron_read(_kron_eval(f, bits) * _kron_eval(g, bits), 60, bits) == _pmul(f, g)
    assert poly_mul(f, g) == _pmul(f, g)
    assert poly_graeffe(f + [1]) == schoolbook_graeffe(f + [1])


def test_kronecker_digits_reach_the_signed_limit():
    for bits in (8, 16, 64, 136):
        top = (1 << (bits - 1)) - 1
        for p in ([top], [-top], [0], [0, 0, 0], [top, -top, 0, 1, -1, top], [-top, 0, 0, top]):
            assert _kron_read(_kron_eval(p, bits), len(p) - 1, bits) == p
        # one past the limit carries into the next digit: the width must come from a bound
        assert _kron_read(_kron_eval([top + 1, 0], bits), 1, bits) != [top + 1, 0]
        with pytest.raises(OverflowError):
            _kron_read(_kron_eval([top + 1], bits), 0, bits)


def test_poly_divide_exact():
    # (t^6 - 2t^3 + 1) / (t^3 - 1) = t^3 - 1
    assert poly_divide_exact([1, 0, 0, -2, 0, 0, 1], [-1, 0, 0, 1]) == [-1, 0, 0, 1]
    with pytest.raises(DivisibilityError):
        poly_divide_exact([1, 0, 1], [1, 1])  # t^2+1 not divisible by t+1
    with pytest.raises(DivisibilityError):
        poly_divide_exact([1, 3], [2])  # content not divisible


def test_poly_divide_exact_by_zero_or_by_a_longer_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divide_exact([1, 1], [0, 0])
    with pytest.raises(DivisibilityError, match="degree of dividend below divisor"):
        poly_divide_exact([1, 1], [1, 0, 1])


def test_poly_equal_ignores_trailing_zeros():
    assert poly_trim([1, 2, 0, 0]) == poly_trim([1, 2])
    assert poly_trim([1, 2]) != poly_trim([1, 2, 3])


def test_poly_trim_and_primitive():
    assert poly_trim([0, 0, 0]) == []
    assert poly_primitive([2, 4, 6]) == [1, 2, 3]
    assert poly_primitive([-2, -4]) == [1, 2]  # sign normalized to positive lead


def test_poly_derivative():
    assert poly_derivative([5, 3, 2, 1]) == [3, 4, 3]


def test_poly_gcd():
    p = poly_mul([-1, 1], [1, 1])  # (t-1)(t+1)
    q = poly_mul([-1, 1], [2, 1])  # (t-1)(t+2)
    assert poly_gcd(p, q) == [-1, 1]
    assert poly_gcd(p, [1]) == [1]
    assert poly_gcd([], p) == poly_primitive(p)


def test_poly_gcd_takes_its_arguments_in_either_order():
    p = poly_mul([-1, 1], [1, 1])  # (t-1)(t+1)
    assert poly_gcd([-2, 2], p) == poly_gcd(p, [-2, 2]) == [-1, 1]


def test_squarefree_decomposition():
    # (t-1)^2 (t+1)^3 t
    p = poly_mul(_ppow([-1, 1], 2), poly_mul(_ppow([1, 1], 3), [0, 1]))
    dec = squarefree_decomposition(p)
    assert sorted((f, m) for f, m in dec) == sorted(
        [([0, 1], 1), ([-1, 1], 2), ([1, 1], 3)]
    )
    # reassembling recovers p
    out = [1]
    for f, m in dec:
        out = poly_mul(out, _ppow(f, m))
    assert poly_trim(out) == poly_trim(p)


def test_poly_roots_high_multiplicity():
    # (t-1)^30 (t+2)^5: naive numeric rootfinding scatters the 30-fold root
    p = poly_mul(_ppow([-1, 1], 30), _ppow([2, 1], 5))
    roots = poly_roots(p)
    assert len(roots) == 35
    ones = [r for r in roots if abs(r - 1) < 1e-8]
    minus2 = [r for r in roots if abs(r + 2) < 1e-8]
    assert len(ones) == 30
    assert len(minus2) == 5


def test_poly_roots_complex_pairs():
    # (t^2+1)^2 (t-3)
    p = poly_mul(_ppow([1, 0, 1], 2), [-3, 1])
    roots = sorted(poly_roots(p), key=lambda z: (z.real, z.imag))
    assert len(roots) == 5
    assert sum(1 for r in roots if abs(r - 1j) < 1e-9) == 2
    assert sum(1 for r in roots if abs(r + 1j) < 1e-9) == 2
    assert sum(1 for r in roots if abs(r - 3) < 1e-9) == 1


def test_poly_roots_empty_and_constant():
    assert poly_roots([]) == []
    assert poly_roots([5]) == []


def test_charpoly_type():
    cp = CharPoly((-1, 0, 1))
    assert cp.degree == 2
    assert cp.evaluate(3) == 8
    assert str(cp) == "t^2 - 1"
    with pytest.raises(ValueError):
        CharPoly((1, 2))  # not monic
    with pytest.raises(ValueError):
        CharPoly(())


def test_charpoly_json_roundtrip_preserves_big_ints():
    big = 10**80
    cp = CharPoly((big, -3, 1))
    blob = json.dumps(cp.to_json_list())
    back = CharPoly(tuple(int(c) for c in json.loads(blob)))
    assert back == cp
    assert back.coeffs[0] == big


def test_charpoly_str_formatting():
    assert str(CharPoly((0, -2, 0, 1))) == "t^3 - 2*t"
    assert str(CharPoly((1, 1, 1))) == "t^2 + t + 1"


def test_squarefree_of_corpus_charpoly():
    # the C3 walk-support char poly (t^3-1)^2 decomposes cleanly
    from qwalkspec import build_arc_space, char_poly, cycle_graph, support_u_power

    cp = char_poly(support_u_power(build_arc_space(cycle_graph(3)), 1))
    dec = squarefree_decomposition(list(cp.coeffs))
    assert dec == [([-1, 0, 0, 1], 2)]
    roots = poly_roots(list(cp.coeffs))
    assert len(roots) == 6
    cube_roots = sorted(roots, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    for r in cube_roots:
        assert abs(r**3 - 1) < 1e-9


def test_gcd_random_products_share_factor():
    rng = np.random.default_rng(3)
    for _ in range(20):
        common = [int(rng.integers(-5, 6)), 1]
        a = poly_mul(common, [int(rng.integers(-5, 6)), int(rng.integers(1, 4))])
        b = poly_mul(common, [int(rng.integers(-5, 6)), int(rng.integers(1, 4))])
        g = poly_gcd(a, b)
        # the common linear factor divides the gcd
        assert len(g) >= 2
        poly_divide_exact(poly_mul(g, [1]), poly_primitive(common))
