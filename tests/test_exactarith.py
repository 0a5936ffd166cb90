import itertools
import random

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from leakyhurwitz.exactarith import LinForm, Poly, parse_rat, rat_str


def test_parse_rat_reduces():
    assert parse_rat("-6/4") == Fraction(-3, 2)
    assert parse_rat("0/7") == Fraction(0, 1)
    assert parse_rat(" 175/24 ").denominator == 24
    assert parse_rat("12") == 12


def test_parse_rat_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rat("1/0")


def test_rat_str_format():
    assert rat_str(Fraction(-3, 2)) == "-3/2"
    assert rat_str(Fraction(4, 1)) == "4"
    assert rat_str(Fraction(0)) == "0"
    assert parse_rat("51/4") == Fraction(51, 4)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_rat_string_roundtrip(num, den):
    q = Fraction(num, den)
    assert parse_rat(rat_str(q)) == q


def test_linform_evaluate_index_error():
    f = LinForm.of({4: 1})
    with pytest.raises(IndexError):
        f.evaluate((1, 2, 3), 0)


def test_linform_canonical_drops_zeros():
    f = LinForm.of({1: 2, 2: 0, 3: -2})
    assert f.coeffs == ((1, 2), (3, -2))


@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.integers(-3, 3), st.integers(-5, 5),
       st.lists(st.integers(-20, 20), min_size=4, max_size=4), st.integers(-4, 4))
def test_linform_as_poly_agrees_with_evaluate(coeffs, k_coeff, const, x, k):
    f = LinForm.of(dict(enumerate(coeffs, start=1)), k=k_coeff, const=const)
    assert f.as_poly(4, k).eval(x) == f.evaluate(x, k)


def test_substitute_degree_example():
    # 6 x1 + 3 x2 + 3 x3 + 3 x4 + 3 x5 - 12 restricted to sum(x) = 3
    p = Poly.const(5, -12)
    coeffs = [6, 3, 3, 3, 3]
    for i, c in enumerate(coeffs, start=1):
        p = p + Poly.variable(5, i) * c
    q = p.substitute_degree(3)
    assert q == Poly.variable(4, 1) * 3 - Poly.const(4, 3)
    assert str(q) == "3*x1 - 3"


def test_poly_basic_ops():
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    p = x1 * x2 - Poly.const(2, 5)
    assert p.total_degree() == 2
    assert p + (-p) == Poly.zero(2)
    assert p.eval((3, 4)) == 7
    assert p.to_terms() == [{"exp": [0, 0], "coeff": "-5"},
                            {"exp": [1, 1], "coeff": "1"}]


def test_poly_compose():
    # p(y1, y2) = y1 * y2 with y1 -> x1 + x2 and y2 -> 2
    p = Poly.variable(2, 1) * Poly.variable(2, 2)
    args = [Poly.variable(3, 1) + Poly.variable(3, 2), Poly.const(3, 2)]
    assert p.compose(args) == (Poly.variable(3, 1) + Poly.variable(3, 2)) * 2


def _polys(nvars):
    exponents = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    return st.dictionaries(exponents, coeffs, max_size=4).map(
        lambda terms: Poly(nvars, terms))


def _integral_as_int(p):
    return all(type(c) is int or c.denominator != 1 for c in p.terms.values())


@given(_polys(3), _polys(3), _polys(3))
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    for p in (a + b, a - b, a * b, -a, a * Fraction(2, 3), a * 3,
              Poly.weighted_sum(3, [(a, 2), (b, Fraction(1, 2))]),
              a.substitute_degree(1), a.compose([b, c, a])):
        assert _integral_as_int(p)


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.integers(-20, 20), max_size=5),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_poly_int_and_fraction_coefficients_agree(terms, point):
    as_int = Poly(2, terms)
    as_fraction = Poly(2, {exp: Fraction(c) for exp, c in terms.items()})
    assert all(type(c) is int for c in as_int.terms.values())
    assert all(type(c) is int for c in as_fraction.terms.values())
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert str(as_int) == str(as_fraction)
    assert as_int.to_terms() == as_fraction.to_terms()
    value = as_int.eval(point)
    assert type(value) is Fraction
    assert value == as_fraction.eval(point)
    halves = Poly(2, {exp: Fraction(c, 2) for exp, c in terms.items()})
    assert halves * 2 == as_int
    assert str(halves + halves) == str(as_int)


@given(_polys(3), st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6))
def test_substitute_agrees_on_hyperplane(p, x1, x2, total):
    x3 = total - x1 - x2
    assert p.substitute_degree(total).eval((x1, x2)) == p.eval((x1, x2, x3))


def _powers_of_last_oracle(p, total):
    """Normal form by expanding powers of x_n = total - x_1 - ... - x_{n-1},
    an algorithm independent of ``compose``."""
    m = p.nvars - 1
    last = Poly.const(m, total)
    for i in range(1, m + 1):
        last = last - Poly.variable(m, i)
    max_pow = max((exp[-1] for exp in p.terms), default=0)
    powers = [Poly.const(m, 1)]
    for _ in range(max_pow):
        powers.append(powers[-1] * last)
    return Poly.weighted_sum(
        m, ((Poly(m, {exp[:-1]: 1}) * powers[exp[-1]], coeff)
            for exp, coeff in p.terms.items()))


def test_substitute_degree_matches_powers_of_last_oracle():
    rng = random.Random("substitute-degree")
    for trial in range(300):
        nvars = 1 + trial % 6
        exps = [exp for exp in itertools.product(range(5), repeat=nvars)
                if sum(exp) <= 4]
        fractional = trial % 2
        terms = {}
        for exp in rng.sample(exps, min(len(exps), rng.randint(1, 8))):
            c = rng.randint(-9, 9)
            terms[exp] = Fraction(c, rng.randint(1, 4)) if fractional else c
        p = Poly(nvars, terms)
        total = rng.randint(-6, 6)
        got = p.substitute_degree(total)
        assert got == _powers_of_last_oracle(p, total), (p, total)
        assert got.nvars == nvars - 1 and _integral_as_int(got)
