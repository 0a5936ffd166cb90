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
    # the constructors check their indices themselves
    with pytest.raises(ValueError, match="must be >= 1"):
        LinForm.of({0: 1})
    with pytest.raises(ValueError, match="out of range 1..3"):
        f.as_poly(3, 0)
    for i in (0, 3):
        with pytest.raises(ValueError, match="out of range 1..2"):
            Poly.variable(2, i)


def test_linform_canonical_drops_zeros():
    f = LinForm.of({1: 2, 2: 0, 3: -2})
    assert f.coeffs == ((1, 2), (3, -2))


@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.integers(-3, 3),
       st.lists(st.integers(-20, 20), min_size=4, max_size=4), st.integers(-4, 4))
def test_linform_as_poly_agrees_with_evaluate(coeffs, k_coeff, x, k):
    f = LinForm.of(dict(enumerate(coeffs, start=1)), k=k_coeff)
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
    with pytest.raises(ValueError, match="no variable to eliminate"):
        Poly.const(0, 1).substitute_degree(0)


def test_poly_basic_ops():
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    p = x1 * x2 - Poly.const(2, 5)
    assert p.total_degree() == 2
    assert p + (-p) == Poly.zero(2)
    assert p.eval((3, 4)) == 7
    assert p.to_terms() == [{"exp": [0, 0], "coeff": "-5"},
                            {"exp": [1, 1], "coeff": "1"}]
    with pytest.raises(ValueError, match="does not have 2 entries"):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError, match="expected 2 values, got 1"):
        p.eval((3,))
    other = Poly.variable(3, 1)
    for combine in (lambda: p * other, lambda: p + other,
                    lambda: Poly.weighted_sum(3, [(p, 1)])):
        with pytest.raises(ValueError, match="different variable counts"):
            combine()
    # Poly * str returns NotImplemented, Poly + str fails in _coerce
    for combine in (lambda: p * "x", lambda: p + "x"):
        with pytest.raises(TypeError):
            combine()


def test_poly_is_never_equal_to_a_scalar():
    # equal objects must hash alike, and a constant Poly's hash is not its
    # scalar's: so no Poly equals an int or a Fraction
    assert Poly.const(2, 3) != 3
    assert Poly.zero(2) != 0
    assert len({Poly.const(2, 3), 3}) == 2


def test_poly_compose():
    # p(y1, y2) = y1 * y2 with y1 -> x1 + x2 and y2 -> 2
    p = Poly.variable(2, 1) * Poly.variable(2, 2)
    args = [Poly.variable(3, 1) + Poly.variable(3, 2), Poly.const(3, 2)]
    assert p.compose(args) == (Poly.variable(3, 1) + Poly.variable(3, 2)) * 2
    with pytest.raises(ValueError, match="expected 2 substitution polynomials"):
        p.compose(args[:1])
    with pytest.raises(ValueError, match="at least one variable"):
        Poly.const(0, 1).compose([])
    with pytest.raises(ValueError, match="different variable counts"):
        p.compose([args[0], Poly.const(2, 2)])


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


@pytest.mark.parametrize("exp", [(-1, 0), (1.5, 0), (0, 2 ** 15), (True, 0)])
def test_poly_rejects_exponents_outside_the_packed_field(exp):
    # a monomial packs each exponent into a 16-bit field, so each must be an
    # int in 0..2^15 - 1; an x1^-1 would print, then fail in eval
    with pytest.raises(ValueError, match="must hold ints in 0..32767"):
        Poly(2, {exp: 1})


@pytest.mark.parametrize("value", [0.1, 1.0, "3", True])
def test_poly_rejects_inexact_coefficients(value):
    # a float would turn into its binary fraction and a str into a number:
    # each entry point takes an int or a Fraction only
    x1 = Poly.variable(1, 1)
    with pytest.raises(TypeError, match="is not an int or Fraction"):
        Poly(1, {(1,): value})
    with pytest.raises(TypeError, match="is not an int or Fraction"):
        Poly.const(1, value)
    with pytest.raises(TypeError, match="is not an int or Fraction"):
        Poly.weighted_sum(1, [(x1, value)])
    with pytest.raises(TypeError, match="is not an int or Fraction"):
        x1.eval([value])
    with pytest.raises(TypeError, match="is not an int or Fraction"):
        Poly.const(1, 5).eval([value])  # read even where no term uses it


def test_poly_eval_reads_fraction_values():
    p = Poly(1, {(2,): 2, (0,): Fraction(1, 3)})
    assert p.eval([Fraction(3, 2)]) == Fraction(29, 6)
    assert p.eval([Fraction(4, 2)]) == Fraction(25, 3)


@pytest.mark.parametrize("coeffs, k", [({1: 0.5}, 0), ({1: Fraction(1, 2)}, 0),
                                       ({1: True}, 0), ({1: 1}, 0.5),
                                       ({1: 1}, Fraction(1)), ({1: "2"}, 0)])
def test_linform_takes_int_coefficients_only(coeffs, k):
    # as_poly would store a float coefficient in the polynomial as it is
    with pytest.raises(TypeError, match="must be ints"):
        LinForm.of(coeffs, k)


def test_poly_accepts_exponents_up_to_the_field_limit():
    p = Poly(2, {(2 ** 15 - 1, 0): 1, (0, 2 ** 15 - 1): -2})
    assert p.terms == {(2 ** 15 - 1, 0): 1, (0, 2 ** 15 - 1): -2}
    assert str(p) == "x1^32767 - 2*x2^32767"
    assert p * Poly.const(2, 3) == Poly(2, {exp: 3 * c for exp, c in p.terms.items()})
    # terms is a fresh tuple-keyed dict on each read, and cannot be assigned
    p.terms.clear()
    assert len(p.terms) == 2
    with pytest.raises(AttributeError):
        p.terms = {}


@pytest.mark.parametrize("i", [1, 2, 3])
def test_squaring_a_variable_overflows_at_2_to_the_15(i):
    # the top bit of each field stays clear, so a sum of two exponents never
    # carries into the next field: the product that reaches 2^15 raises
    p, exponent = Poly.variable(3, i), 1
    with pytest.raises(OverflowError, match="reached 32768"):
        while True:
            p = p * p
            exponent *= 2
    assert exponent == 2 ** 14
    assert p.terms == {tuple(exponent if j == i else 0 for j in (1, 2, 3)): 1}


def test_compose_overflows_where_a_moved_field_meets_an_expanded_one():
    # x2 -> x1 is expanded, as x1 was taken by the bare x1 before it, and
    # x1^(2^14) * x1^(2^14) reaches 2^15
    x1 = Poly.variable(1, 1)
    assert Poly(2, {(3, 2): 1}).compose([x1, x1]) == Poly(1, {(5,): 1})
    with pytest.raises(OverflowError):
        Poly(2, {(2 ** 14, 2 ** 14): 1}).compose([x1, x1])


def _tuple_product(a, b):
    """Tuple-keyed convolution of two term dicts, zero sums dropped."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return {exp: c for exp, c in out.items() if c}


def _tuple_sum(parts):
    out = {}
    for terms, scale in parts:
        for exp, c in terms.items():
            out[exp] = out.get(exp, 0) + c * scale
    return {exp: c for exp, c in out.items() if c}


def _wide_polys(nvars):
    # exponents up to 2^14 - 1, so that a product stays below 2^15 and every
    # field of a packed key is exercised
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 14 - 1))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    return st.dictionaries(st.tuples(*[exponent] * nvars), coeffs, max_size=5)


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), _wide_polys(n), _wide_polys(n))), st.integers(-3, 3))
def test_packed_kernel_matches_tuple_oracle(polys, scale):
    n, a_terms, b_terms = polys
    a, b = Poly(n, a_terms), Poly(n, b_terms)
    assert (a * b).terms == _tuple_product(a.terms, b.terms)
    assert Poly.weighted_sum(n, [(a, scale), (b, 1)]).terms == _tuple_sum(
        [(a.terms, scale), (b.terms, 1)])
    assert Poly(n, a.terms) == a and hash(Poly(n, a.terms)) == hash(a)
    assert a.terms == {exp: c for exp, c in a_terms.items() if c}
    assert [term["exp"] for term in a.to_terms()] == sorted(
        list(exp) for exp in a.terms)
