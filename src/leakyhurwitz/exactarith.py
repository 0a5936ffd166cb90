"""Exact scalars, integer affine-linear forms, and sparse rational polynomials.

Rational values are plain ``fractions.Fraction`` objects; the helpers here
pin down the canonical ``"p/q"`` string format used everywhere else (the
denominator is omitted when it equals 1).

A :class:`LinForm` is an integer-coefficient affine expression in profile
variables x1..xn plus the leak parameter k.  Walls, whose forms are also the
genus-0 tree edge weights, are stored in this shape, so evaluating one at an
integer point always gives an integer.  A form has no printer of its own:
the CLI prints a wall's form through ``as_poly`` and ``Poly.__str__``.

A :class:`Poly` is a sparse multivariate polynomial over the rationals,
stored as a dict from exponent tuples to nonzero coefficients (the zero
polynomial stores no terms).  An integral coefficient is stored as an ``int``
and any other as a ``Fraction``, so genus-0 arithmetic, whose coefficients
are all integers, runs on plain ints.  Profiles live on the hyperplane
x1 + ... + xn = total for a problem-specific integer, so polynomial
identities are only meaningful modulo that relation; the canonical normal
form eliminates x_n against it.  ``substitute_degree`` composes onto the
hyperplane coordinates through ``compose``, the one substitution routine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Sequence


def rat_str(value: Fraction | int) -> str:
    """Render a rational as "p/q", omitting "/q" when the denominator is 1."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rat(text: str) -> Fraction:
    """Parse the "p/q" (or bare "p") format produced by :func:`rat_str`."""
    return Fraction(text.strip())


@dataclass(frozen=True)
class LinForm:
    """Affine-linear form  sum_i coeff_i * x_i + k_coeff * k + const.

    ``coeffs`` holds (variable index, coefficient) pairs with 1-based
    indices, sorted, and never stores a zero coefficient.
    """

    coeffs: tuple[tuple[int, int], ...] = ()
    k_coeff: int = 0
    const: int = 0

    @staticmethod
    def of(coeffs: Mapping[int, int], k: int = 0, const: int = 0) -> "LinForm":
        if min(coeffs, default=1) < 1:
            raise ValueError(f"variable index {min(coeffs)} must be >= 1")
        return LinForm(tuple(sorted((i, c) for i, c in coeffs.items() if c)),
                       k, const)

    def evaluate(self, x: Sequence[int | Fraction], k: int | Fraction):
        """Evaluate at a profile and leak; x must cover all indices used
        (``x[i - 1]`` raises ``IndexError`` otherwise, as i >= 1)."""
        total = self.const + self.k_coeff * k
        for i, c in self.coeffs:
            total += c * x[i - 1]
        return total

    def as_poly(self, nvars: int, k_value: int) -> "Poly":
        """Convert to a polynomial in x1..x_nvars with k substituted."""
        zero = (0,) * nvars
        terms = {zero: self.const + self.k_coeff * k_value}
        for i, c in self.coeffs:
            if not 1 <= i <= nvars:
                raise ValueError(f"variable index {i} out of range 1..{nvars}")
            exp = zero[:i - 1] + (1,) + zero[i:]
            terms[exp] = terms.get(exp, 0) + c
        return Poly._of(nvars, _cleaned(terms))


def _scalar(value) -> int | Fraction:
    """An exact coefficient: int when integral, else Fraction."""
    if type(value) is int:
        return value
    c = Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _cleaned(terms: dict) -> dict:
    """Drop zero coefficients and store integral Fractions as int."""
    return {exp: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for exp, c in terms.items() if c}


class Poly:
    """Sparse polynomial in x1..x_nvars with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        cleaned: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} does not have {nvars} entries")
                c = _scalar(coeff)
                if c != 0:
                    cleaned[tuple(exp)] = c
        self.terms = cleaned

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Poly":
        """Wrap a dict that is already clean: exponent tuples of length
        nvars, nonzero coefficients, integral ones stored as int."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._of(nvars, {})

    @staticmethod
    def const(nvars: int, value: Fraction | int) -> "Poly":
        c = _scalar(value)
        return Poly._of(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        """The polynomial x_i, with 1-based index i."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exp = [0] * nvars
        exp[i - 1] = 1
        return Poly._of(nvars, {tuple(exp): 1})

    @staticmethod
    def weighted_sum(nvars: int,
                     parts: Iterable[tuple["Poly", Fraction | int]]) -> "Poly":
        """sum(scale * poly for poly, scale in parts), added up in one dict."""
        out: dict[tuple[int, ...], int | Fraction] = {}
        get = out.get
        for poly, scale in parts:
            if poly.nvars != nvars:
                raise ValueError("polynomials in different variable counts")
            scale = _scalar(scale)
            for exp, coeff in poly.terms.items():
                out[exp] = get(exp, 0) + coeff * scale
        return Poly._of(nvars, _cleaned(out))

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __add__(self, other) -> "Poly":
        return Poly.weighted_sum(self.nvars, ((self, 1), (self._coerce(other), 1)))

    def __radd__(self, other) -> "Poly":
        return self + other

    def __sub__(self, other) -> "Poly":
        return Poly.weighted_sum(self.nvars, ((self, 1), (self._coerce(other), -1)))

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {exp: -c for exp, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly.weighted_sum(self.nvars, ((self, other),))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different variable counts")
        out: dict[tuple[int, ...], int | Fraction] = {}
        get = out.get
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(map(add, ea, eb))
                out[exp] = get(exp, 0) + ca * cb
        return Poly._of(self.nvars, _cleaned(out))

    def __rmul__(self, other) -> "Poly":
        return self * other

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials in different variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        raise TypeError(f"cannot combine Poly with {type(other)!r}")

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def eval(self, values: Sequence[int | Fraction]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exp, values):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return total

    def substitute_degree(self, total: int) -> "Poly":
        """Eliminate the last variable against x1 + ... + xn = total: the
        normal form, composed with x1..x_{n-1} and total - x1 - ... - x_{n-1}."""
        m = self.nvars - 1
        if m < 0:
            raise ValueError("no variable to eliminate")
        coords = [Poly.variable(m, i) for i in range(1, m + 1)]
        last = Poly.weighted_sum(
            m, [(Poly.const(m, total), 1)] + [(x, -1) for x in coords])
        return self.compose(coords + [last])

    def compose(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute args[i] for variable x_{i+1}; args share a variable space."""
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} substitution polynomials")
        if not args:
            raise ValueError("compose needs at least one variable")
        m = args[0].nvars
        for a in args:
            if a.nvars != m:
                raise ValueError("substitution polynomials in different variable counts")
        # powers[i][e - 1] = args[i] ** e, for every e the terms reach
        powers = [[a] for a in args]
        for exp in self.terms:
            for row, a, e in zip(powers, args, exp):
                while len(row) < e:
                    row.append(row[-1] * a)

        def monomial(exp: tuple[int, ...]) -> Poly:
            factors = [row[e - 1] for row, e in zip(powers, exp) if e]
            return functools.reduce(mul, factors) if factors else Poly.const(m, 1)

        return Poly.weighted_sum(
            m, ((monomial(exp), coeff) for exp, coeff in self.terms.items()))

    def to_terms(self) -> list[dict]:
        """Term list sorted by exponent tuple, with "p/q" coefficients."""
        return [{"exp": list(exp), "coeff": rat_str(self.terms[exp])}
                for exp in sorted(self.terms)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        parts: list[str] = []
        for exp in ordered:
            coeff = self.terms[exp]
            symbol = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exp) if e)
            if symbol:
                if abs(coeff) == 1:
                    body = symbol
                else:
                    body = f"{rat_str(abs(coeff))}*{symbol}"
            else:
                body = rat_str(abs(coeff))
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"
