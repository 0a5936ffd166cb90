"""Exact scalars, integer linear forms in x and k, and sparse rational polynomials.

Rational values are plain ``fractions.Fraction`` objects; the helpers here
pin down the canonical ``"p/q"`` string format used everywhere else (the
denominator is omitted when it equals 1).

A :class:`LinForm` is an integer-coefficient linear expression in the profile
variables x1..xn and the leak parameter k.  Walls, whose forms are also the
genus-0 tree edge weights, are stored in this shape, so evaluating one at an
integer point always gives an integer.  A form has no printer of its own:
the CLI prints a wall's form through ``as_poly`` and ``Poly.__str__``.

A :class:`Poly` is a sparse multivariate polynomial over the rationals,
stored as a dict from packed monomials to nonzero coefficients (the zero
polynomial stores no terms).  A monomial packs into one int with a 16-bit
field per exponent, x1 in the highest field, so a product of monomials is
one int addition and sorted keys follow the exponent tuples' order.  Each
exponent stays below 2^15: the constructor rejects a larger one, and a
product or composition whose result reaches 2^15 raises ``OverflowError``
before a sum could carry into the next field.  ``terms`` unpacks to a new
dict keyed by exponent tuples on each read.  An integral coefficient is
stored as an ``int`` and any other as a ``Fraction``, so genus-0
arithmetic, whose coefficients are all integers, runs on plain ints.
Profiles live on the hyperplane x1 + ... + xn = total for a
problem-specific integer, so polynomial identities are only meaningful
modulo that relation; the canonical normal form eliminates x_n against it.
``substitute_degree`` composes onto the hyperplane coordinates
(``hyperplane_coordinates``) through ``compose``, the one substitution
routine; the closed-form wall crossing composes its factors onto the same
coordinates.  ``compose`` moves the exponent field of each argument that is
a bare variable and expands only the others through their powers, in
practice the last coordinate, total - x1 - ... - x_m.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import or_
from struct import unpack
from typing import Iterable, Mapping, NamedTuple, Sequence

_FIELD = 16  # bits per exponent in a packed monomial ("H" in ``Poly.terms``)
_FIELD_MASK = (1 << _FIELD) - 1
_LIMIT = 1 << (_FIELD - 1)  # exponents stay below this


def rat_str(value: Fraction | int) -> str:
    """Render a rational as "p/q", omitting "/q" when the denominator is 1."""
    if type(value) is int:
        return str(value)
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rat(text: str) -> Fraction:
    """Parse the "p/q" (or bare "p") format produced by :func:`rat_str`."""
    return Fraction(text.strip())


class LinForm(NamedTuple):
    """Linear form  sum_i coeff_i * x_i + k_coeff * k.

    ``coeffs`` holds (variable index, coefficient) pairs with 1-based
    indices, sorted, and never stores a zero coefficient.
    """

    coeffs: tuple[tuple[int, int], ...] = ()
    k_coeff: int = 0

    @staticmethod
    def of(coeffs: Mapping[int, int], k: int = 0) -> "LinForm":
        if min(coeffs, default=1) < 1:
            raise ValueError(f"variable index {min(coeffs)} must be >= 1")
        if any(type(c) is not int for c in (*coeffs.values(), k)):
            raise TypeError(f"coefficients {dict(coeffs)} and k = {k!r} must be ints")
        return LinForm(tuple(sorted((i, c) for i, c in coeffs.items() if c)), k)

    def evaluate(self, x: Sequence[int | Fraction], k: int | Fraction):
        """Evaluate at a profile and leak; x must cover all indices used
        (``x[i - 1]`` raises ``IndexError`` otherwise, as i >= 1)."""
        total = self.k_coeff * k
        for i, c in self.coeffs:
            total += c * x[i - 1]
        return total

    def as_poly(self, nvars: int, k_value: int) -> "Poly":
        """Convert to a polynomial in x1..x_nvars with k substituted."""
        terms = {0: self.k_coeff * k_value}
        for i, c in self.coeffs:
            if not 1 <= i <= nvars:
                raise ValueError(f"variable index {i} out of range 1..{nvars}")
            key = 1 << _FIELD * (nvars - i)
            terms[key] = terms.get(key, 0) + c
        return Poly._of(nvars, _cleaned(terms))


def _scalar(value) -> int | Fraction:
    """An exact coefficient, an int or a Fraction: int when integral.  A
    float, str or bool is refused, not converted."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        raise TypeError(f"coefficient {value!r} is not an int or Fraction")
    return value.numerator if value.denominator == 1 else value


def _cleaned(terms: dict) -> dict:
    """Drop zero coefficients and store integral Fractions as int."""
    return {exp: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for exp, c in terms.items() if c}


def _check_fields(nvars: int, terms: dict) -> dict:
    """The terms, after checking that no packed key sets the top bit of an
    exponent field, which only a sum of two exponents below 2^15 can set."""
    # (2^(16 nvars) - 1) / (2^16 - 1) sets the lowest bit of every field
    guard = (1 << _FIELD * nvars) // _FIELD_MASK << (_FIELD - 1)
    if functools.reduce(or_, terms, 0) & guard:
        raise OverflowError(f"an exponent reached {_LIMIT}")
    return terms


def _shifts(nvars: int) -> range:
    """The bit offset of each exponent field, x1 first."""
    return range(_FIELD * (nvars - 1), -1, -_FIELD)


class Poly:
    """Sparse polynomial in x1..x_nvars with exact rational coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        cleaned: dict[int, int | Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} does not have {nvars} entries")
                key = 0
                for e in exp:
                    if type(e) is not int or not 0 <= e < _LIMIT:
                        raise ValueError(
                            f"exponent {exp} must hold ints in 0..{_LIMIT - 1}")
                    key = key << _FIELD | e
                c = _scalar(coeff)
                if c != 0:
                    cleaned[key] = c
        self._terms = cleaned

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Poly":
        """Wrap a dict that is already clean: packed monomials of nvars
        fields, nonzero coefficients, integral ones stored as int."""
        p = object.__new__(cls)
        p.nvars = nvars
        p._terms = terms
        return p

    @property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """The terms keyed by exponent tuple, in a new dict on each read."""
        fmt, size = f">{self.nvars}H", 2 * self.nvars
        return {unpack(fmt, key.to_bytes(size, "big")): c
                for key, c in self._terms.items()}

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._of(nvars, {})

    @staticmethod
    def const(nvars: int, value: Fraction | int) -> "Poly":
        c = _scalar(value)
        return Poly._of(nvars, {0: c} if c else {})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        """The polynomial x_i, with 1-based index i."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        return Poly._of(nvars, {1 << _FIELD * (nvars - i): 1})

    @staticmethod
    def weighted_sum(nvars: int,
                     parts: Iterable[tuple["Poly", Fraction | int]]) -> "Poly":
        """sum(scale * poly for poly, scale in parts), added up in one dict."""
        out: dict[int, int | Fraction] = {}
        get = out.get
        for poly, scale in parts:
            if poly.nvars != nvars:
                raise ValueError("polynomials in different variable counts")
            scale = _scalar(scale)
            for exp, coeff in poly._terms.items():
                out[exp] = get(exp, 0) + coeff * scale
        return Poly._of(nvars, _cleaned(out))

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __add__(self, other) -> "Poly":
        return Poly.weighted_sum(self.nvars, ((self, 1), (self._coerce(other), 1)))

    def __sub__(self, other) -> "Poly":
        return Poly.weighted_sum(self.nvars, ((self, 1), (self._coerce(other), -1)))

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {exp: -c for exp, c in self._terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly.weighted_sum(self.nvars, ((self, other),))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different variable counts")
        out: dict[int, int | Fraction] = {}
        get = out.get
        right = tuple(other._terms.items())
        for ea, ca in self._terms.items():
            for eb, cb in right:
                exp = ea + eb
                out[exp] = get(exp, 0) + ca * cb
        return Poly._of(self.nvars, _check_fields(self.nvars, _cleaned(out)))

    def _coerce(self, other) -> "Poly":
        """other as a Poly: a scalar goes through ``_scalar``, which refuses
        anything but an int or a Fraction, and ``weighted_sum`` checks the
        variable count."""
        return other if isinstance(other, Poly) else Poly.const(self.nvars, other)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max(map(sum, self.terms), default=0)

    def eval(self, values: Sequence[int | Fraction]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        values = [_scalar(v) for v in values]
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exp, values):
                if e:
                    term *= v ** e
            total += term
        return total

    def substitute_degree(self, total: int) -> "Poly":
        """Eliminate the last variable against x1 + ... + xn = total: the
        normal form, composed with x1..x_{n-1} and total - x1 - ... - x_{n-1}."""
        if not self.nvars:
            raise ValueError("no variable to eliminate")
        return self.compose(hyperplane_coordinates(self.nvars - 1, total))

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
        # an argument whose variable no term holds is skipped.  A bare
        # variable x_j, unless an earlier one took x_j, moves its exponent
        # field onto x_j's: fields moved by one offset move under one mask,
        # shifted left by the offset plus ``drop`` and then right by
        # ``drop``.  Every other argument is expanded, with row[e - 1] =
        # arg ** e for every e the terms reach.
        present = functools.reduce(or_, self._terms, 0)
        variables = {1 << s: s for s in _shifts(m)}
        drop = _FIELD * self.nvars
        masks: dict[int, int] = {}  # lift -> the fields it moves
        expanded = []
        for shift, a in zip(_shifts(self.nvars), args):
            if not present >> shift & _FIELD_MASK:
                continue
            key = next(iter(a._terms)) if len(a._terms) == 1 else None
            if key in variables and a._terms[key] == 1:
                lift = variables.pop(key) - shift + drop
                masks[lift] = masks.get(lift, 0) | _FIELD_MASK << shift
            else:
                expanded.append((shift, a, [a]))
        moves = tuple(masks.items())
        one = {0: 1}
        out: dict[int, int | Fraction] = {}
        get = out.get
        for key, coeff in self._terms.items():
            moved = 0
            for lift, mask in moves:
                moved |= (key & mask) << lift
            moved >>= drop
            rest = None
            for src, a, row in expanded:
                e = key >> src & _FIELD_MASK
                if e:
                    while len(row) < e:
                        row.append(row[-1] * a)
                    rest = row[e - 1] if rest is None else rest * row[e - 1]
            for exp, c in (one if rest is None else rest._terms).items():
                exp += moved
                out[exp] = get(exp, 0) + coeff * c
        return Poly._of(m, _check_fields(m, _cleaned(out)))

    def to_terms(self) -> list[dict]:
        """Term list sorted by exponent tuple, with "p/q" coefficients."""
        return [{"exp": list(exp), "coeff": rat_str(coeff)}
                for exp, coeff in sorted(self.terms.items())]

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        ordered = sorted(terms, key=lambda e: (sum(e), e), reverse=True)
        parts: list[str] = []
        for exp in ordered:
            coeff = terms[exp]
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


@functools.lru_cache(maxsize=256)
def hyperplane_coordinates(m: int, total: int) -> tuple[Poly, ...]:
    """x1..x_m and total - x1 - ... - x_m, in m variables: what x1..x_{m+1}
    become on the hyperplane x1 + ... + x_{m+1} = total in normal form.
    Shared by every caller: no Poly is changed in place."""
    coords = tuple(Poly.variable(m, i) for i in range(1, m + 1))
    return coords + (Poly.weighted_sum(
        m, [(Poly.const(m, total), 1)] + [(x, -1) for x in coords]),)
