"""Polynomials over Gaussian rationals, plus frequency patterns.

There is one scalar type: every coefficient is a :class:`GaussianRational`,
a reduced integer triple (a + b i)/d.  Arithmetic is closed, and division
and gcd are decided exactly, on Python ints.  Every exact division (the
quotients of ``divide_exact``, the gcd's divisibility check, the Sturm
chain's remainders) is one pseudo-division on Gaussian integers,
``_pseudo_divide``.  The gcd is Brown's modular one (``gcd_exact``):
Euclid runs only on images modulo primes below 2^30, and its result is
checked by that division.

A double is exact wherever it enters: every double is a dyadic rational,
and :class:`ComplexPoly` takes a float or complex coefficient at that value,
so ``p * 0.7`` is p times the exact double 0.7, with no rounding.  The
parser reads a decimal literal as the rational it names (``0.1`` is 1/10),
and a JSON ``coeffs_f`` entry as the exact value of its doubles.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import json
import re as _re
from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from typing import Iterable, Sequence

from .errors import NotDivisible, ParseError

_EXPONENT_CAP = 512
# the denominator bounds, tried in turn, when a float is read back as a rational
_RATIONALIZE_BOUNDS = (10**4, 10**7, 10**10)
# every finite nonzero double is d.ddd * 10^e with -324 <= e <= 308
_DECIMAL_EXPONENT_CAP = 400


class GaussianRational:
    """Complex number (a + b i) / d with exact rational real and imaginary parts.

    The value is stored as three Python ints with d > 0 and gcd(a, b, d) = 1,
    so every value has exactly one representation and arithmetic never builds
    a :class:`fractions.Fraction`.  ``real`` and ``imag`` are read-only
    Fraction views a/d and b/d.  The constructor takes anything
    ``Fraction()`` takes for either part (ints, Fractions, floats, strings).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, real=0, imag=0):
        if type(real) is int and type(imag) is int:
            self._a, self._b, self._d = real, imag, 1
            return
        re, im = Fraction(real), Fraction(imag)
        rd, id_ = re.denominator, im.denominator
        d = rd // gcd(rd, id_) * id_
        # a prime dividing d divides one part's reduced denominator to its full
        # power, so it does not divide that part's scaled numerator
        self._a, self._b, self._d = re.numerator * (d // rd), im.numerator * (d // id_), d

    @property
    def real(self) -> Fraction:
        return Fraction(self._a) if self._d == 1 else Fraction(self._a, self._d)

    @property
    def imag(self) -> Fraction:
        return Fraction(self._b) if self._d == 1 else Fraction(self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _gauss(self._a, -self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        # int true division rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    @staticmethod
    def _coerce(other):
        if type(other) is GaussianRational:
            return other
        if type(other) is int:
            return _gauss(other, 0, 1)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, f = self._d, o._d
        if d == f:
            return _gauss(self._a + o._a, self._b + o._b, d)
        return _gauss(self._a * f + o._a * d, self._b * f + o._b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _gauss(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, f = self._d, o._d
        if d == f:
            return _gauss(self._a - o._a, self._b - o._b, d)
        return _gauss(self._a * f - o._a * d, self._b * f - o._b * d, d * f)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is int:
            # an integer factor scales both parts; no Gaussian product needed
            return _gauss(self._a * other, self._b * other, self._d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _gauss(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        den = c * c + e * e
        if not den:
            raise ZeroDivisionError("division by zero Gaussian rational")
        f = o._d
        return _gauss((a * c + b * e) * f, (b * c - a * e) * f, self._d * den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # equal values hash equal: a real value like the int or Fraction it equals
        return hash((self._a, self._b, self._d)) if self._b else hash(self.real)

    def __repr__(self):
        return f"GaussianRational({self.real!r}, {self.imag!r})"

    def __str__(self):
        re, im = self.real, self.imag
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_ZERO = GaussianRational()  # shared: a GaussianRational is never changed once made


def _gauss(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d from ints with d > 0, reduced to gcd(a, b, d) = 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    x = object.__new__(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def json_isinstance(val, kind) -> bool:
    """isinstance for parsed JSON: a JSON boolean is no number, though Python's bool is an int."""
    return isinstance(val, kind) and isinstance(val, bool) == (kind is bool)


class ComplexPoly:
    """Immutable dense polynomial over Gaussian rationals; the zero polynomial
    has an empty tuple.

    ``coeffs[k]`` is the :class:`GaussianRational` coefficient of ``z^k``.
    The constructor takes every scalar at its exact value: ints, Fractions,
    and a float or complex as the dyadic rational its doubles name.
    Trailing zero coefficients are stripped, so ``deg`` is honest.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        items = [c if type(c) is GaussianRational else _exact_value(c) for c in coeffs]
        while items and not items[-1]:
            items.pop()
        self.coeffs = tuple(items)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "ComplexPoly":
        return ComplexPoly([])

    @staticmethod
    def one() -> "ComplexPoly":
        return ComplexPoly([1])

    @staticmethod
    def constant(c) -> "ComplexPoly":
        return ComplexPoly([c])

    @staticmethod
    def monomial(k: int) -> "ComplexPoly":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return ComplexPoly([_ZERO] * k + [1])

    # -- basic queries ---------------------------------------------------------

    @property
    def deg(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> GaussianRational:
        """Coefficient of z^k (zero beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def order_at_zero(self) -> int:
        """Multiplicity of the zero at the origin (0 for p(0) != 0)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no vanishing order")
        return next(k for k, c in enumerate(self.coeffs) if c)

    def float_coeffs(self) -> tuple[complex, ...]:
        return tuple(complex(c) for c in self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return ComplexPoly([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    def __neg__(self):
        return ComplexPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ComplexPoly):
            if self.is_zero() or other.is_zero():
                return ComplexPoly.zero()
            out = [_ZERO] * (self.deg + other.deg + 1)
            terms = [(j, cb) for j, cb in enumerate(other.coeffs) if cb]
            for i, ca in enumerate(self.coeffs):
                if ca:
                    for j, cb in terms:
                        out[i + j] = out[i + j] + ca * cb
            return ComplexPoly(out)
        if isinstance(other, (GaussianRational, int, Fraction, float, complex)):
            return self * ComplexPoly.constant(other)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> "ComplexPoly":
        return ComplexPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def __eq__(self, other):
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"ComplexPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _exact_value(c) -> GaussianRational:
    """The exact value of a scalar; a float or complex is a pair of dyadic rationals."""
    if isinstance(c, complex):
        return GaussianRational(c.real, c.imag)
    return GaussianRational(c)


@dataclasses.dataclass(frozen=True)
class LacunaryPattern:
    """Allowed frequency set {0..N} minus a forbidden interior list.

    ``forbidden`` must be strictly increasing with 0 < k_1 and k_M < N; the
    endpoints 0 and N are always allowed.
    """

    N: int
    forbidden: tuple[int, ...]

    def __init__(self, N: int, forbidden: Iterable[int] = ()):
        fb = tuple(forbidden)
        if N < 1:
            raise ValueError("pattern needs N >= 1")
        if any(fb[i] >= fb[i + 1] for i in range(len(fb) - 1)):
            raise ValueError("forbidden frequencies must be strictly increasing")
        if fb and (fb[0] < 1 or fb[-1] > N - 1):
            raise ValueError("forbidden frequencies must lie strictly inside (0, N)")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "forbidden", fb)

    @property
    def M(self) -> int:
        return len(self.forbidden)

    @property
    def allowed(self) -> tuple[int, ...]:
        fb = set(self.forbidden)
        return tuple(k for k in range(self.N + 1) if k not in fb)

    def __contains__(self, k: int) -> bool:
        return 0 <= k <= self.N and k not in self.forbidden

    def to_json(self) -> dict:
        return {"N": self.N, "forbidden": list(self.forbidden)}

    @staticmethod
    def from_json(obj) -> "LacunaryPattern":
        """{"N": n, "forbidden": [k, ...]}; a ValueError names a key of the wrong shape."""
        if not isinstance(obj, dict) or not json_isinstance(obj.get("N"), int):
            raise ValueError(f'a pattern needs an integer "N", got {obj!r}')
        forbidden = obj.get("forbidden", [])
        if not json_isinstance(forbidden, list) or not all(
            json_isinstance(k, int) for k in forbidden
        ):
            raise ValueError(f'pattern "forbidden" must be a list of integers, got {forbidden!r}')
        return LacunaryPattern(obj["N"], forbidden)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_DECIMAL_RX = _re.compile(
    r"\s*[-+]?(?P<int>[\d_]*)(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?\s*"
)


def exact_decimal(text: str, position: int | None = None) -> Fraction:
    """The exact value ``Fraction(text)`` of a number literal: "0.1" is 1/10.

    A decimal literal is a :class:`ParseError` when the power of ten of its
    leading digit (its exponent, for a zero mantissa) lies beyond
    +-``_DECIMAL_EXPONENT_CAP``.  It is refused before ``Fraction`` builds
    10**exponent, which for "1e999999999" would take hours.  Every literal
    with a finite nonzero float value passes.
    """
    m = _DECIMAL_RX.fullmatch(text)
    if m and (m["frac"] is not None or m["exp"] is not None):
        whole = m["int"].replace("_", "")
        digits = whole + (m["frac"] or "").replace("_", "")
        power = int(m["exp"].replace("_", "")) if m["exp"] else 0
        if digits.strip("0"):
            power += len(whole) - 1 - (len(digits) - len(digits.lstrip("0")))
        if abs(power) > _DECIMAL_EXPONENT_CAP:
            raise ParseError(
                f"the decimal exponent of {text.strip()!r} lies beyond +-{_DECIMAL_EXPONENT_CAP}",
                position=position,
            )
    return Fraction(text)


_TOKEN_RX = _re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+)"
    r"|(?P<name>[zi])"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RX.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", position=pos)
        if m.group("num") is not None:
            lit = m.group("num")
            if _re.fullmatch(r"\d+", lit):
                try:
                    value = int(lit)
                except ValueError:  # past Python's limit on integer string conversion
                    raise ParseError(
                        f"integer literal of {len(lit)} digits is too long", position=m.start()
                    ) from None
                tokens.append(("int", value, m.start()))
            else:
                tokens.append(("dec", exact_decimal(lit, m.start()), m.start()))
        elif m.group("name") is not None:
            tokens.append((m.group("name"), None, m.start()))
        else:
            tokens.append((m.group("op"), None, m.start()))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _ExprParser:
    """Recursive-descent parser for product-of-factors polynomial expressions.

    Syntax (implicit multiplication by adjacency is allowed)::

        expr   := term (('+'|'-') term)*
        term   := unary (('*'|'/') unary | unary)*      # adjacency multiplies
        unary  := ('+'|'-') unary | power
        power  := atom ('^' integer)?
        atom   := '(' expr ')' | 'z' | 'i' | integer | decimal

    A '/' accepts only a nonzero constant divisor.  A decimal literal is the
    rational it names (``0.1`` is 1/10), so the result is always exact.
    """

    _ATOM_STARTS = {"(", "z", "i", "int", "dec"}

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self) -> ComplexPoly:
        p = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting with {kind!r}", position=pos)
        return p

    def expr(self) -> ComplexPoly:
        """The terms are summed once, over their nonzero coefficients."""
        terms = [(True, self.term())]
        while self.peek()[0] in ("+", "-"):
            terms.append((self.take()[0] == "+", self.term()))
        if len(terms) == 1:
            return terms[0][1]
        out = [_ZERO] * max(len(q.coeffs) for _, q in terms)
        for plus, q in terms:
            for k, c in enumerate(q.coeffs):
                if c:
                    out[k] = out[k] + (c if plus else -c)
        return ComplexPoly(out)

    def term(self) -> ComplexPoly:
        p = self.unary()
        while True:
            kind, _, pos = self.peek()
            if kind == "*":
                self.take()
                p = p * self.unary()
            elif kind == "/":
                self.take()
                q = self.unary()
                if q.deg > 0:
                    raise ParseError("'/' accepts only a constant divisor", position=pos)
                if q.is_zero():
                    raise ParseError("division by zero", position=pos)
                p = p * (1 / q.coefficient(0))
            elif kind in self._ATOM_STARTS:
                p = p * self.unary()
            else:
                return p

    def unary(self) -> ComplexPoly:
        kind, _, _ = self.peek()
        if kind == "+":
            self.take()
            return self.unary()
        if kind == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> ComplexPoly:
        bare_z = self.peek()[0] == "z"
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            kind, value, epos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", position=epos)
            if value > _EXPONENT_CAP:
                raise ParseError(f"exponent {value} exceeds cap {_EXPONENT_CAP}", position=epos)
            if bare_z:
                return ComplexPoly.monomial(value)
            # square-and-multiply over the exponent's bits, low bit first
            out = ComplexPoly.one()
            while value:
                if value & 1:
                    out = out * base
                value >>= 1
                if value:
                    base = base * base
            return out
        return base

    def atom(self) -> ComplexPoly:
        kind, value, pos = self.take()
        if kind == "(":
            p = self.expr()
            kind2, _, pos2 = self.take()
            if kind2 != ")":
                raise ParseError("expected ')'", position=pos2)
            return p
        if kind == "z":
            return ComplexPoly.monomial(1)
        if kind == "i":
            return ComplexPoly.constant(GaussianRational(0, 1))
        if kind in ("int", "dec"):
            return ComplexPoly.constant(value)
        raise ParseError(f"expected a value, found {kind!r}", position=pos)


def _coeff_from_json_entry(entry):
    """One coefficient from a 2-list [re, im] or 4-list [re_n, re_d, im_n, im_d]."""
    if not isinstance(entry, (list, tuple)):
        raise ParseError(f"coefficient entry must be a list, got {entry!r}")
    if not all(json_isinstance(v, (int, float)) for v in entry):
        raise ParseError(f"coefficient entry parts must be numbers, got {entry!r}")
    if len(entry) == 4:
        rn, rd, im_n, im_d = entry
        if not all(isinstance(v, int) for v in entry):
            raise ParseError("4-element coefficient entries must be integers")
        if rd == 0 or im_d == 0:
            raise ParseError(f"zero denominator in coefficient entry {entry!r}")
        return GaussianRational(Fraction(rn, rd), Fraction(im_n, im_d))
    if len(entry) == 2:
        re_v, im_v = entry
        if isinstance(re_v, int) and isinstance(im_v, int):
            return GaussianRational(re_v, im_v)
        return complex(float(re_v), float(im_v))
    raise ParseError(f"coefficient entry must have 2 or 4 elements, got {len(entry)}")


def poly_from_json(obj) -> ComplexPoly:
    """Build a polynomial from the JSON schema.

    ``{"coeffs": [[re_num, re_den, im_num, im_den], ...]}`` takes rationals;
    ``{"coeffs_f": [[re, im], ...]}`` takes doubles, each at its exact value.
    A bare list is accepted too, its float entries read the same way.  Every
    coefficient must have a finite float value: NaN, the infinities and
    numbers beyond the float range are a :class:`ParseError`.
    """
    if isinstance(obj, dict):
        for key in ("coeffs", "coeffs_f"):
            if key in obj and not isinstance(obj[key], list):
                raise ParseError(f"{key!r} must be a list of coefficient entries, got {obj[key]!r}")
        if "coeffs" in obj:
            cs = [_coeff_from_json_entry(e) for e in obj["coeffs"]]
            if not all(isinstance(c, GaussianRational) for c in cs):
                raise ParseError('"coeffs" must be exact; use "coeffs_f" for floats')
        elif "coeffs_f" in obj:
            cs = []
            for e in obj["coeffs_f"]:
                if not isinstance(e, (list, tuple)) or len(e) != 2:
                    raise ParseError('"coeffs_f" entries must be [re, im]')
                cs.append(complex(_coeff_from_json_entry(e)))
        else:
            raise ParseError('polynomial object needs a "coeffs" or "coeffs_f" key')
    elif isinstance(obj, list):
        cs = [_coeff_from_json_entry(e) for e in obj]
    else:
        raise ParseError(f"cannot build a polynomial from {type(obj).__name__}")
    return ComplexPoly(_finite(cs))


def _finite(cs: Sequence) -> Sequence:
    """cs, once every coefficient has a finite float value; the first that has
    none is a :class:`ParseError`."""
    for k, c in enumerate(cs):
        try:
            finite = cmath.isfinite(complex(c))
        except OverflowError:
            finite = False
        if not finite:
            raise ParseError(f"coefficient {k} (of z^{k}) has no finite float value")
    return cs


def poly_to_json(p: ComplexPoly) -> dict:
    # each part in lowest terms, as its Fraction view would give it
    out = []
    for c in p.coeffs:
        g, h = gcd(c._a, c._d), gcd(c._b, c._d)
        out.append([c._a // g, c._d // g, c._b // h, c._d // h])
    return {"coeffs": out}


def parse_poly(text: str) -> ComplexPoly:
    """Parse a JSON coefficient array or a factored expression.

    Every coefficient must have a finite float value: NaN, the infinities
    and numbers beyond the float range are a :class:`ParseError`.

    >>> parse_poly("(z-1/2)*(8-z^3)").coeffs[0]
    GaussianRational(Fraction(-4, 1), Fraction(0, 1))
    >>> parse_poly("[[2,0],[-3,0],[0,0],[1,0]]").deg
    3
    """
    if not isinstance(text, str):
        raise ParseError("parse_poly expects a string")
    stripped = text.strip()
    if stripped == "":
        raise ParseError("empty polynomial text")
    if stripped[0] in "[{":
        try:
            obj = json.loads(stripped)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            raise ParseError(f"invalid JSON: {exc}") from exc
        return poly_from_json(obj)
    p = _ExprParser(stripped).parse()
    _finite(p.coeffs)
    return p


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def conjugate_reciprocal(p: ComplexPoly, N: int) -> ComplexPoly:
    """z^N conj(p(1/conj(z))): coefficient k becomes conj(coefficient N-k).

    Needs deg p <= N; the result picks up a zero of order N - deg p at the
    origin.
    """
    if p.is_zero():
        raise ValueError("conjugate reciprocal of the zero polynomial is undefined")
    if p.deg > N:
        raise ValueError(f"deg p = {p.deg} exceeds N = {N}")
    return ComplexPoly([p.coefficient(N - k).conjugate() for k in range(N + 1)])


def _rref_kernel(rows: list[dict], ncols: int) -> tuple[int, list[dict]]:
    """Rank of a rational matrix and a basis of its kernel, by Gauss-Jordan
    elimination on sparse rows: ``{column: Fraction}`` maps with no zero
    entries, as the kernel vectors are, one per free column c, with a 1 at c
    (its last nonzero entry) and a 0 at every other free column.  The reduced
    echelon form is unique, so a column's pivot may be any row that holds it:
    the shortest, which adds the fewest entries to the others."""
    pending = [dict(row) for row in rows if row]
    pivots: dict[int, dict] = {}
    for c in range(ncols):
        i = min((i for i, row in enumerate(pending) if c in row), key=lambda i: len(pending[i]), default=None)
        if i is None:
            continue
        r = pending.pop(i)
        top = {j: x / r[c] for j, x in r.items()}
        for row in itertools.chain(pending, pivots.values()):
            f = row.get(c)
            if f:
                for j, x in top.items():
                    row[j] = row.get(j, 0) - f * x
                    if not row[j]:
                        del row[j]
        pivots[c] = top
    kernel = [{**{pc: -row[c] for pc, row in pivots.items() if c in row}, c: Fraction(1)}
              for c in range(ncols) if c not in pivots]
    return len(pivots), kernel


def _integer_parts(coeffs: Sequence[GaussianRational]) -> tuple[int, list[int], list[int] | None]:
    """The common denominator D of Gaussian rationals, and their real and
    imaginary parts times D; the imaginary parts are None when all are 0."""
    D = lcm(*(c._d for c in coeffs))
    re = [c._a * (D // c._d) for c in coeffs]
    return D, re, [c._b * (D // c._d) for c in coeffs] if any(c._b for c in coeffs) else None


def _pseudo_divide(a, b) -> tuple[tuple, tuple, int]:
    """(q, r, S) with S a = q b + r, S a positive integer and deg r < deg b.

    a and b are Gaussian-integer polynomials given as (real parts,
    imaginary parts or None) of ascending ints, as ``_integer_parts`` gives
    them, b's last coefficient h nonzero; q and r come back in that form,
    r with at most deg b entries.  b is first multiplied by u = conj(h), or
    by -1 when h is a negative integer, so its lead is a positive integer L.
    Each step clears the top coefficient c of the remainder r by
    r <- (L/g) r - (c/g) z^k u b with g = gcd(c, L) (W. S. Brown and
    J. F. Traub, J. ACM 18, 1971), so every scale L/g is positive and no
    Fraction is built.
    """
    (rr, ri), (br, bi) = a, b
    hr, hi = br[-1], bi[-1] if bi else 0
    if hi:
        br, bi = [x * hr + y * hi for x, y in zip(br, bi)], [y * hr - x * hi for x, y in zip(br, bi)]
    elif hr < 0:
        br, bi = [-x for x in br], None if bi is None else [-y for y in bi]
    rr, cx = list(rr), ri is not None or bi is not None
    if cx:  # a real side gets zero imaginary parts
        ri = [0] * len(rr) if ri is None else list(ri)
        bi = [0] * len(br) if bi is None else bi
    L, n = br[-1], len(br) - 1
    qr, qi, S = [], [], 1  # q from its top coefficient down, scaled as r is
    for top in range(len(rr) - 1, n - 1, -1):
        cr, ci = rr[top], ri[top] if cx else 0
        g = gcd(cr, ci, L)  # L when c = 0: a step of scale 1
        s, cr, ci, k = L // g, cr // g, ci // g, top - n
        if s != 1:
            S *= s
            rr[:top], qr = [x * s for x in rr[:top]], [x * s for x in qr]
            if cx:
                ri[:top], qi = [x * s for x in ri[:top]], [x * s for x in qi]
        qr.append(cr)
        qi.append(ci)
        if cx and (cr or ci):
            rr[k:top] = [x - cr * y + ci * w for x, y, w in zip(rr[k:top], br, bi)]
            ri[k:top] = [x - cr * w - ci * y for x, y, w in zip(ri[k:top], br, bi)]
        elif cr:
            rr[k:top] = [x - cr * y for x, y in zip(rr[k:top], br)]
    if hi:  # S a = q' (u b) + r, so q = u q'
        qr, qi = [x * hr + y * hi for x, y in zip(qr, qi)], [y * hr - x * hi for x, y in zip(qr, qi)]
    elif hr < 0:
        qr, qi = [-x for x in qr], [-y for y in qi]
    return (qr[::-1], qi[::-1] if cx else None), (rr[:n], ri[:n] if cx else None), S


def divide_exact(p: ComplexPoly, d: ComplexPoly) -> ComplexPoly:
    """Quotient p/d; a nonzero remainder raises :class:`NotDivisible`.

    A constant d is a scalar (p itself when d = 1); any other d is divided
    by ``_pseudo_divide`` on the integer parts of p and d."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if d.deg == 0:
        c = d.coeffs[0]
        return p if c == 1 else ComplexPoly([x / c for x in p.coeffs])
    Dp, *a = _integer_parts(p.coeffs)
    Dd, *b = _integer_parts(d.coeffs)
    (qr, qi), (rr, ri), S = _pseudo_divide(a, b)
    if any(rr) or any(ri or ()):
        raise NotDivisible("nonzero remainder in exact division")
    # S Dp p = q Dd d
    return ComplexPoly([_gauss(x * Dd, y * Dd, S * Dp) for x, y in zip(qr, qi or itertools.repeat(0))])


# Brown's gcd runs modulo primes l = 1 (mod 4) below 2^30, so that residues
# and their products stay small Python ints; they are found on demand.
_PRIME_LIMIT = 1 << 30
_PRIMES: list[tuple[int, int]] = []


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61, which decide every n < 2^32."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for base in (2, 7, 61):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gcd_prime(k: int) -> tuple[int, int]:
    """The k-th prime l = 1 (mod 4) below 2^30, counting down from the top,
    and a square root iota of -1 modulo l."""
    while len(_PRIMES) <= k:
        ell = _PRIMES[-1][0] - 4 if _PRIMES else _PRIME_LIMIT - 3
        while not _is_prime(ell):
            ell -= 4
        # c^((l-1)/4) squares to -1 for the least quadratic non-residue c
        c = 2
        while pow(c, (ell - 1) // 2, ell) != ell - 1:
            c += 1
        _PRIMES.append((ell, pow(c, (ell - 1) // 4, ell)))
    return _PRIMES[k]


def _image(coeffs: Sequence[GaussianRational], ell: int, root: int) -> list[int] | None:
    """Images in F_l of Gaussian rationals under i -> root, or None when l
    divides a denominator."""
    out = []
    for c in coeffs:
        x = c._a + c._b * root
        if c._d != 1:
            # l divides the common denominator d iff it divides a part's denominator
            if not c._d % ell:
                return None
            x *= pow(c._d, -1, ell)
        out.append(x % ell)
    return out


def _gcd_mod(a: list[int], b: list[int], ell: int) -> list[int]:
    """Monic gcd in F_l[z] of residue lists, a's last entry nonzero (Euclid)."""
    while b and not b[-1]:
        b.pop()
    while b:
        n, inv = len(b) - 1, pow(b[-1], -1, ell)
        for top in range(len(a) - 1, n - 1, -1):
            c = a[top] * inv % ell
            if c:
                k = top - n
                a[k:top] = [(x - c * y) % ell for x, y in zip(a[k:top], b)]
        del a[n:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    if len(a) == 1:
        return [1]
    inv = pow(a[-1], -1, ell)
    return [x * inv % ell for x in a]


def _rational(t: int, M: int, bound: int) -> tuple[int, int] | None:
    """n/d = t (mod M) with |n| <= bound and 0 < d <= bound, by the extended
    Euclid on (M, t) (rational reconstruction), or None when there is none."""
    r0, r1, s0, s1 = M, t % M, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not 0 < abs(s1) <= bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct(residues: list[int], M: int) -> tuple[list[int], int] | None:
    """Integers n_k and one denominator D with n_k / D = residues[k] (mod M).

    The denominator grows as the coefficients are read: one whose residue
    times the running D is already small needs no reconstruction.
    """
    half = M >> 1
    bound = isqrt(half)
    D, read = 1, []
    for r in residues:
        t = r * D % M
        if t > half:
            t -= M
        if abs(t) > bound:
            frac = _rational(t, M, bound)
            if frac is None:
                return None
            t, e = frac
            D *= e
        read.append((t, D))
    return [t * (D // d) for t, d in read], D


def _divides(d: Sequence[GaussianRational], p: Sequence[GaussianRational]) -> bool:
    """True when d divides p over Q(i), d's last coefficient nonzero."""
    rr, ri = _pseudo_divide(_integer_parts(p)[1:], _integer_parts(d)[1:])[1]
    return not any(rr) and not any(ri or ())


def gcd_exact(p: ComplexPoly, q: ComplexPoly) -> ComplexPoly:
    """Monic gcd over Gaussian rationals.

    Brown's modular gcd (W. S. Brown, J. ACM 18, 1971) over Q(i).  For each
    prime l = 1 (mod 4) of ``_gcd_prime`` and each square root +-iota of -1
    modulo l, a + bi -> a + b(+-iota) maps p and q into F_l[z], where Euclid
    gives a monic gcd; the two images give a coefficient's real and
    imaginary parts modulo l, and real inputs need only one.  A prime is
    used when l divides no denominator and p (the input of larger degree)
    keeps its degree.  A common factor g over Q(i) then keeps its degree
    modulo l and divides both images, so an image gcd of degree 0 proves
    gcd(p, q) = 1, and the images of the least degree are those of the
    monic g but for finitely many primes.  Those images are combined by CRT,
    the coefficients are read back by rational reconstruction, and a
    candidate is accepted only when it divides p and q exactly.  An image
    gcd of q's degree first tries monic q by one exact division.
    """
    if p.is_zero() or q.is_zero():
        if p.is_zero() and q.is_zero():
            raise ValueError("gcd of two zero polynomials is undefined")
        return _monic((q if p.is_zero() else p).coeffs)
    if p.deg < q.deg:
        p, q = q, p
    if q.deg == 0:
        return ComplexPoly.one()
    pc, qc = p.coeffs, q.coeffs
    real = not any(c._b for c in pc) and not any(c._b for c in qc)
    least, M, acc = q.deg, 1, []
    for k in itertools.count():
        ell, iota = _gcd_prime(k)
        images = []
        for root in (iota,) if real else (iota, ell - iota):
            a, b = _image(pc, ell, root), _image(qc, ell, root)
            if a is None or b is None or not a[-1]:
                break  # a guard fails: the prime is skipped
            images.append(_gcd_mod(a, b, ell))
            if len(images[-1]) == 1:
                return ComplexPoly.one()
        else:
            low, degree = min(map(len, images)) - 1, max(map(len, images)) - 1
            if low < least:
                least, M, acc = low, 1, []
            if degree > least:
                continue
            if degree == q.deg:
                if _divides(qc, pc):
                    return _monic(qc)
                least = q.deg - 1
                continue
            if real:
                mod = images[0][:-1]
            else:
                # a + b iota and a - b iota give a and b
                half = (ell + 1) // 2
                g1, g2 = images
                mod = [(x + y) * half % ell for x, y in zip(g1[:-1], g2)]
                mod += [(y - x) * iota * half % ell for x, y in zip(g1[:-1], g2)]
            if M == 1:
                acc = mod
            else:
                # CRT: x = X (mod M) and x = r (mod l)
                inv = pow(M, -1, ell)
                acc = [X + M * ((r - X) * inv % ell) for X, r in zip(acc, mod)]
            M *= ell
            read = _reconstruct(acc, M)
            if read is None:
                continue
            nums, D = read
            im = nums[degree:] if not real else [0] * degree
            cand = [_gauss(a, b, D) for a, b in zip(nums[:degree], im)] + [_gauss(1, 0, 1)]
            if _divides(cand, qc) and _divides(cand, pc):
                return ComplexPoly(cand)


def _monic(coeffs: Sequence[GaussianRational]) -> ComplexPoly:
    inv = 1 / coeffs[-1]
    return ComplexPoly([c * inv for c in coeffs])


def square_free_decomposition(p: ComplexPoly) -> list[tuple[ComplexPoly, int]]:
    """Yun decomposition [(f_i, i)] with p = lead * prod f_i^i, f_i square-free
    (D. Y. Y. Yun, SYMSAC 1976).

    The factors are monic and pairwise coprime, constants are dropped.  When
    the first gcd(p, p') is 1, p is square-free and the result is
    [(monic p, 1)] without further gcds.  Step i holds c = prod_{k >= i} f_k
    and d with d / c = sum_{k >= i} (k - i) f_k' / f_k, and splits off
    f_i = gcd(c, d).  When d = lam c' for a constant lam, the partial
    fractions sum_{k >= i} (k - i - lam) f_k' / f_k = 0 have the residue
    k - i - lam at each zero of a part f_k, so c is one part, of
    multiplicity i + lam: the step returns it as the last, with no gcd.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no square-free decomposition")
    if p.deg == 0:
        return []
    dp = p.derivative()
    g = gcd_exact(p, dp)
    if g.deg == 0:
        # square-free: the loop below would return this one monic factor
        return [(_monic(p.coeffs), 1)]
    out: list[tuple[ComplexPoly, int]] = []
    c = divide_exact(p, g)
    dc = c.derivative()
    d = divide_exact(dp, g) - dc
    i = 1
    while True:
        lam = d.coeffs[-1] / dc.coeffs[-1] if d.deg == dc.deg else 0
        if d == dc * lam:  # d = 0 (lam = 0) is the same exit
            out.append((_monic(c.coeffs), i + int(lam.real)))
            return out
        f = gcd_exact(c, d)
        if f.deg > 0:
            out.append((f, i))
        c = divide_exact(c, f)
        dc = c.derivative()
        d = divide_exact(d, f) - dc
        i += 1


def _primitive(coeffs: list[int]) -> list[int]:
    """Integer coefficients divided by their (positive) content."""
    g = gcd(*coeffs)
    return coeffs if g == 1 else [c // g for c in coeffs]


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """A primitive positive multiple of -rem(a, b), for integer a and b with
    deg a >= deg b >= 1: the pseudo-remainder is a positive multiple of
    rem(a, b)."""
    r = _pseudo_divide((a, None), (b, None))[1][0]
    while r and not r[-1]:
        r.pop()
    # negate and divide by the content in one pass
    g = -gcd(*r)
    return [x // g for x in r]


def _sturm_chain(P: Sequence[int]) -> list[list[int]]:
    """The Sturm chain P, P', -rem(P, P'), ..., gcd(P, P') of an integer P
    (ascending, the last coefficient nonzero) as a primitive pseudo-remainder
    sequence (G. E. Collins, J. ACM 1967; W. S. Brown and J. F. Traub, J. ACM
    1971): each member is a primitive positive multiple of the rational one."""
    chain = [_primitive(list(P))]
    nxt = _primitive([k * c for k, c in enumerate(chain[0]) if k])
    while nxt:  # each remainder comes primitive
        chain.append(nxt)
        nxt = _negated_remainder(chain[-2], nxt) if len(nxt) > 1 else []
    return chain


def _changes(values) -> int:
    """Sign changes in a sequence of numbers, zeros dropped."""
    signs = [x > 0 for x in values if x]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def sign_at(P: Sequence[int], x: Fraction) -> int:
    """The sign of the integer polynomial P at x = a/b, read off the integer
    b^deg P(a/b) by Horner."""
    acc, scale = 0, 1
    for c in reversed(P):
        acc, scale = acc * x.numerator + c * scale, scale * x.denominator
    return (acc > 0) - (acc < 0)


def real_root_count(P: Sequence[int]) -> tuple[int, list[int]]:
    """Distinct real roots of an integer polynomial P (``_sturm_chain``'s
    input), by the chain's signs at -infinity and +infinity, and gcd(P, P'),
    primitive with a positive lead ([1] when P is square-free).  P need not
    be square-free: dividing the chain by the gcd changes no sign pattern
    away from P's roots."""
    chain = _sturm_chain(P)
    count = _changes(q[-1] * (-1) ** (len(q) - 1) for q in chain) - _changes(q[-1] for q in chain)
    return count, chain[-1] if chain[-1][-1] > 0 else [-c for c in chain[-1]]


def real_roots(P: Sequence[int]) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]], list[int]]:
    """The distinct real roots of an integer polynomial P (``_sturm_chain``'s
    input), in increasing order: the rational ones, and intervals (a, b] that
    each hold one irrational one; with P's primitive square-free part S.

    V(a) - V(b), the drop in sign changes on S's chain, counts S's roots in
    (a, b].  (-B, B], B a power of two above the Cauchy bound, is halved
    until each interval holds one root and is shorter than 1 / |lead S|: a
    rational root's denominator divides lead S, so the one multiple of
    1 / |lead S| there is its only candidate, decided exactly."""
    chain = _sturm_chain(P)
    if len(chain[-1]) > 1:
        chain = _sturm_chain(_pseudo_divide((chain[0], None), (chain[-1], None))[0][0])
    S, L = chain[0], abs(chain[0][-1])
    B = Fraction(1 << (max(map(abs, S[:-1]), default=0) // L + 1).bit_length())

    def V(x: Fraction) -> int:
        return _changes(sign_at(q, x) for q in chain)

    todo, rational, irrational = [(-B, B, V(-B), V(B))], [], []
    while todo:  # the left half goes on top, so the roots come in order
        a, b, va, vb = todo.pop()
        if va - vb == 1 and (b - a) * L < 1:
            c = Fraction(floor(b * L), L)
            if c > a and not sign_at(S, c):
                rational.append(c)
            else:
                irrational.append((a, b))
        elif va > vb:
            m = (a + b) / 2
            vm = V(m)
            todo += [(m, b, vm, vb), (a, m, va, vm)]
    return rational, irrational, S


def spectrum(p: ComplexPoly) -> tuple[int, ...]:
    """Indices with nonzero coefficients."""
    return tuple(k for k, c in enumerate(p.coeffs) if c)


def spectrum_in(p: ComplexPoly, pattern: LacunaryPattern) -> bool:
    """True when every carried frequency of p is allowed by the pattern."""
    if p.deg > pattern.N:
        return False
    return all(k in pattern for k in spectrum(p))


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def format_poly(p: ComplexPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        s = str(c)
        if k == 0:
            parts.append(s)
        else:
            zs = "z" if k == 1 else f"z^{k}"
            parts.append(zs if s == "1" else f"({s}){zs}")
    return " + ".join(parts)
