"""Polynomials over Gaussian rationals or complex floats, plus frequency patterns.

Two numeric modes run through the whole package:

* ``exact``  -- coefficients are :class:`GaussianRational` (pairs of
  :class:`fractions.Fraction`); arithmetic is closed and division/gcd are
  decided exactly.
* ``float`` -- coefficients are Python ``complex``; divisibility and spectrum
  questions become tolerance questions.

A polynomial never mixes modes.  Binary operations coerce to float as soon as
one operand is float.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import re as _re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotDivisible, ParseError, UnsupportedMode

_EXPONENT_CAP = 512


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|x|^2, exactly."""
        return self.re * self.re + self.im * self.im

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.abs2()
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * o.conjugate()
        return GaussianRational(num.re / den, num.im / den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def json_isinstance(val, kind) -> bool:
    """isinstance for parsed JSON: a JSON boolean is no number, though Python's bool is an int."""
    return isinstance(val, kind) and isinstance(val, bool) == (kind is bool)


def is_exact_scalar(x) -> bool:
    """True for the scalars of exact mode: Gaussian rationals, ints, Fractions."""
    return isinstance(x, (GaussianRational, int, Fraction))


class ComplexPoly:
    """Immutable dense polynomial; the zero polynomial has an empty tuple.

    ``coeffs[k]`` is the coefficient of ``z^k``.  Trailing coefficients equal
    to zero (exact zero in both modes) are stripped, so ``deg`` is honest in
    exact mode and best-effort in float mode.
    """

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs: Sequence, mode: str | None = None):
        items = list(coeffs)
        if mode is None:
            mode = "exact" if all(is_exact_scalar(c) for c in items) else "float"
        if mode == "exact":
            items = [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in items]
        elif mode == "float":
            items = [complex(c) for c in items]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        while items and not items[-1]:
            items.pop()
        self.coeffs = tuple(items)
        self.mode = mode

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(mode: str = "exact") -> "ComplexPoly":
        return ComplexPoly([], mode=mode)

    @staticmethod
    def one(mode: str = "exact") -> "ComplexPoly":
        return ComplexPoly([1], mode=mode)

    @staticmethod
    def constant(c, mode: str | None = None) -> "ComplexPoly":
        return ComplexPoly([c], mode=mode)

    @staticmethod
    def monomial(k: int, c=1, mode: str | None = None) -> "ComplexPoly":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return ComplexPoly([0] * k + [c], mode=mode)

    # -- basic queries ---------------------------------------------------------

    @property
    def deg(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        """Coefficient of z^k (zero beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GaussianRational() if self.mode == "exact" else 0j

    def order_at_zero(self) -> int:
        """Multiplicity of the zero at the origin (0 for p(0) != 0)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no vanishing order")
        return next(k for k, c in enumerate(self.coeffs) if c)

    def to_float(self) -> "ComplexPoly":
        if self.mode == "float":
            return self
        return ComplexPoly([complex(c) for c in self.coeffs], mode="float")

    def float_coeffs(self):
        import numpy as np

        return np.array([complex(c) for c in self.coeffs], dtype=complex)

    def max_abs_coeff(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs), default=0.0)

    # -- arithmetic -------------------------------------------------------------

    def _pair(self, other: "ComplexPoly"):
        if self.mode == other.mode:
            return self, other
        return self.to_float(), other.to_float()

    def __add__(self, other):
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        a, b = self._pair(other)
        n = max(len(a.coeffs), len(b.coeffs))
        return ComplexPoly(
            [a.coefficient(k) + b.coefficient(k) for k in range(n)], mode=a.mode
        )

    def __neg__(self):
        return ComplexPoly([-c for c in self.coeffs], mode=self.mode)

    def __sub__(self, other):
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ComplexPoly):
            a, b = self._pair(other)
            if a.is_zero() or b.is_zero():
                return ComplexPoly.zero(a.mode)
            # every slot receives a product, which sets the scalar type
            out = [0] * (a.deg + b.deg + 1)
            for i, ca in enumerate(a.coeffs):
                for j, cb in enumerate(b.coeffs):
                    out[i + j] = out[i + j] + ca * cb
            return ComplexPoly(out, mode=a.mode)
        if is_exact_scalar(other) or isinstance(other, (float, complex)):
            return self * ComplexPoly.constant(other)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> "ComplexPoly":
        if self.deg <= 0:
            return ComplexPoly.zero(self.mode)
        return ComplexPoly(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))], mode=self.mode
        )

    def eval_many(self, zs):
        import numpy as np

        zs = np.asarray(zs, dtype=complex)
        acc = np.zeros_like(zs)
        for c in reversed(self.coeffs):
            acc = acc * zs + complex(c)
        return acc

    def __eq__(self, other):
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self.mode == other.mode and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.mode, self.coeffs))

    def __repr__(self):
        return f"ComplexPoly({format_poly(self)!r}, mode={self.mode!r})"

    def __str__(self):
        return format_poly(self)


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
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", position=pos)
        if m.group("num") is not None:
            lit = m.group("num")
            if _re.fullmatch(r"\d+", lit):
                tokens.append(("int", int(lit), m.start()))
            else:
                tokens.append(("dec", float(lit), m.start()))
        elif m.group("name") is not None:
            tokens.append((m.group("name"), None, m.start()))
        else:
            tokens.append((m.group("op"), None, m.start()))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _ExprParser:
    """Recursive-descent parser for product-of-factors polynomial expressions.

    Grammar (implicit multiplication by adjacency is allowed)::

        expr   := term (('+'|'-') term)*
        term   := unary (('*'|'/') unary | unary)*      # adjacency multiplies
        unary  := ('+'|'-') unary | power
        power  := atom ('^' integer)?
        atom   := '(' expr ')' | 'z' | 'i' | integer | decimal

    A '/' accepts only a nonzero constant divisor; any decimal literal flips
    the whole result to float mode.
    """

    _ATOM_STARTS = {"(", "z", "i", "int", "dec"}

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0
        self.saw_decimal = False

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
        return p.to_float() if self.saw_decimal else p

    def expr(self) -> ComplexPoly:
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

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
                c = q.coefficient(0)
                if isinstance(c, GaussianRational):
                    p = p * (GaussianRational(1) / c)
                else:
                    p = p * (1.0 / c)
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
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            kind, value, epos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", position=epos)
            if value > _EXPONENT_CAP:
                raise ParseError(f"exponent {value} exceeds cap {_EXPONENT_CAP}", position=epos)
            out = ComplexPoly.one(base.mode)
            for _ in range(value):
                out = out * base
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
        if kind == "int":
            return ComplexPoly.constant(value)
        if kind == "dec":
            self.saw_decimal = True
            return ComplexPoly.constant(complex(value), mode="float")
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

    ``{"coeffs": [[re_num, re_den, im_num, im_den], ...]}`` is exact;
    ``{"coeffs_f": [[re, im], ...]}`` is float.  A bare list is accepted too,
    exact iff every component is an integer.
    """
    if isinstance(obj, dict):
        for key in ("coeffs", "coeffs_f"):
            if key in obj and not isinstance(obj[key], list):
                raise ParseError(f"{key!r} must be a list of coefficient entries, got {obj[key]!r}")
        if "coeffs" in obj:
            cs = [_coeff_from_json_entry(e) for e in obj["coeffs"]]
            if not all(isinstance(c, GaussianRational) for c in cs):
                raise ParseError('"coeffs" must be exact; use "coeffs_f" for floats')
            return ComplexPoly(cs, mode="exact")
        if "coeffs_f" in obj:
            cs = []
            for e in obj["coeffs_f"]:
                if not isinstance(e, (list, tuple)) or len(e) != 2:
                    raise ParseError('"coeffs_f" entries must be [re, im]')
                cs.append(complex(_coeff_from_json_entry(e)))
            return ComplexPoly(cs, mode="float")
        raise ParseError('polynomial object needs a "coeffs" or "coeffs_f" key')
    if isinstance(obj, list):
        cs = [_coeff_from_json_entry(e) for e in obj]
        if all(isinstance(c, GaussianRational) for c in cs):
            return ComplexPoly(cs, mode="exact")
        return ComplexPoly([complex(c) for c in cs], mode="float")
    raise ParseError(f"cannot build a polynomial from {type(obj).__name__}")


def poly_to_json(p: ComplexPoly) -> dict:
    if p.mode == "exact":
        return {
            "coeffs": [
                [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]
                for c in p.coeffs
            ]
        }
    return {"coeffs_f": [[c.real, c.imag] for c in p.coeffs]}


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
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        p = poly_from_json(obj)
    else:
        p = _ExprParser(stripped).parse()
    for k, c in enumerate(p.coeffs):
        try:
            finite = cmath.isfinite(complex(c))
        except OverflowError:
            finite = False
        if not finite:
            raise ParseError(f"coefficient {k} (of z^{k}) has no finite float value")
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
    return ComplexPoly(
        [p.coefficient(N - k).conjugate() for k in range(N + 1)], mode=p.mode
    )


def long_division(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Quotient and remainder of num / den over ascending coefficient lists.

    Generic in the scalar type (``Fraction``, :class:`GaussianRational`,
    ``complex``); zero is tested by truthiness.  ``den`` must end in a nonzero
    coefficient.  Trailing zeros are stripped from the remainder, so an empty
    remainder means the division is exact.
    """
    rem = list(num)
    n = len(den) - 1
    lead = den[-1]
    quot = []
    for k in range(len(rem) - n - 1, -1, -1):
        c = rem[k + n] / lead
        quot.append(c)
        if c:
            for j, dj in enumerate(den):
                rem[k + j] = rem[k + j] - c * dj
    quot.reverse()
    del rem[n:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def divide_exact(p: ComplexPoly, d: ComplexPoly, tol: float = 1e-10) -> ComplexPoly:
    """Quotient p/d when the division is (tolerably) exact.

    Exact mode demands a literally zero remainder.  Float mode accepts a
    remainder of sup-norm <= tol * max(1, max|coeff of p|) and raises
    :class:`NotDivisible` otherwise.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a, b = p._pair(d)
    if a.is_zero():
        return ComplexPoly.zero(a.mode)
    if a.deg < b.deg:
        raise NotDivisible(f"degree {a.deg} cannot be divided by degree {b.deg}")
    quot, rem = long_division(a.coeffs, b.coeffs)
    if a.mode == "exact":
        if rem:
            raise NotDivisible("nonzero remainder in exact division")
    else:
        scale = max(1.0, a.max_abs_coeff())
        worst = max((abs(r) for r in rem), default=0.0)
        if worst > tol * scale:
            raise NotDivisible(
                f"remainder sup-norm {worst:.3e} exceeds {tol:.1e} * {scale:.3e}"
            )
    return ComplexPoly(quot, mode=a.mode)


def gcd_exact(p: ComplexPoly, q: ComplexPoly) -> ComplexPoly:
    """Monic gcd over Gaussian rationals (Euclid); exact mode only."""
    if p.mode != "exact" or q.mode != "exact":
        raise UnsupportedMode("gcd_exact requires exact-mode polynomials")
    a, b = p.coeffs, q.coeffs
    while b:
        a, b = b, long_division(a, b)[1]
    if not a:
        raise ValueError("gcd of two zero polynomials is undefined")
    lead = a[-1]
    return ComplexPoly([c / lead for c in a], mode="exact")


def square_free_decomposition(p: ComplexPoly) -> list[tuple[ComplexPoly, int]]:
    """Yun decomposition [(f_i, i)] with p = lead * prod f_i^i, f_i square-free.

    Exact mode only; factors are monic and pairwise coprime, constants are
    dropped.
    """
    if p.mode != "exact":
        raise UnsupportedMode("square-free decomposition requires exact mode")
    if p.is_zero():
        raise ValueError("zero polynomial has no square-free decomposition")
    if p.deg == 0:
        return []
    out: list[tuple[ComplexPoly, int]] = []
    g = gcd_exact(p, p.derivative())
    c = divide_exact(p, g)
    d = divide_exact(p.derivative(), g) - c.derivative()
    i = 1
    while c.deg > 0:
        f = gcd_exact(c, d)
        if f.deg > 0:
            out.append((f, i))
        c = divide_exact(c, f)
        d = divide_exact(d, f) - c.derivative()
        i += 1
    return out


def spectrum(p: ComplexPoly, tol: float | None = None) -> tuple[int, ...]:
    """Indices with nonzero coefficients; float mode zeroes out tiny entries."""
    if p.is_zero():
        return ()
    if p.mode == "exact":
        return tuple(k for k, c in enumerate(p.coeffs) if not c.is_zero())
    cutoff = (1e-10 if tol is None else tol) * p.max_abs_coeff()
    return tuple(k for k, c in enumerate(p.coeffs) if abs(c) > cutoff)


def spectrum_in(p: ComplexPoly, pattern: LacunaryPattern, tol: float | None = None) -> bool:
    """True when every carried frequency of p is allowed by the pattern."""
    if p.deg > pattern.N:
        return False
    return all(k in pattern for k in spectrum(p, tol=tol))


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _format_scalar(c) -> str:
    if isinstance(c, GaussianRational):
        return str(c)
    z = complex(c)
    if z.imag == 0:
        return f"{z.real:.12g}"
    if z.real == 0:
        return f"{z.imag:.12g}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"


def format_poly(p: ComplexPoly, var: str = "z") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        s = _format_scalar(c)
        if k == 0:
            parts.append(s)
        else:
            zs = var if k == 1 else f"{var}^{k}"
            parts.append(zs if s == "1" else f"({s}){zs}")
    return " + ".join(parts)
