"""Exact Gaussian-rational arithmetic: numbers a + b*i with rational a, b.

This is the only coefficient domain used on certificate-producing paths.
No verdict reads a float: `to_complex` serves only the residual that
`positivity.metric_power_root` reports for an irrational root.

A `GaussianRational` is three ints `a`, `b`, `d` meaning (a + b i)/d, kept
canonical: d > 0 and gcd(a, b, d) = 1, so equal numbers have equal triples.
Arithmetic works on the ints and reduces each result with one `math.gcd`.
`re` and `im` are read-only `Fraction` views built on every read; code on a
hot path reads the ints instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_FractionLike = (int, Fraction, str)


class GaussianRational:
    """Immutable complex number with exact rational real and imaginary parts."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        if q == s:
            self.a, self.b, self.d = p, r, q
        else:
            # lowest terms: a prime of d divides q or s to its full power, so it
            # cannot divide the numerator scaled by that part of d
            d = q // gcd(q, s) * s
            self.a, self.b, self.d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if type(value) is int:
            return _gr(value, 0, 1)
        if isinstance(value, Fraction):
            return _gr(value.numerator, 0, value.denominator)
        if isinstance(value, _FractionLike):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        return parse_scalar(text)

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic ------------------------------------------------------------
    #
    # Each result is divided by gcd(a, b, d) unless d is 1 or the result is
    # known to be in lowest terms already.

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        return _sum(self.a, self.b, self.d, other.a, other.b, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        return _sum(self.a, self.b, self.d, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not b1:
            a, b = a1 * a2, a1 * b2
        elif not b2:
            a, b = a1 * a2, b1 * a2
        else:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        d = self.d * other.d
        if d == 1:
            return _gr(a, b, 1)
        return _reduced(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2, d2 = self.a, self.b, other.a, other.b, other.d
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero GaussianRational")
            if a2 < 0:
                a2, d2 = -a2, -d2
            a, b, d = a1 * d2, b1 * d2, self.d * a2
        else:
            a = (a1 * a2 + b1 * b2) * d2
            b = (b1 * a2 - a1 * b2) * d2
            d = self.d * (a2 * a2 + b2 * b2)
        return _reduced(a, b, d)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _gr(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- comparisons / hashing ---------------------------------------------------
    #
    # Equal to the int or Fraction of the same value, and hashed like it; a str
    # is a literal to parse, not a number, so it compares as NotImplemented.

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    # -- conversion ---------------------------------------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return ratio_str(a, d)
        if not a:
            return _imag_str(b, d)
        sign = "+" if b > 0 else "-"
        return f"{ratio_str(a, d)}{sign}{_imag_str(abs(b), d)}"

    def __repr__(self):
        return f"GaussianRational('{self}')"


_new = object.__new__


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """GaussianRational from a canonical triple, skipping the checks."""
    z = _new(GaussianRational)
    z.a = a
    z.b = b
    z.d = d
    return z


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussianRational:
    """(a1 + b1 i)/d1 + (a2 + b2 i)/d2 from two canonical triples."""
    if d1 == d2:
        a, b, d = a1 + a2, b1 + b2, d1
        if d == 1:
            return _gr(a, b, 1)
    elif d1 == 1:
        # over d2 alone, and no prime of d2 divides both a2 and b2
        return _gr(a1 * d2 + a2, b1 * d2 + b2, d2)
    elif d2 == 1:
        return _gr(a1 + a2 * d1, b1 + b2 * d1, d1)
    else:
        a, b, d = a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2
    return _reduced(a, b, d)


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g == 1:
        return _gr(a, b, d)
    return _gr(a // g, b // g, d // g)


def ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _imag_str(b: int, d: int) -> str:
    if b == d:
        return "i"
    if b == -d:
        return "-i"
    return f"{ratio_str(b, d)}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def i_power(k: int) -> GaussianRational:
    """Exact value of i**k for any integer k."""
    return (ONE, I, -ONE, -I)[k % 4]


# -- scalar expression parser -----------------------------------------------------
#
# Grammar (used for coefficient literals and parameter substitution):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/')? factor)*     adjacency means multiplication
#   factor := '-' factor | atom
#   atom   := NUMBER | 'i' | NAME | '(' expr ')'
# NUMBER is an integer or integer/integer fraction literal.


class ScalarParseError(ValueError):
    pass


class InadmissibleParameters(ValueError):
    """Parameters outside a family's admissible set (`catalog`, `almost_abelian`)."""


def _tokenize(text: str):
    tokens = []
    k, m = 0, len(text)
    while k < m:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in "+-*/()":
            tokens.append((ch, ch))
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < m and text[j].isdigit():
                j += 1
            if j < m and text[j] == "/" and j + 1 < m and text[j + 1].isdigit():
                j += 1
                while j < m and text[j].isdigit():
                    j += 1
            tokens.append(("num", Fraction(text[k:j])))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < m and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[k:j]))
            k = j
            continue
        raise ScalarParseError(f"unexpected character {ch!r} at position {k}")
    return tokens


class _ScalarParser:
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.pos = 0
        self.params = params or {}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> GaussianRational:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ScalarParseError(f"trailing tokens at {self.pos}")
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "/"):
                op = self.next()[0]
                rhs = self.factor()
                value = value * rhs if op == "*" else value / rhs
            elif kind in ("num", "name", "("):
                value = value * self.factor()
            else:
                return value

    def factor(self):
        kind, val = self.peek()
        if kind == "-":
            self.next()
            return -self.factor()
        if kind == "+":
            self.next()
            return self.factor()
        return self.atom()

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return GaussianRational(val)
        if kind == "name":
            if val == "i":
                return I
            if val in self.params:
                return GaussianRational.coerce(self.params[val])
            raise ScalarParseError(f"unbound parameter {val!r}")
        if kind == "(":
            value = self.expr()
            if self.next()[0] != ")":
                raise ScalarParseError("expected ')'")
            return value
        raise ScalarParseError(f"unexpected token {val!r}")


def parse_scalar(text: str, params=None) -> GaussianRational:
    """Parse a scalar expression such as '3/2+1/2i' or 'i delta eps b'.

    Parameter names are substituted from `params` at parse time; there is no
    symbolic arithmetic.
    """
    if not isinstance(text, str):
        raise ScalarParseError(f"a scalar must be a string literal, got {text!r}")
    try:
        tokens = _tokenize(text)
        if not tokens:
            raise ScalarParseError("empty scalar expression")
        return _ScalarParser(tokens, params).parse()
    except ZeroDivisionError as exc:
        raise ScalarParseError(f"division by zero in {text!r}") from exc


def parse_fraction(text: str) -> Fraction:
    """Parse a plain rational; rejects anything with an imaginary part."""
    value = parse_scalar(text)
    if not value.is_real():
        raise ScalarParseError(f"expected a real rational, got {value}")
    return value.re


def as_fraction(x) -> Fraction:
    """A Fraction from a number, or from a rational literal such as '-3/2'."""
    return parse_fraction(x) if isinstance(x, str) else Fraction(x)


# -- JSON scalars --------------------------------------------------------------


def json_int(value, what: str) -> int:
    """An int read from JSON; floats, strings and bools are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    return value


def json_literal(value, what: str) -> str:
    """The text of a scalar literal read from JSON: a string, or an int (not a bool)."""
    if type(value) is int or isinstance(value, str):
        return str(value)
    raise ValueError(f"{what} must be a string or an int, got {value!r}")


def unexpected_fields(data: dict, read: set[str], what: str) -> list[str]:
    """One failure per key of a JSON object that its checker, which reads `read`, never reads."""
    return [f"unexpected {what} field {key!r}" for key in sorted(data.keys() - read)]


def json_rational(value, what: str) -> int | Fraction:
    """A rational read from JSON as an int or a string such as '-3/2'; a
    string of decimal digits, with or without a '-', is read by `int`."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            if value.isdecimal() or value[:1] == "-" and value[1:].isdecimal():
                return int(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{what} is not a rational: {value!r}") from exc
    raise ValueError(f"{what} must be a string or an int, got {value!r}")
