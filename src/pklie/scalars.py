"""Exact Gaussian-rational arithmetic: numbers a + b*i with rational a, b.

This is the only coefficient domain used on certificate-producing paths.
Floats appear solely inside numeric searches and never in verdicts.
"""

from __future__ import annotations

from fractions import Fraction

_FractionLike = (int, Fraction, str)


class GaussianRational:
    """Immutable complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _FractionLike):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        return parse_scalar(text)

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ------------------------------------------------------------
    #
    # Operands with a zero imaginary part skip the products and sums that are
    # known to vanish; the results are the same numbers.

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        return _gr(self.re + other.re, self.im + other.im if other.im else self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        return _gr(self.re - other.re, self.im - other.im if other.im else self.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return _gr(a * c, a * d if d else _FZERO)
        if not d:
            return _gr(a * c, b * c)
        return _gr(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero GaussianRational")
            return _gr(self.re / other.re, self.im / other.re if self.im else _FZERO)
        d = other.re * other.re + other.im * other.im
        return _gr(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return _gr(-self.re, -self.im)

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
        return _gr(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _FractionLike):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversion ---------------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im)).lstrip('+')}"

    def __repr__(self):
        return f"GaussianRational('{self}')"


_FZERO = Fraction(0)


def _gr(re: Fraction, im: Fraction) -> GaussianRational:
    """GaussianRational from two Fractions, skipping the type checks."""
    z = object.__new__(GaussianRational)
    z.re = re
    z.im = im
    return z


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}i"


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


def parse_fraction(text) -> Fraction:
    """Parse a plain rational; rejects anything with an imaginary part."""
    value = parse_scalar(str(text))
    if not value.is_real():
        raise ScalarParseError(f"expected a real rational, got {value}")
    return value.re


# -- JSON scalars --------------------------------------------------------------


def json_int(value, what: str) -> int:
    """An int read from JSON; floats, strings and bools are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    return value


def json_rational(value, what: str) -> Fraction:
    """A rational read from JSON as an int or a string such as '-3/2'."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{what} is not a rational: {value!r}") from exc
    raise ValueError(f"{what} must be a string or an int, got {value!r}")
