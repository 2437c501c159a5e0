"""Sparse complex exterior algebra over a fixed (1,0)-coframe a^1..a^n.

A monomial is keyed by a bitmask: a^j is bit j-1 and conj(a^j) bit n+j-1,
so ascending bits are the canonical order, holomorphic indices first
(ascending), then antiholomorphic indices (ascending).  All Koszul signs are
normalized to that order at insertion time, so term keys are unique.
Index tuples (`MultiIndex`) appear only at the edges: the constructor,
`coeff`, and the literal and JSON encodings.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .linalg import Vector, identity, kernel
from .scalars import GaussianRational, ZERO, ONE, ratio_str, i_power, json_rational, parse_scalar


class MultiIndex(NamedTuple):
    """Basis monomial a^{holo} ^ conj(a)^{anti}; both index lists strictly increasing."""

    holo: tuple[int, ...]
    anti: tuple[int, ...]


def _check_index_tuple(idx: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    t = tuple(idx)
    for a, b in zip(t, t[1:]):
        if a >= b:
            raise ValueError(f"{what} indices must be strictly increasing, got {t}")
    if t and (t[0] < 1 or t[-1] > n):
        raise ValueError(f"{what} indices out of range 1..{n}: {t}")
    return t


def index_mask(idx: Iterable[int]) -> int:
    """The bits j-1 for the indices j: a holomorphic index tuple as a mask."""
    return sum(1 << j - 1 for j in idx)


def indices(bits: int) -> tuple[int, ...]:
    """The 1-based positions of the set bits, ascending: inverse of `index_mask`."""
    return tuple(j for j in range(1, bits.bit_length() + 1) if bits >> j - 1 & 1)


def _key(n: int, holo: Sequence[int], anti: Sequence[int]) -> int:
    """The mask of a^holo ^ conj(a)^anti, after the index checks."""
    holo, anti = _check_index_tuple(holo, n, "holo"), _check_index_tuple(anti, n, "anti")
    return index_mask(holo) | index_mask(anti) << n


@functools.lru_cache(maxsize=None)
def multi_index(m: int, n: int) -> MultiIndex:
    return MultiIndex(indices(m & (1 << n) - 1), indices(m >> n))


def key_bidegree(m: int, n: int) -> tuple[int, int]:
    return ((m & (1 << n) - 1).bit_count(), (m >> n).bit_count())


@functools.lru_cache(maxsize=None)
def _term_key(m: int, n: int) -> tuple:
    return (m.bit_count(), *multi_index(m, n))


def term_order(n: int):
    """Sort key of masks in the canonical term order of reports: degree, then
    the holomorphic index tuple, then the antiholomorphic one."""
    return lambda m: _term_key(m, n)


def _add_term(acc: dict[int, GaussianRational], key: int, value: GaussianRational) -> None:
    """acc[key] += value; a key whose sum cancels is dropped, so it moves to
    the end if it comes back, as with repeated `+`."""
    total = acc[key] + value if key in acc else value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _swaps(u: int, v: int) -> int:
    """Parity of the pairs (bit of u, bit of v) with the bit of u the higher:
    the sign exponent of a^u ^ a^v against the mask order of u | v."""
    s = 0
    while v:
        low = v & -v
        s += (u & -(low << 1)).bit_count()
        v ^= low
    return s & 1


class ComplexForm:
    """Sparse complex exterior form with (p,q) bookkeeping; immutable by convention."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, GaussianRational] | None = None):
        """`terms` maps (holo, anti) index tuples, each strictly increasing in
        1..n, to coefficients; zero coefficients are dropped after their
        index tuples are checked."""
        if n < 0:
            raise ValueError("coframe dimension must be nonnegative")
        self.n = n
        clean: dict[int, GaussianRational] = {}
        if terms:
            for (holo, anti), value in terms.items():
                key = _key(n, holo, anti)
                value = GaussianRational.coerce(value)
                if not value.is_zero():
                    clean[key] = value
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _wrap(cls, n: int, terms: dict[int, GaussianRational]) -> "ComplexForm":
        """Adopt terms that are canonical already: masks valid for n,
        nonzero GaussianRational values.  For results of operations on forms."""
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @staticmethod
    def zero(n: int) -> "ComplexForm":
        return ComplexForm(n)

    @staticmethod
    def scalar(n: int, value) -> "ComplexForm":
        return ComplexForm(n, {((), ()): value})

    # -- inspection -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, holo: Sequence[int], anti: Sequence[int] = ()) -> GaussianRational:
        return self.terms.get(_key(self.n, holo, anti), ZERO)

    def bidegrees(self) -> set[tuple[int, int]]:
        return {key_bidegree(m, self.n) for m in self.terms}

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    def degree(self) -> int | None:
        """Total degree if homogeneous (zero form has degree None)."""
        degs = self.degrees()
        return degs.pop() if len(degs) == 1 else None

    def bidegree(self) -> tuple[int, int] | None:
        keys = iter(self.terms)
        first = next(keys, None)
        if first is None:
            return None
        n, low = self.n, (1 << self.n) - 1
        h, a = (first & low).bit_count(), (first >> n).bit_count()
        for m in keys:
            if (m & low).bit_count() != h or (m >> n).bit_count() != a:
                return None
        return (h, a)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def is_real(self) -> bool:
        return conjugate(self) == self

    def sorted_terms(self) -> list[tuple[tuple[int, ...], tuple[int, ...], GaussianRational]]:
        """(holo, anti, coefficient) per term, in the canonical order of `term_order`."""
        ordered = sorted((_term_key(m, self.n), c) for m, c in self.terms.items())
        return [(holo, anti, c) for (_, holo, anti), c in ordered]

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other: "ComplexForm") -> "ComplexForm":
        if self.n != other.n:
            raise ValueError("coframe dimension mismatch")
        out = dict(self.terms)
        for key, value in other.terms.items():
            _add_term(out, key, value)
        return ComplexForm._wrap(self.n, out)

    def __sub__(self, other: "ComplexForm") -> "ComplexForm":
        return self + (-other)

    def __neg__(self) -> "ComplexForm":
        return ComplexForm._wrap(self.n, {k: -v for k, v in self.terms.items()})

    def __mul__(self, scalar) -> "ComplexForm":
        scalar = GaussianRational.coerce(scalar)
        if scalar.is_zero():
            return ComplexForm.zero(self.n)
        return ComplexForm._wrap(self.n, {k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ComplexForm":
        return self * (ONE / GaussianRational.coerce(scalar))

    def __xor__(self, other: "ComplexForm") -> "ComplexForm":
        return wedge(self, other)

    def __eq__(self, other):
        if not isinstance(other, ComplexForm):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def conjugate(self) -> "ComplexForm":
        return conjugate(self)

    def __str__(self):
        return form_to_literal(self)

    def __repr__(self):
        return f"ComplexForm({self.n}, '{form_to_literal(self)}')"


def monomial(n: int, holo: Sequence[int] = (), anti: Sequence[int] = (), coeff=1) -> ComplexForm:
    return ComplexForm(n, {(tuple(holo), tuple(anti)): coeff})


def generator(n: int, j: int, anti: bool = False) -> ComplexForm:
    """The coframe element a^j (or its conjugate)."""
    return monomial(n, anti=(j,)) if anti else monomial(n, holo=(j,))


def wedge(f: ComplexForm, g: ComplexForm) -> ComplexForm:
    """Graded-anticommutative exterior product with exact Koszul signs."""
    if f.n != g.n:
        raise ValueError("coframe dimension mismatch")
    acc: dict[int, GaussianRational] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            if not m1 & m2:
                _add_term(acc, m1 | m2, -(c1 * c2) if _swaps(m1, m2) else c1 * c2)
    return ComplexForm._wrap(f.n, acc)


def wedge_all(forms: Iterable[ComplexForm], n: int | None = None) -> ComplexForm:
    forms = list(forms)
    if not forms:
        if n is None:
            raise ValueError("empty wedge needs an explicit coframe dimension")
        return ComplexForm.scalar(n, 1)
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def combine(n: int, pairs: Iterable[tuple[object, ComplexForm]]) -> ComplexForm:
    """sum c * f over the (c, f) pairs, accumulated in one dict.

    Keys that cancel are dropped as they cancel, so the terms come out in the
    same order as from repeated `+`.
    """
    acc: dict[int, GaussianRational] = {}
    for c, f in pairs:
        if f.n != n:
            raise ValueError("coframe dimension mismatch")
        c = GaussianRational.coerce(c)
        for key, value in f.terms.items():
            _add_term(acc, key, value * c)
    return ComplexForm._wrap(n, acc)


def one_form(n: int, coeffs: Sequence) -> ComplexForm:
    """The 1-form sum_j coeffs[j-1] a^j over a^1..a^n."""
    return ComplexForm(n, {((j,), ()): c for j, c in enumerate(coeffs, start=1) if c})


def conjugate(f: ComplexForm) -> ComplexForm:
    """Complex conjugation: swaps the two halves of each mask and applies the
    reordering sign (-1)^{|holo| |anti|}."""
    n = f.n
    out: dict[int, GaussianRational] = {}
    for m, c in f.terms.items():
        holo, anti = m & (1 << n) - 1, m >> n
        c = c.conjugate()
        out[anti | holo << n] = -c if holo.bit_count() * anti.bit_count() % 2 else c
    return ComplexForm._wrap(n, out)


def bidegree_component(f: ComplexForm, p: int, q: int) -> ComplexForm:
    if not (0 <= p <= f.n and 0 <= q <= f.n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={f.n}")
    return ComplexForm._wrap(f.n, {m: v for m, v in f.terms.items() if key_bidegree(m, f.n) == (p, q)})


def substitute(
    f: ComplexForm,
    holo_images: Sequence[ComplexForm],
    anti_images: Sequence[ComplexForm] | None = None,
    n_target: int | None = None,
) -> ComplexForm:
    """Algebra map sending a^j to holo_images[j-1] (1-forms over a new coframe).

    Conjugate generators map to anti_images (default: conjugates of the holo
    images).  Used for coframe changes, restrictions and real/complex coframe
    conversions.
    """
    if len(holo_images) != f.n:
        raise ValueError("need one image per holomorphic generator")
    if anti_images is None:
        anti_images = [conjugate(g) for g in holo_images]
    if len(anti_images) != f.n:
        raise ValueError("need one image per antiholomorphic generator")
    if n_target is None:
        n_target = holo_images[0].n if holo_images else f.n
    images = [*holo_images, *anti_images]  # per bit of a mask
    pairs = [(c, wedge_all([images[j - 1] for j in indices(m)], n_target)) for m, c in f.terms.items()]
    return combine(n_target, pairs)


def antiderivation_terms(
    m: int, parts: Sequence[Sequence[tuple[int, object]]]
) -> Iterator[tuple[int, int, object]]:
    """The terms of d(a^m) for the antiderivation of degree +1 whose generator
    at bit b has d = sum of c a^u over the (u, c) in parts[b], every u of even
    degree: yields (mask, odd, c) with the term (-1)^odd c a^mask, unsummed.

    Since each generator differential is even it commutes with everything, so
    d(x_1^...^x_k) = sum_t (-1)^t d(x_t) ^ (x_1^...without t...^x_k), in
    ascending bit order.  The coefficients are opaque: the caller scales,
    signs and sums them.
    """
    t = 0
    bits = m
    while bits:
        low = bits & -bits
        rest = m ^ low
        for u, c in parts[low.bit_length() - 1]:
            if not u & rest:
                yield u | rest, t + _swaps(u, rest) & 1, c
        bits ^= low
        t += 1


def apply_antiderivation(
    f: ComplexForm,
    d_holo: Sequence[ComplexForm],
    d_anti: Sequence[ComplexForm] | None = None,
) -> ComplexForm:
    """Extend generator differentials (2-forms) to f as an antiderivation of
    degree +1, through `antiderivation_terms`.  d_holo[j-1] is d(a^j); d_anti
    defaults to the conjugates."""
    if len(d_holo) != f.n:
        raise ValueError("need one differential per generator")
    if d_anti is None:
        d_anti = [conjugate(g) for g in d_holo]
    if any(g.n != f.n for g in d_holo) or any(g.n != f.n for g in d_anti):
        raise ValueError("coframe dimension mismatch")
    parts = [list(g.terms.items()) for g in (*d_holo, *d_anti)]
    acc: dict[int, GaussianRational] = {}
    for m, c in f.terms.items():
        unit = c.a == 1 and c.d == 1 and not c.b
        for key, odd, c2 in antiderivation_terms(m, parts):
            value = c2 if unit else c * c2
            _add_term(acc, key, -value if odd else value)
    return ComplexForm._wrap(f.n, acc)


def reference_volume_coefficient(n: int) -> GaussianRational:
    """Coefficient c with i a^{1,1b} ^ ... ^ i a^{n,nb} = c * a^{1..n, 1b..nb}."""
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return i_power(n) * sign


# -- simple (decomposable) forms ----------------------------------------------------


def divisor_space(psi: ComplexForm) -> list[Vector]:
    """(1,0)-forms phi with phi ^ psi = 0; dimension equals deg(psi) iff simple."""
    n = psi.n
    products = [wedge(monomial(n, (j,)), psi) for j in range(1, n + 1)]
    keys = sorted({key for w in products for key in w.terms}, key=term_order(n))
    if not keys:
        return identity(n)
    rows = [[w.terms.get(key, ZERO) for w in products] for key in keys]
    return kernel(rows, n)


def is_simple(psi: ComplexForm) -> bool:
    if psi.is_zero():
        return False
    bid = psi.bidegree()
    if bid is None or bid[1] != 0:
        return False
    k = bid[0]
    if len(psi.terms) == 1 or k in (0, 1, psi.n - 1, psi.n):
        return True
    return len(divisor_space(psi)) == k


# -- literal and JSON encodings -----------------------------------------------
#
# Compact literal: terms like "(3/2+1/2i) a12_b1" meaning (3/2+i/2) a^1^a^2^conj(a^1).
# Pure anti monomials are written "b12"; the empty monomial (a scalar term) is "1".
# Single-digit indices only; use the JSON encoding beyond n = 9.


def _monomial_token(holo: tuple[int, ...], anti: tuple[int, ...]) -> str:
    if not holo and not anti:
        return "1"
    parts = []
    if holo:
        parts.append("a" + "".join(str(j) for j in holo))
    if anti:
        parts.append("b" + "".join(str(j) for j in anti))
    return "_".join(parts)


def _coeff_token(c: GaussianRational) -> str:
    if c == ONE:
        return ""
    if c == -ONE:
        return "-"
    text = str(c)
    if ("+" in text[1:]) or ("-" in text[1:]):
        return f"({text}) "
    return f"{text} "


def form_to_literal(f: ComplexForm) -> str:
    if f.is_zero():
        return "0"
    chunks = []
    for holo, anti, value in f.sorted_terms():
        token = _coeff_token(value) + _monomial_token(holo, anti)
        if chunks:
            if token.startswith("-"):
                chunks.append("- " + token[1:].lstrip())
            else:
                chunks.append("+ " + token)
        else:
            chunks.append(token)
    return " ".join(chunks)


class FormParseError(ValueError):
    pass


def _parse_monomial_token(token: str) -> MultiIndex:
    holo: list[int] = []
    anti: list[int] = []
    for piece in token.split("_"):
        if not piece or piece[0] not in "ab":
            raise FormParseError(f"bad monomial token {token!r}")
        digits = piece[1:]
        if not digits.isdigit():
            raise FormParseError(f"bad monomial token {token!r}")
        target = holo if piece[0] == "a" else anti
        target.extend(int(ch) for ch in digits)
    return MultiIndex(tuple(holo), tuple(anti))


def split_terms(text: str) -> list[tuple[int, str]]:
    """Split a sum into (sign, term) pairs at the + and - outside parentheses.

    Leading signs fold into the next term's sign; an operator with no term
    after it is an error.
    """
    terms = []
    sign = 1
    current = ""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            if current.strip():
                terms.append((sign, current))
                current = ""
                sign = 1 if ch == "+" else -1
            elif ch == "-":
                sign = -sign
        else:
            current += ch
    if not current.strip():
        raise FormParseError(f"operator without a term at the end of {text!r}")
    terms.append((sign, current))
    return terms


def parse_form(text: str, n: int, params=None) -> ComplexForm:
    """Parse the compact literal syntax into a ComplexForm over a^1..a^n."""
    import re

    text = text.strip()
    if text in ("0", ""):
        return ComplexForm.zero(n)
    out = ComplexForm.zero(n)
    mono_re = re.compile(r"(?:a\d+(?:_b\d+)?|b\d+|1)\s*$")
    for sgn, chunk in split_terms(text):
        chunk = chunk.strip()
        match = mono_re.search(chunk)
        if not match:
            raise FormParseError(f"missing monomial in term {chunk!r}")
        mono_text = match.group(0).strip()
        coeff_text = chunk[: match.start()].strip()
        if mono_text == "1":
            key = MultiIndex((), ())
        else:
            key = _parse_monomial_token(mono_text)
        coeff = parse_scalar(coeff_text, params) if coeff_text else ONE
        out = out + ComplexForm(n, {key: coeff * sgn})
    return out


def form_to_json(f: ComplexForm) -> list[dict]:
    return [
        {
            "re": ratio_str(value.a, value.d),
            "im": ratio_str(value.b, value.d),
            "holo": list(holo),
            "anti": list(anti),
        }
        for holo, anti, value in f.sorted_terms()
    ]


def _json_indices(item: Mapping, name: str) -> tuple[int, ...]:
    value = item.get(name)
    if not isinstance(value, list) or not all(type(j) is int for j in value):
        raise ValueError(f"term {name!r} must be a list of ints, got {value!r}")
    return tuple(value)


def form_from_json(data: list[Mapping], n: int) -> ComplexForm:
    """Inverse of form_to_json; every term needs holo, anti, re and im."""
    if not isinstance(data, list) or not all(isinstance(item, Mapping) for item in data):
        raise ValueError("a form must be a JSON list of term objects")
    # summed in one dict, with the term order of adding the terms one by one
    acc: dict[int, GaussianRational] = {}
    for item in data:
        coeff = GaussianRational(
            json_rational(item.get("re"), "term 're'"), json_rational(item.get("im"), "term 'im'")
        )
        key = _key(n, _json_indices(item, "holo"), _json_indices(item, "anti"))
        _add_term(acc, key, coeff)
    return ComplexForm._wrap(n, acc)
