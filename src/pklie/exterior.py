"""Sparse complex exterior algebra over a fixed (1,0)-coframe a^1..a^n.

Monomials are stored in the canonical order: holomorphic indices first
(ascending), then antiholomorphic indices (ascending).  All Koszul signs are
normalized to that order at insertion time, so term keys are unique.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .scalars import GaussianRational, ZERO, ONE, ratio_str, i_power, json_rational, parse_scalar


class MultiIndex(NamedTuple):
    """Basis monomial a^{holo} ^ conj(a)^{anti}; both index lists strictly increasing."""

    holo: tuple[int, ...]
    anti: tuple[int, ...]

    @property
    def bidegree(self) -> tuple[int, int]:
        return (len(self.holo), len(self.anti))

    @property
    def degree(self) -> int:
        return len(self.holo) + len(self.anti)


def _check_index_tuple(idx: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    t = tuple(idx)
    for a, b in zip(t, t[1:]):
        if a >= b:
            raise ValueError(f"{what} indices must be strictly increasing, got {t}")
    if t and (t[0] < 1 or t[-1] > n):
        raise ValueError(f"{what} indices out of range 1..{n}: {t}")
    return t


def _merge(u: tuple[int, ...], v: tuple[int, ...]):
    """Merge two strictly increasing tuples; return (merged, sign) or (None, 0)."""
    if not u:
        return v, 1
    if not v:
        return u, 1
    out = []
    sign = 1
    i = j = 0
    lu, lv = len(u), len(v)
    while i < lu and j < lv:
        a, b = u[i], v[j]
        if a == b:
            return None, 0
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (lu - i) % 2:
                sign = -sign
    out.extend(u[i:])
    out.extend(v[j:])
    return tuple(out), sign


class ComplexForm:
    """Sparse complex exterior form with (p,q) bookkeeping; immutable by convention."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[MultiIndex, GaussianRational] | None = None):
        if n < 0:
            raise ValueError("coframe dimension must be nonnegative")
        self.n = n
        clean: dict[MultiIndex, GaussianRational] = {}
        if terms:
            for key, value in terms.items():
                if not isinstance(key, MultiIndex):
                    key = MultiIndex(tuple(key[0]), tuple(key[1]))
                value = GaussianRational.coerce(value)
                if value.is_zero():
                    continue
                _check_index_tuple(key.holo, n, "holo")
                _check_index_tuple(key.anti, n, "anti")
                clean[key] = value
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _wrap(cls, n: int, terms: dict[MultiIndex, GaussianRational]) -> "ComplexForm":
        """Adopt terms that are canonical already: MultiIndex keys valid for n,
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
        return ComplexForm(n, {MultiIndex((), ()): GaussianRational.coerce(value)})

    # -- inspection -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, holo: Sequence[int], anti: Sequence[int] = ()) -> GaussianRational:
        return self.terms.get(MultiIndex(tuple(holo), tuple(anti)), ZERO)

    def bidegrees(self) -> set[tuple[int, int]]:
        return {key.bidegree for key in self.terms}

    def degrees(self) -> set[int]:
        return {key.degree for key in self.terms}

    def degree(self) -> int | None:
        """Total degree if homogeneous (zero form has degree None)."""
        degs = self.degrees()
        return degs.pop() if len(degs) == 1 else None

    def bidegree(self) -> tuple[int, int] | None:
        keys = iter(self.terms)
        first = next(keys, None)
        if first is None:
            return None
        h, a = len(first.holo), len(first.anti)
        for key in keys:
            if len(key.holo) != h or len(key.anti) != a:
                return None
        return (h, a)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def is_real(self) -> bool:
        return conjugate(self) == self

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].degree, kv[0]))

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other: "ComplexForm") -> "ComplexForm":
        if self.n != other.n:
            raise ValueError("coframe dimension mismatch")
        out = dict(self.terms)
        for key, value in other.terms.items():
            acc = out.get(key, ZERO) + value
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
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

    def bidegree_component(self, p: int, q: int) -> "ComplexForm":
        return bidegree_component(self, p, q)

    def __str__(self):
        return form_to_literal(self)

    def __repr__(self):
        return f"ComplexForm({self.n}, '{form_to_literal(self)}')"


def monomial(n: int, holo: Sequence[int] = (), anti: Sequence[int] = (), coeff=1) -> ComplexForm:
    return ComplexForm(n, {MultiIndex(tuple(holo), tuple(anti)): GaussianRational.coerce(coeff)})


def generator(n: int, j: int, anti: bool = False) -> ComplexForm:
    """The coframe element a^j (or its conjugate)."""
    return monomial(n, anti=(j,)) if anti else monomial(n, holo=(j,))


def wedge(f: ComplexForm, g: ComplexForm) -> ComplexForm:
    """Graded-anticommutative exterior product with exact Koszul signs."""
    if f.n != g.n:
        raise ValueError("coframe dimension mismatch")
    acc: dict[MultiIndex, GaussianRational] = {}
    for (h1, a1), c1 in f.terms.items():
        la1 = len(a1)
        for (h2, a2), c2 in g.terms.items():
            holo, sh = _merge(h1, h2)
            if holo is None:
                continue
            anti, sa = _merge(a1, a2)
            if anti is None:
                continue
            value = c1 * c2
            # move the anti block of the first factor across the holo block
            # of the second factor
            if sh * sa * (-1 if (la1 * len(h2)) % 2 else 1) < 0:
                value = -value
            key = MultiIndex(holo, anti)
            prev = acc.get(key)
            if prev is None:
                acc[key] = value
            else:
                total = prev + value
                if total:
                    acc[key] = total
                else:
                    del acc[key]
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
    acc: dict[MultiIndex, GaussianRational] = {}
    for c, f in pairs:
        if f.n != n:
            raise ValueError("coframe dimension mismatch")
        c = GaussianRational.coerce(c)
        for key, value in f.terms.items():
            total = acc.get(key, ZERO) + value * c
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
    return ComplexForm._wrap(n, acc)


def one_form(n: int, coeffs: Sequence) -> ComplexForm:
    """The 1-form sum_j coeffs[j-1] a^j over a^1..a^n."""
    return ComplexForm(n, {MultiIndex((j,), ()): c for j, c in enumerate(coeffs, start=1) if c})


def conjugate(f: ComplexForm) -> ComplexForm:
    """Complex conjugation: swaps index roles and applies the reordering sign."""
    out: dict[MultiIndex, GaussianRational] = {}
    for (holo, anti), c in f.terms.items():
        sign = -1 if (len(holo) * len(anti)) % 2 else 1
        out[MultiIndex(anti, holo)] = c.conjugate() * sign
    return ComplexForm._wrap(f.n, out)


def bidegree_component(f: ComplexForm, p: int, q: int) -> ComplexForm:
    if not (0 <= p <= f.n and 0 <= q <= f.n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={f.n}")
    return ComplexForm._wrap(f.n, {k: v for k, v in f.terms.items() if k.bidegree == (p, q)})


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
    pairs = []
    for (holo, anti), c in f.terms.items():
        factors = [holo_images[j - 1] for j in holo] + [anti_images[j - 1] for j in anti]
        pairs.append((c, wedge_all(factors, n_target)))
    return combine(n_target, pairs)


def apply_antiderivation(
    f: ComplexForm,
    d_holo: Sequence[ComplexForm],
    d_anti: Sequence[ComplexForm] | None = None,
) -> ComplexForm:
    """Extend generator differentials to f as an antiderivation of degree +1.

    d_holo[j-1] is d(a^j); d_anti defaults to the conjugates.  Since each
    generator differential is a 2-form it commutes with everything, so
    d(x_1^...^x_k) = sum_t (-1)^t d(x_t) ^ (x_1^...without t...^x_k),
    accumulated term by term with the signs of `wedge`.
    """
    if len(d_holo) != f.n:
        raise ValueError("need one differential per generator")
    if d_anti is None:
        d_anti = [conjugate(g) for g in d_holo]
    if any(g.n != f.n for g in d_holo) or any(g.n != f.n for g in d_anti):
        raise ValueError("coframe dimension mismatch")
    acc: dict[MultiIndex, GaussianRational] = {}
    for (holo, anti), c in f.terms.items():
        unit = c.a == 1 and c.d == 1 and not c.b
        # (position t, d x_t, the holo and anti slots without x_t)
        slots = [(t, d_holo[j - 1], holo[:t] + holo[t + 1 :], anti) for t, j in enumerate(holo)]
        slots += [
            (len(holo) + t, d_anti[j - 1], holo, anti[:t] + anti[t + 1 :])
            for t, j in enumerate(anti)
        ]
        for t, dgen, rest_h, rest_a in slots:
            for (h2, a2), c2 in dgen.terms.items():
                merged_h, sh = _merge(h2, rest_h)
                if merged_h is None:
                    continue
                merged_a, sa = _merge(a2, rest_a)
                if merged_a is None:
                    continue
                value = c2 if unit else c * c2
                # d x_t's anti block crosses the holo block of the rest
                if sh * sa * (-1 if (t + len(a2) * len(rest_h)) % 2 else 1) < 0:
                    value = -value
                key = MultiIndex(merged_h, merged_a)
                prev = acc.get(key)
                if prev is None:
                    acc[key] = value
                else:
                    total = prev + value
                    if total:
                        acc[key] = total
                    else:
                        del acc[key]
    return ComplexForm._wrap(f.n, acc)


def reference_volume_coefficient(n: int) -> GaussianRational:
    """Coefficient c with i a^{1,1b} ^ ... ^ i a^{n,nb} = c * a^{1..n, 1b..nb}."""
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return i_power(n) * sign


def reference_volume(n: int) -> ComplexForm:
    top = MultiIndex(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    return ComplexForm(n, {top: reference_volume_coefficient(n)})


# -- literal and JSON encodings -----------------------------------------------
#
# Compact literal: terms like "(3/2+1/2i) a12_b1" meaning (3/2+i/2) a^1^a^2^conj(a^1).
# Pure anti monomials are written "b12"; the empty monomial (a scalar term) is "1".
# Single-digit indices only; use the JSON encoding beyond n = 9.


def _monomial_token(key: MultiIndex) -> str:
    if not key.holo and not key.anti:
        return "1"
    parts = []
    if key.holo:
        parts.append("a" + "".join(str(j) for j in key.holo))
    if key.anti:
        parts.append("b" + "".join(str(j) for j in key.anti))
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
    for key, value in f.sorted_terms():
        token = _coeff_token(value) + _monomial_token(key)
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
            "holo": list(key.holo),
            "anti": list(key.anti),
        }
        for key, value in f.sorted_terms()
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
    acc: dict[MultiIndex, GaussianRational] = {}
    for item in data:
        coeff = GaussianRational(
            json_rational(item.get("re"), "term 're'"), json_rational(item.get("im"), "term 'im'")
        )
        holo = _check_index_tuple(_json_indices(item, "holo"), n, "holo")
        key = MultiIndex(holo, _check_index_tuple(_json_indices(item, "anti"), n, "anti"))
        if not coeff:
            continue
        total = acc.get(key, ZERO) + coeff
        if total:
            acc[key] = total
        else:
            del acc[key]
    return ComplexForm._wrap(n, acc)
