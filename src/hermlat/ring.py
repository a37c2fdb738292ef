"""Laurent polynomials over the integers and their cyclic quotients.

The two element types here are the coefficient rings for everything else in
this package: ``LaurentPoly`` models Z[x, 1/x] with the involution x -> 1/x,
and ``CyclicElement`` models the quotient Z[x, 1/x] / (x^n - 1), i.e. the
group ring of a cyclic group of order n.  Both are immutable and exact, and
their coefficients are Python integers: the constructors reject anything else,
bools included.  Arithmetic takes two elements of the same type; an int operand
is a TypeError.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Mapping, Tuple


class LaurentPoly:
    """An element of Z[x, 1/x], stored sparsely as {exponent: coefficient}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: Dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                # an exact int passes on the first test, so rejecting bool
                # costs nothing on the ring operations' own results
                if type(e) is not int and (not isinstance(e, int) or isinstance(e, bool)):
                    raise ValueError("exponent must be an integer")
                if type(c) is not int and (not isinstance(c, int) or isinstance(c, bool)):
                    raise ValueError("coefficient must be an integer")
                if c != 0:
                    clean[e] = c
        self._terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    # -- basic protocol --------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._terms))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({format_laurent(self)!r})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: Dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    # -- the structure maps ----------------------------------------------

    def conj(self) -> "LaurentPoly":
        """The involution x -> 1/x."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    def is_self_conjugate(self) -> bool:
        return self._terms == {-e: c for e, c in self._terms.items()}

    def aug(self) -> int:
        """Augmentation: evaluate at x = 1."""
        return sum(self._terms.values())

    def reduce(self, n: int) -> "CyclicElement":
        """Reduce modulo x^n - 1."""
        if n < 1:
            raise ValueError("modulus must be >= 1")
        coeffs = [0] * n
        for e, c in self._terms.items():
            coeffs[e % n] += c
        return CyclicElement(n, coeffs)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> Dict[str, int]:
        return {str(e): self._terms[e] for e in sorted(self._terms)}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, int]) -> "LaurentPoly":
        if not isinstance(data, dict):
            raise ValueError("a Laurent polynomial must be a JSON object")
        out: Dict[int, int] = {}
        for k, v in data.items():
            # only the canonical decimal text str(e) names exponent e, so no
            # two keys share an exponent: "01", "+1", "-0", " 2 ", "1_0" and
            # non-ASCII digits are rejected
            try:
                e = int(k)
            except (TypeError, ValueError):
                raise ValueError(f"bad exponent key {k!r}") from None
            if str(e) != k:
                raise ValueError(f"bad exponent key {k!r}")
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"bad coefficient {v!r}")
            out[e] = v
        return cls(out)


def sym_power(k: int) -> LaurentPoly:
    """x^k + x^-k, the basic conjugation-invariant element (2 for k = 0)."""
    if k == 0:
        return LaurentPoly.const(2)
    return LaurentPoly({k: 1, -k: 1})


class CyclicElement:
    """An element of Z[x,1/x] / (x^n - 1), stored as n coefficients.

    Index j holds the coefficient of x^j for j in 0..n-1.
    """

    __slots__ = ("_n", "_coeffs")

    def __init__(self, n: int, coeffs: Iterable[int]):
        if n < 1:
            raise ValueError("modulus must be >= 1")
        cs = tuple(coeffs)
        if len(cs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(cs)}")
        for c in cs:  # as in LaurentPoly: exact ints pass on the first test
            if type(c) is not int and (not isinstance(c, int) or isinstance(c, bool)):
                raise ValueError("coefficient must be an integer")
        self._n = n
        self._coeffs = cs

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CyclicElement":
        return cls(n, [0] * n)

    @classmethod
    def one(cls, n: int) -> "CyclicElement":
        return cls(n, [1] + [0] * (n - 1))

    @classmethod
    def monomial(cls, n: int, exp: int, coeff: int = 1) -> "CyclicElement":
        coeffs = [0] * n
        coeffs[exp % n] = coeff
        return cls(n, coeffs)

    # -- basic protocol --------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def coeffs(self) -> Tuple[int, ...]:
        return self._coeffs

    def coeff(self, exp: int) -> int:
        return self._coeffs[exp % self._n]

    def _check(self, other: "CyclicElement") -> None:
        if self._n != other._n:
            raise ValueError("mixed moduli")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicElement):
            return NotImplemented
        return self._n == other._n and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._n, self._coeffs))

    def __repr__(self) -> str:
        return f"CyclicElement(n={self._n}, coeffs={list(self._coeffs)})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "CyclicElement":
        if not isinstance(other, CyclicElement):
            return NotImplemented
        self._check(other)
        return CyclicElement(self._n, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self) -> "CyclicElement":
        return CyclicElement(self._n, [-c for c in self._coeffs])

    def __sub__(self, other) -> "CyclicElement":
        if not isinstance(other, CyclicElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "CyclicElement":
        if not isinstance(other, CyclicElement):
            return NotImplemented
        self._check(other)
        n = self._n
        out = [0] * n
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                if b == 0:
                    continue
                k = i + j
                if k >= n:
                    k -= n
                out[k] += a * b
        return CyclicElement(n, out)

    # -- structure maps ---------------------------------------------------

    def conj(self) -> "CyclicElement":
        """The involution x -> x^(n-1) = 1/x."""
        n = self._n
        return CyclicElement(n, [self._coeffs[(-j) % n] for j in range(n)])

    def aug(self) -> int:
        return sum(self._coeffs)


# -- text syntax -----------------------------------------------------------

_TERM = re.compile(
    r"""(?P<sign>[+-])?
        (?:
            (?P<coeff>\d+)(?:\*(?P<mon_a>x(?:\^(?P<exp_a>-?\d+))?))?
          |
            (?P<mon_b>x(?:\^(?P<exp_b>-?\d+))?)
        )""",
    re.VERBOSE,
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse ``c0 + c1*x^e1 + ...`` (also bare ``x``, ``x^-k``, unary signs).

    Whitespace-insensitive.  Raises ValueError on anything else.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty polynomial")
    out: Dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at position {pos}")
        if not first and m.group("sign") is None:
            raise ValueError(f"missing + or - before position {pos} in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
        mon = m.group("mon_a") or m.group("mon_b")
        if mon is None:
            exp = 0
        else:
            raw = m.group("exp_a") or m.group("exp_b")
            exp = int(raw) if raw is not None else 1
        out[exp] = out.get(exp, 0) + sign * coeff
        pos = m.end()
        first = False
    return LaurentPoly(out)


def format_laurent(p: LaurentPoly) -> str:
    """Deterministic inverse of parse_laurent (exponents ascending)."""
    if p.is_zero():
        return "0"
    parts = []
    for e in p.support():
        c = p.coeff(e)
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
