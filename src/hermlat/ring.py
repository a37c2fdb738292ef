"""Laurent polynomials over the integers and their reductions mod x^n - 1.

``LaurentPoly`` models Z[x, 1/x] with the involution x -> 1/x; it is the
package's one ring type.  ``LaurentPoly.reduce(n)`` is the ring map onto the
group ring Z[x, 1/x] / (x^n - 1) of a cyclic group of order n, and a
reduction is the plain tuple of its n integer coefficients, index j holding
that of x^j.  An identity over Z[C_n] is computed over Z[x, 1/x] and
reduced once.  Coefficients, exponents and moduli are Python integers: the
constructors reject anything else, bools included.  Arithmetic takes two
Laurent polynomials; an int operand is a TypeError.
"""

from __future__ import annotations

import re
from typing import Dict, Mapping, Tuple


def _int_type(t: type) -> bool:
    """Whether values of type t are integers: int and its subclasses, not
    bool.  The package's one such test; `hermlat.lattice` imports it."""
    return issubclass(t, int) and t is not bool


class LaurentPoly:
    """An element of Z[x, 1/x], stored sparsely as {exponent: coefficient}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: Dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                # an exact int passes on the first test, so rejecting bool
                # costs nothing on the ring operations' own results
                if type(e) is not int and not _int_type(type(e)):
                    raise ValueError("exponent must be an integer")
                if type(c) is not int and not _int_type(type(c)):
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
    def monomial(cls, exp: int) -> "LaurentPoly":
        return cls({exp: 1})

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

    def reduce(self, n: int) -> Tuple[int, ...]:
        """Reduce modulo x^n - 1, the ring map onto Z[C_n]: the coefficients
        of x^0, ..., x^(n-1)."""
        coeffs = [0] * _modulus(n)
        for e, c in self._terms.items():
            coeffs[e % n] += c
        return tuple(coeffs)

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
            out[e] = v
        return cls(out)  # which rejects a coefficient that is not an integer


def sym_power(k: int) -> LaurentPoly:
    """x^k + x^-k, the basic conjugation-invariant element (2 for k = 0)."""
    if k == 0:
        return LaurentPoly.const(2)
    return LaurentPoly({k: 1, -k: 1})


def _modulus(n) -> int:
    """n itself when it is a valid modulus, an int >= 1; else ValueError."""
    if not _int_type(type(n)):
        raise ValueError("modulus must be an integer")
    if n < 1:
        raise ValueError("modulus must be >= 1")
    return n


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
