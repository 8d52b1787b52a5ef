"""Polarization along affine vector families.

The workhorse trick: substitute families like x + t*a (or x + i*t*y in the
complexification) into the four slots of a curvature tensor and read the
result as a polynomial in t.  Coefficient k collects every way of picking
the direction vector in exactly k slots, so the expansion is exact in the
rational backend and needs no symbolic algebra.

Bounded-ratio arguments reduce to divisibility by powers of sigma = 1 - t^2:
a numerator p that stays below c*sigma^m in absolute value on |t| < 1 must
be divisible by sigma^m.  `TPolynomial.sigma_form` writes p(t) as
E(sigma) + t*O(sigma); p / sigma^j takes the values E_j +- O_j at t = +-1
once E and O start at sigma^j.  Those pairs, round by round, are what
`bound_forced_identities` returns.  The rule is exact on exact coefficients;
pinching families are only bounded and probed on exact tensors.

Each pinching family is one row of `FAMILIES`: its frame signs and its
four slots.  `family_numerators` expands a row through an integer frame
(N, D) from `spaces.integer_frame` in integers, as coefficient numerators
over one denominator, on which `bound_forced_identities` (linear) runs.
`probe`, the CLI's `expand` and the definite-case bounds all go through it;
`holomorphic_family_expansion` and `complexified_family_expansion` are its
exact adapters for a rational pair.  The CLI's `expand`, the definite-case
bounds and the adapters check their frame with one function,
`require_family_frame`, on its numerators; the CLI builds a `Fraction`
only for its report.  `expand` also serves float and complex families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .scalars import integerize
from .spaces import GeometryError, require_antiholomorphic_frame
from .tensors import CurvatureTensor, _by_degree, complex_terms, polarized_coefficients


@dataclass(frozen=True)
class TPolynomial:
    """Polynomial in the family parameter t; coeffs[k] multiplies t^k."""

    coeffs: tuple

    @staticmethod
    def of(coeffs: Sequence) -> "TPolynomial":
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return TPolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def sigma_form(self) -> tuple["TPolynomial", "TPolynomial"]:
        """(E, O) with p(t) = E(sigma) + t * O(sigma), sigma = 1 - t^2.

        a_k t^k is a_k (1 - sigma)^(k // 2), times t when k is odd.  At
        t = +-1 sigma vanishes, so p(+-1) = E(0) +- O(0), and p divides by
        sigma^j exactly when E and O both start at sigma^j.
        """
        parts = []
        for half in (self.coeffs[0::2], self.coeffs[1::2]):
            out = [0] * len(half)
            for k, a in enumerate(half):
                for j in range(k + 1):
                    out[j] += (-1) ** j * math.comb(k, j) * a
            parts.append(TPolynomial.of(out))
        return tuple(parts)


@dataclass(frozen=True, eq=False)
class VectorFamily:
    """Affine family base + t * direction (direction may be imaginary)."""

    base: object                  # real vector or ComplexVector
    direction: object             # real vector, ComplexVector, or None
    imaginary_direction: bool = False

    @staticmethod
    def constant(v) -> "VectorFamily":
        return VectorFamily(v, None)

    @staticmethod
    def affine(base, direction) -> "VectorFamily":
        return VectorFamily(base, direction)

    @staticmethod
    def imaginary(base, direction) -> "VectorFamily":
        """Family base + i*t*direction, as in complexified pinching."""
        return VectorFamily(base, direction, imaginary_direction=True)

    def terms(self) -> list:
        """The `complex_terms` of base + t*direction (i*t*direction when
        imaginary): the rows one slot contributes to `expand`."""
        terms = complex_terms(self.base)
        if self.direction is not None:
            terms += complex_terms(self.direction, 1, 1 if self.imaginary_direction else 0)
        return terms


def expand(R: CurvatureTensor, f1: VectorFamily, f2: VectorFamily,
           f3: VectorFamily, f4: VectorFamily) -> TPolynomial:
    """Expand R(f1(t), f2(t), f3(t), f4(t)) into a polynomial in t.

    One stacked contraction on each slot's base and direction rows (their
    real and imaginary parts for complex families); coefficient k is the sum
    of the values of t-degree k, signed by their power of i.  Real families
    give real coefficients (`Fraction` or float), anything complex gives
    `ExactComplex` or `complex` ones.
    """
    slots = [f.terms() for f in (f1, f2, f3, f4)]
    coeffs = polarized_coefficients(R, slots)
    if all(p == 0 for terms in slots for _, _, p in terms):
        coeffs = [c.real for c in coeffs]
    return TPolynomial.of(coeffs)


@dataclass(frozen=True)
class PinchingFamily:
    """A pinching family: the signs of its orthonormal antiholomorphic frame,
    and its four slots of R from the frame rows N and their J-images NJ."""

    pattern: tuple
    slots: Callable            # (N, NJ) -> four VectorFamily slots


def _uvvu(u, v) -> tuple:
    return u, v, v, u


FAMILIES = {
    # R(u, Ju, Ju, u), u = x + t*a on a (+,-) frame (x, a): H's numerator
    "holomorphic": PinchingFamily((1, -1), lambda N, NJ: _uvvu(
        VectorFamily.affine(N[0], N[1]), VectorFamily.affine(NJ[0], NJ[1]))),
    # the same with u = x + i*t*y on a (+,+) frame (x, y): H^C's numerator
    "complexified": PinchingFamily((1, 1), lambda N, NJ: _uvvu(
        VectorFamily.imaginary(N[0], N[1]), VectorFamily.imaginary(NJ[0], NJ[1]))),
    # R(u, v, v, u), u = base + t*direction, on a frame (base, v, direction)
    "antiholomorphic": PinchingFamily((1, 1, -1), lambda N, NJ: _uvvu(
        VectorFamily.affine(N[0], N[2]), VectorFamily.constant(N[1]))),
    # R(u, Ju, Jv, v) on the same frame
    "biholomorphic": PinchingFamily((1, 1, -1), lambda N, NJ: (
        VectorFamily.affine(N[0], N[2]), VectorFamily.affine(NJ[0], NJ[2]),
        VectorFamily.constant(NJ[1]), VectorFamily.constant(N[1]))),
    # R(x, w, w, x), w = y + i*t*z on a (+,+,+) frame (x, y, z): K^C's numerator
    "complexified-antiholomorphic": PinchingFamily((1, 1, 1), lambda N, NJ: _uvvu(
        VectorFamily.constant(N[0]), VectorFamily.imaginary(N[1], N[2]))),
}


def family_numerators(R: CurvatureTensor, family: str, N, D: int) -> tuple[TPolynomial, int]:
    """(p, D_p): the real part of the numerator of `FAMILIES[family]`
    through the integer frame N / D is p / D_p, for an exact rational R and
    J.  One stacked integer contraction (`_contract_numerators`) of the
    Python-int rows and their J-images (by `J_form`), summed by t-degree
    like `polarized_coefficients`, with no `Fraction`; the coefficients'
    common factor with D_p is divided out, which keeps the probe ladder's
    integers short."""
    J = R.space.J_form
    if R.integer_form is None or J is None:
        raise GeometryError(f"{family} family expansion needs an exact rational tensor and J")
    JN, d = J
    NJ = N.dot(JN.T)
    if d != 1:                  # NJ is over D d: bring N there too
        N, D = N * d, D * d
    slots = [f.terms() for f in FAMILIES[family].slots(N, NJ)]
    values, D = R._contract_numerators([[row for row, _, _ in t] for t in slots], D ** 4)
    coeffs = _by_degree(slots, values)
    g = math.gcd(D, *(re for re, _ in coeffs))
    return TPolynomial.of([re // g for re, _ in coeffs]), D // g


def require_family_frame(R: CurvatureTensor, family: str, N, D) -> None:
    """The checks of an exact expansion of `family` on the frame N / D, in
    this order: the complexified family is a definite-metric tool, and the
    first two rows must be an orthonormal antiholomorphic pair with the
    family's signs, checked on the numerators (`require_antiholomorphic_frame`).
    The adapters, the CLI's `expand` and the definite-case bounds check here."""
    what = f"{family} family expansion"
    if family == "complexified" and R.space.is_indefinite:
        raise GeometryError(f"{what} is a definite-metric tool")
    require_antiholomorphic_frame(R.space, N, D, what, signs=FAMILIES[family].pattern[:2])


def _pair_expansion(R: CurvatureTensor, family: str, x, w) -> TPolynomial:
    """`family_numerators` on the rational pair (x, w), integerized once and
    checked by `require_family_frame`, with `Fraction` coefficients."""
    n = R.space.n
    # float vectors, and vectors of the wrong length, are checked as they
    # are; the check reports a wrong length
    form = len(x) == len(w) == n and integerize(chain(x, w))
    frame = (np.array(form[0], dtype=object).reshape(2, n), form[1]) if form else ((x, w), 1)
    require_family_frame(R, family, *frame)
    if not form:
        raise GeometryError(f"{family} family expansion needs rational vectors")
    p, D = family_numerators(R, family, *frame)
    return TPolynomial.of([Fraction(c, D) for c in p.coeffs])


def holomorphic_family_expansion(R: CurvatureTensor, x, a) -> TPolynomial:
    """Numerator of H along x + t*a for an orthonormal (+,-) pair {x,a}.

    Degree 4; the constant and quartic coefficients are H(x) and H(a) (their
    normalizers are 1 for unit vectors), the odd coefficients are twice the
    mixed combinations R(x,Jx,Jx,a) + R(x,Jx,Ja,x) and its {x,a}-swapped
    mirror, and the quadratic one collects the four mixed-plane terms.
    Exact only: a float tensor or float vectors raise GeometryError.
    """
    return _pair_expansion(R, "holomorphic", x, a)


def complexified_family_expansion(R: CurvatureTensor, x, y) -> TPolynomial:
    """Real part of the numerator of H^C along x + i*t*y (definite metric).

    Requires an orthonormal antiholomorphic pair {x,y} of signature (+,+);
    odd coefficients vanish identically, so the result is even of degree 4.
    Exact only, like `holomorphic_family_expansion`.
    """
    return _pair_expansion(R, "complexified", x, y)


def bound_forced_identities(p: TPolynomial, multiplicity: int = 2) -> list:
    """Constraint scalars forced by |p(t)| <= c*(1-t^2)^multiplicity.

    Round j = 0, 1, ... returns the values at t = +1 and t = -1 of
    p / sigma^j, which are E_j + O_j and E_j - O_j in `sigma_form`; rounds
    stop after the first nonzero pair.  The bound is compatible with p
    exactly when every returned scalar is zero.
    """
    if p.degree > 2 * multiplicity:
        raise GeometryError(
            f"degree {p.degree} exceeds the bound envelope (1-t^2)^{multiplicity}")
    E, O = (list(q.coeffs) + [0] * multiplicity for q in p.sigma_form())
    out = []
    for e, o in zip(E[:multiplicity], O):
        out += [e + o, e - o]
        if out[-2] != 0 or out[-1] != 0:
            break
    return out
