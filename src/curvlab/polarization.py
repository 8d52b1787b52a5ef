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

Families through an integer frame (N, D) from `spaces.integer_frame` stay in
integers: `expand_numerators` contracts the Python-int rows N and their
J-images directly and returns the coefficient numerators over one
denominator, and `bound_forced_identities`, linear in the coefficients,
runs on those numerators.  The CLI's `expand` goes through
`holomorphic_frame_expansion` and `complexified_frame_expansion`, the
probe's families through `expand_numerators` itself; a `Fraction` is built
only for a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .scalars import ExactComplex
from .spaces import GeometryError, require_antiholomorphic_frame, require_antiholomorphic_pair
from .tensors import (CurvatureTensor, complex_terms, polarized_coefficients,
                      polarized_numerators)


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

    def real_part(self) -> "TPolynomial":
        out = []
        for c in self.coeffs:
            out.append(c.real if isinstance(c, (ExactComplex, complex)) else c)
        return TPolynomial.of(out)

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


def expand_numerators(R: CurvatureTensor, f1: VectorFamily, f2: VectorFamily,
                      f3: VectorFamily, f4: VectorFamily, d: int) -> tuple[TPolynomial, int]:
    """(p, D): the real part of `expand`'s polynomial is p / D, for an exact
    rational R and families whose rows are Python-int numerators over one d.
    p has Python-int coefficients from one stacked integer contraction
    (`polarized_numerators`), and no `Fraction` is built.  Their common
    factor with D is divided out, which keeps the probe ladder's integers
    short."""
    coeffs, D = polarized_numerators(R, [f.terms() for f in (f1, f2, f3, f4)], d)
    g = math.gcd(D, *(re for re, _ in coeffs))
    return TPolynomial.of([re // g for re, _ in coeffs]), D // g


def holomorphic_family_expansion(R: CurvatureTensor, x, a) -> TPolynomial:
    """Numerator of H along x + t*a for an orthonormal (+,-) pair {x,a}.

    Degree 4; the constant and quartic coefficients are H(x) and H(a) (their
    normalizers are 1 for unit vectors), the odd coefficients are twice the
    mixed combinations R(x,Jx,Jx,a) + R(x,Jx,Ja,x) and its {x,a}-swapped
    mirror, and the quadratic one collects the four mixed-plane terms.
    """
    space = R.space
    require_antiholomorphic_pair(space, x, a, "holomorphic family expansion", signs=(1, -1))
    J = space.apply_J
    fx = VectorFamily.affine(x, a)
    fJ = VectorFamily.affine(J(x), J(a))
    return expand(R, fx, fJ, fJ, fx)


def complexified_family_expansion(R: CurvatureTensor, x, y) -> TPolynomial:
    """Real part of the numerator of H^C along x + i*t*y (definite metric).

    Requires an orthonormal antiholomorphic pair {x,y} of signature (+,+);
    odd coefficients vanish identically, so the result is even of degree 4.
    """
    space = R.space
    if space.is_indefinite:
        raise GeometryError("complexified family expansion is a definite-metric tool")
    require_antiholomorphic_pair(space, x, y, "complexified family expansion", signs=(1, 1))
    J = space.apply_J
    fx = VectorFamily.imaginary(x, y)
    fJ = VectorFamily.imaginary(J(x), J(y))
    return expand(R, fx, fJ, fJ, fx).real_part()


def holomorphic_frame_expansion(R: CurvatureTensor, N, D: int) -> tuple[TPolynomial, int]:
    """`holomorphic_family_expansion` on the pair N[0] / D, N[1] / D of an
    integer frame from `integer_frame` (so J is the canonical integer
    matrix), as `expand_numerators`' (p, D_p) on an exact rational R."""
    require_antiholomorphic_frame(R.space, N, D, "holomorphic family expansion",
                                  signs=(1, -1))
    (x, a), (Jx, Ja) = N, N.dot(R.space.J.T)
    fx, fJ = VectorFamily.affine(x, a), VectorFamily.affine(Jx, Ja)
    return expand_numerators(R, fx, fJ, fJ, fx, D)


def complexified_frame_expansion(R: CurvatureTensor, N, D: int) -> tuple[TPolynomial, int]:
    """`complexified_family_expansion` on an integer frame, as
    `holomorphic_frame_expansion` is `holomorphic_family_expansion`."""
    if R.space.is_indefinite:
        raise GeometryError("complexified family expansion is a definite-metric tool")
    require_antiholomorphic_frame(R.space, N, D, "complexified family expansion",
                                  signs=(1, 1))
    (x, y), (Jx, Jy) = N, N.dot(R.space.J.T)
    fx, fJ = VectorFamily.imaginary(x, y), VectorFamily.imaginary(Jx, Jy)
    return expand_numerators(R, fx, fJ, fJ, fx, D)


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
