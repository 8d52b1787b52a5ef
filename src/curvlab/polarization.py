"""Polarization along affine vector families.

The workhorse trick: substitute families like x + t*a (or x + i*t*y in the
complexification) into the four slots of a curvature tensor and read the
result as a polynomial in t.  Coefficient k collects every way of picking
the direction vector in exactly k slots, so the expansion is exact in the
rational backend and needs no symbolic algebra.

Bounded-ratio arguments reduce to divisibility: a degree-4 numerator that
stays below c*(1-t^2)^2 in absolute value on |t|<1 must vanish at t = +-1,
and after dividing out (1-t^2) the quotient must vanish there again.  Those
four scalars are exactly what `bound_forced_identities` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .scalars import ExactComplex
from .spaces import GeometryError, require_antiholomorphic_pair
from .tensors import CurvatureTensor, complex_terms, polarized_coefficients


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

    def map(self, f) -> "TPolynomial":
        return TPolynomial.of([f(c) for c in self.coeffs])

    def deflate_even_root_pair(self) -> Optional["TPolynomial"]:
        """Quotient by (1 - t^2) when t = +-1 are both roots, else None.

        The zero polynomial deflates to itself.
        """
        if self(1) != 0 or self(-1) != 0:
            return None
        if self.is_zero():
            return self
        # divide by (t - 1), then (t + 1); flip sign since (1-t^2) = -(t-1)(t+1)
        cs = list(self.coeffs)
        for root in (1, -1):
            out = []
            acc = 0
            for c in reversed(cs):
                acc = acc * root + c
                out.append(acc)
            out.pop()               # remainder, zero by the root check
            out.reverse()
            cs = out
        return TPolynomial.of([-c for c in cs])


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


def bound_forced_identities(p: TPolynomial, multiplicity: int = 2) -> list:
    """Constraint scalars forced by |p(t)| <= c*(1-t^2)^multiplicity.

    Round one returns [p(1), p(-1)]; while both vanish and rounds remain,
    the quotient by (1-t^2) is checked the same way.  The bound is
    compatible with p exactly when every returned scalar is zero.
    """
    if p.degree > 2 * multiplicity:
        raise GeometryError(
            f"degree {p.degree} exceeds the bound envelope (1-t^2)^{multiplicity}")
    out = []
    current = p
    for _ in range(multiplicity):
        at1, at_1 = current(1), current(-1)
        out.extend([at1, at_1])
        if at1 != 0 or at_1 != 0:
            break
        nxt = current.deflate_even_root_pair()
        if nxt is None:
            break
        current = nxt
    return out
