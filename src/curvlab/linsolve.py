"""Exact linear algebra over the rationals (and exact complex scalars).

`RowReducer` keeps one elimination: the offered rows in reduced row echelon
form modulo the prime p = 2^61 - 1, so rank bookkeeping and dependent probe
rows cost only machine-size integer arithmetic.  The nullspace is read off
that echelon form (each free column a unit vector, each pivot coordinate the
negated echelon entry in that column) and every entry is lifted to a
rational by rational reconstruction (Wang, Guy & Davenport 1982).

The lift is certified, not trusted.  Every offered row is kept as integers
and multiplied exactly by the lifted basis.  Rank over Q is at least rank
mod p, so nullity-mod-p independent vectors that annihilate every offered
row are a basis of the rational nullspace, and the result is exactly the
echelon basis over Q.  A row independent over Q but zero mod p (probability
about ncols/p per row), or an entry too large to reconstruct from one
residue, makes `nullspace` raise instead of returning a wrong basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

_P = (1 << 61) - 1


def integer_row(row) -> list[int]:
    """The rational row scaled to coprime integers (a zero row stays zero)."""
    lcm = 1
    for v in row:
        if isinstance(v, Fraction):
            d = v.denominator
            lcm = lcm * d // gcd(lcm, d)
    ints = [int(Fraction(v) * lcm) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
        if g == 1:
            return ints
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def rational_lift(u: int) -> Fraction:
    """The a/b with a = b*u mod p and |a|, b <= sqrt(p/2); ArithmeticError if none."""
    p = _P
    u %= p
    bound = isqrt((p - 1) // 2)
    r0, r1 = p, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        raise ArithmeticError(f"residue {u} mod {p} has no rational lift within {bound}")
    return Fraction(r1, t1)


class RowReducer:
    """Incremental rank tracker and certified exact nullspace for rational rows."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._mod_rows: list[list[int]] = []    # RREF mod p, pivots normalized to 1
        self._mod_pivots: list[int] = []
        self._offered: list[list[int]] = []     # every offered row, for the certificate

    @property
    def rank(self) -> int:
        return len(self._mod_rows)

    def add_row(self, row) -> bool:
        """Reduce `row` against the echelon form; absorb it if independent mod p."""
        if len(row) != self.ncols:
            raise ValueError(f"row has {len(row)} entries, expected {self.ncols}")
        ints = integer_row(row)
        self._offered.append(ints)
        mrow = [v % _P for v in ints]
        for r, c in zip(self._mod_rows, self._mod_pivots):
            f = mrow[c]
            if f:
                mrow = [(a - f * b) % _P for a, b in zip(mrow, r)]
        pivot = next((k for k, v in enumerate(mrow) if v), None)
        if pivot is None:
            return False
        inv = pow(mrow[pivot], _P - 2, _P)
        mrow = [(v * inv) % _P for v in mrow]
        for i, r in enumerate(self._mod_rows):
            f = r[pivot]
            if f:
                self._mod_rows[i] = [(a - f * b) % _P for a, b in zip(r, mrow)]
        self._mod_rows.append(mrow)
        self._mod_pivots.append(pivot)
        return True

    def nullspace(self) -> list[list[Fraction]]:
        """Echelon basis of the rational solution space of the offered rows.

        Raises ArithmeticError if an entry has no rational lift or the lifted
        basis fails to annihilate some offered row exactly.
        """
        pivot_set = set(self._mod_pivots)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            x = [Fraction(0)] * self.ncols
            x[fc] = Fraction(1)
            for r, c in zip(self._mod_rows, self._mod_pivots):
                if r[fc]:
                    x[c] = rational_lift(-r[fc])
            basis.append(x)
        if basis and self._offered:
            rows = np.array(self._offered, dtype=object)
            cols = np.array([integer_row(x) for x in basis], dtype=object).T
            if (rows.dot(cols) != 0).any():
                raise ArithmeticError("lifted nullspace fails the exact row certificate")
        return basis


def field_rank(rows, ncols: int) -> int:
    """Rank by plain elimination over any exact field (rational or complex)."""
    work = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [a - (f / pv) * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank
