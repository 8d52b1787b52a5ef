"""Exact linear algebra over the rationals (and exact complex scalars).

`RowReducer` combines two representations.  Rank bookkeeping runs in reduced
row echelon form modulo a 61-bit prime, so dependent probe rows cost only
machine arithmetic.  Rows that grow the rank are also kept as gcd-normalized
integer vectors, forward-reduced against the rows already stored; the exact
nullspace then falls out by back substitution in reverse insertion order.
A row nonzero mod p is nonzero over Q, so rank can never be overcounted; a
row that is exactly independent but vanishes mod p (probability ~ ncols/p
per row) would only leave an extra nullspace direction, which the callers'
fresh-probe rechecks are designed to catch.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


class RowReducer:
    """Incremental rank tracker and exact nullspace for rational row systems.

    Independent rows are stored in one-step fraction-free (Bareiss) form:
    each new row walks the ladder of stored rows, cross-multiplying by the
    current pivot and dividing exactly by the previous one, so entries stay
    at determinant-minor size instead of cascading.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._mod_rows: list[list[int]] = []    # RREF mod p, pivots normalized to 1
        self._mod_pivots: list[int] = []
        self._rows: list[list[int]] = []        # exact Bareiss rows, insertion order
        self._pivots: list[int] = []            # leading column of each exact row

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivot_cols(self) -> list[int]:
        return sorted(self._pivots)

    def add_row(self, row) -> bool:
        """Reduce `row` against the basis; absorb it if independent."""
        if len(row) != self.ncols:
            raise ValueError(f"row has {len(row)} entries, expected {self.ncols}")
        ints = integer_row(row)
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

        erow = ints
        prev = 1
        for r, c in zip(self._rows, self._pivots):
            f = erow[c]
            pv = r[c]
            if f:
                erow = [(pv * a - f * b) // prev for a, b in zip(erow, r)]
            else:
                erow = [(pv * a) // prev for a in erow]
            prev = pv
        self._rows.append(erow)
        self._pivots.append(next(k for k, v in enumerate(erow) if v))
        return True

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the solution space of the accumulated homogeneous system.

        Each stored row vanishes at the pivots of rows inserted before it,
        so walking the rows in reverse insertion order determines one pivot
        coordinate at a time.
        """
        pivot_set = set(self._pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            x = [Fraction(0)] * self.ncols
            x[fc] = Fraction(1)
            for r, c in zip(reversed(self._rows), reversed(self._pivots)):
                s = Fraction(0)
                for k, rv in enumerate(r):
                    if rv and k != c and x[k]:
                        s += rv * x[k]
                x[c] = -s / r[c]
            basis.append(x)
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

