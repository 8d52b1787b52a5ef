"""Exact linear algebra over the rationals (and exact complex scalars).

`RowReducer` keeps one elimination: the offered rows in reduced row echelon
form modulo the prime p0 = 33554393 below 2^25, held as one int64 array of
shape (rank, free) on the free (non-pivot) columns; at the pivot columns
the form is the identity and is not stored.  Rows are offered in blocks.  A
block is reduced against the echelon form in one product (its coefficients
are its own entries at the pivot columns).  The survivors are then
eliminated among themselves in offer order, with the pivot rule of a
row-by-row elimination (the first nonzero column), so a block absorbs the
rows that offering them one by one would.  The old echelon rows take the
new pivots in one product.  Every product runs in int64: a sum of k terms
below p0^2 stays exact while k <= 2^63 / p0^2 = 8192.  Its k is a count of
pivots, at most the rank, so `RowReducer` refuses more than 8192 columns
(complex dimension 6 has 2211; `impose` eliminates one sign-flip class at
a time, at most 171 columns).

The nullspace is read off that echelon form (each free column a unit
vector, each pivot coordinate the negated echelon entry in that column).
Each residue is lifted to a rational with numerator and denominator up to
sqrt(p0/2) ~ 4095 by rational reconstruction (Wang, Guy & Davenport 1982),
and the lift is certified.  Every basis the catalog imposes has entries a/b
with |a|, b <= 2.  Each basis vector is returned as one coprime integer
row, its rational entries scaled by the lcm of their denominators.

The lift is certified, not trusted.  Every offered row is kept as integers
and multiplied exactly by those integer rows (`_annihilates`; int64, else
Python ints).  Rank over Q is at least rank modulo p0, so nullity-many
independent vectors that annihilate every offered row are a basis of the
rational nullspace, and the result is exactly the echelon basis over Q.  A
row independent over Q but dependent modulo p0, or an entry too large to
reconstruct from p0, makes `nullspace` raise ArithmeticError instead of
returning a wrong basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .scalars import integerize

_PRIME = 33554393          # the largest prime below 2^25
_MAX_COLS = 8192           # products of k pivots' residues below p0: k p0^2 < 2^63


def integer_row(row) -> list[int]:
    """The rational row (ints, numpy ints, Fractions) scaled to coprime
    integers (a zero row stays zero); TypeError for any other entry."""
    integer_form = integerize(row)
    if integer_form is None:
        raise TypeError("row entries must be ints or Fractions")
    ints, _ = integer_form
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def rational_lift(u: int, modulus: int) -> Fraction:
    """The a/b with a = b*u mod `modulus` and |a|, b <= sqrt(modulus/2);
    ArithmeticError if there is none."""
    u %= modulus
    bound = isqrt((modulus - 1) // 2)
    r0, r1 = modulus, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        raise ArithmeticError(f"residue {u} mod {modulus} has no rational lift within {bound}")
    return Fraction(r1, t1)


def _annihilates(blocks: list, cols: np.ndarray) -> bool:
    """Whether every integer product block . cols is exactly zero: one int64
    product per block when its entries' bound ncols * max|row| * max|col|
    is below 2^63, else the product in Python ints."""
    row_max = max((int(np.abs(b).max(initial=0)) for b in blocks), default=0)
    col_max = int(np.abs(cols).max(initial=0))
    dtype = np.int64 if len(cols) * row_max * col_max < 2 ** 63 else object
    c = cols.astype(dtype)
    return not any(rows.astype(dtype).dot(c).any() for rows in blocks)


class RowReducer:
    """Incremental rank tracker and certified exact nullspace for rational rows.

    The risk is an ArithmeticError, never a wrong basis: about 1/p0 ~ 2^-25
    per offered row (a row dependent modulo p0 only).  `impose` offers
    106-275 class parts at m = 3, 387-1232 at m = 4 and at most 9033 at
    m = 6 (`closure.close`), so one of its runs raises with a chance below
    3 * 10^-4.
    """

    def __init__(self, ncols: int):
        if ncols > _MAX_COLS:
            raise ValueError(f"{ncols} columns, at most {_MAX_COLS} are supported")
        self.ncols = ncols
        self._p = _PRIME
        self._pivots: list[int] = []
        self._free = np.arange(ncols)            # the other columns, increasing
        # the echelon rows modulo p0 on the free columns: at the pivot
        # columns they are the identity and need not be stored
        self._ech = np.zeros((0, ncols), dtype=np.int64)
        self._offered: list[np.ndarray] = []     # every offered block, for the certificate

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def free_columns(self) -> list[int]:
        """The non-pivot columns, in increasing order: one per nullspace vector."""
        return self._free.tolist()

    def add_row(self, row) -> bool:
        """Offer one rational row; whether it was absorbed."""
        if len(row) != self.ncols:
            raise ValueError(f"row has {len(row)} entries, expected {self.ncols}")
        return bool(self.add_rows(np.array([integer_row(row)], dtype=object)))

    def add_rows(self, block: np.ndarray) -> list[int]:
        """Offer the integer rows of a 2-D array (kept, not copied); the indices
        of those absorbed, which are those `add_row` would absorb one by one.

        The array must have `ncols` columns and dtype int64, or object
        holding Python ints (its entries are not inspected); ValueError or
        TypeError otherwise."""
        if not isinstance(block, np.ndarray) or block.dtype not in (np.int64, object):
            raise TypeError("rows must be an int64 or object array of integers")
        if block.ndim != 2 or block.shape[1] != self.ncols:
            raise ValueError(f"rows have shape {block.shape}, expected (k, {self.ncols})")
        absorbed = self._absorb(block)
        self._offered.append(block)
        return absorbed

    def _reduce(self, block: np.ndarray) -> np.ndarray:
        """The rows' residues modulo p0, reduced against the echelon form, on
        the free columns (they vanish at the pivots)."""
        p = self._p
        v = (block % p).astype(np.int64)
        w = v[:, self._free]
        if self.rank:
            w -= v[:, self._pivots].dot(self._ech)
            w %= p
        return w

    def _absorb(self, block: np.ndarray) -> list[int]:
        """Absorb a block of rows: reduce it against the echelon form,
        eliminate the survivors among themselves in offer order, and fold
        their echelon form into the old rows with one product."""
        v = self._reduce(block)
        survivors = np.flatnonzero(v.any(axis=1))
        if not survivors.size:
            return []
        kept, pivots, new = _echelon(v[survivors], self._p)     # the first survivor is kept
        ech = self._ech
        if self.rank:
            ech = (ech - ech[:, pivots].dot(new)) % self._p
        free = np.ones(len(self._free), dtype=bool)
        free[pivots] = False
        self._ech = np.concatenate([ech, new])[:, free]
        self._pivots += self._free[pivots].tolist()
        self._free = self._free[free]
        return survivors[kept].tolist()

    def nullspace(self) -> list[list[int]]:
        """Echelon basis of the rational solution space of the offered rows,
        in integer form: for each free column c (`free_columns`), the
        coprime integer row d * x of the basis vector x with x_c = 1 and 0
        at the other free columns; d = row[c] > 0 is the lcm of x's
        denominators.

        The entries are lifted from p0 (numerators and denominators up to
        sqrt(p0/2) ~ 4095) and certified.  Raises ArithmeticError if an
        entry has no rational lift or the lifted basis fails to annihilate
        some offered row exactly.
        """
        p = self._p
        free = self.free_columns
        basis = np.zeros((len(free), self.ncols), dtype=object)
        dens = np.ones(len(free), dtype=object)
        residues = -self._ech % p
        rows, cols = np.nonzero(residues)
        if rows.size:
            # each distinct residue is lifted once
            keys, which = np.unique(residues[rows, cols], return_inverse=True)
            lifts = [rational_lift(u, p) for u in keys.tolist()]
            num = np.array([f.numerator for f in lifts], dtype=object)[which]
            den = np.array([f.denominator for f in lifts], dtype=object)[which]
            order = np.argsort(cols, kind="stable")     # the entries of one vector together
            rows, cols, num, den = rows[order], cols[order], num[order], den[order]
            starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
            dens[cols[starts]] = np.lcm.reduceat(den, starts)
            basis[cols, np.array(self._pivots)[rows]] = num * (dens[cols] // den)
        basis[np.arange(len(free)), free] = dens
        if len(free) and not _annihilates(self._offered, basis.T):
            raise ArithmeticError("lifted nullspace fails the exact row certificate")
        return basis.tolist()


def _echelon(v: np.ndarray, p: int) -> tuple:
    """Reduced row echelon form of residue rows v modulo the prime p, as
    `RowReducer.add_row` would build it from them one by one: each row in
    turn is reduced by the rows kept before it, and is kept with its first
    nonzero column as pivot, normalized to 1.  Returns (kept row indices,
    pivots, echelon rows); v is not changed.
    """
    v = v.copy()
    kept, pivots = [], []
    for i in range(len(v)):
        nonzero = v[i].nonzero()[0]
        if not len(nonzero):
            continue
        c = int(nonzero[0])
        row = v[i] * pow(int(v[i, c]), p - 2, p) % p
        v -= v[:, c, None] * row                   # row i is restored below
        v[i] = row
        v %= p
        kept.append(i)
        pivots.append(c)
    return kept, pivots, v[kept]


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
