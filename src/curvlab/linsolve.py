"""Exact linear algebra over the rationals (and exact complex scalars).

`RowReducer` keeps one elimination: the offered rows in reduced row echelon
form modulo three primes below 2^25, held as one int64 array of shape
(3, rank, free) on the free (non-pivot) columns; at the pivot columns the
form is the identity and is not stored.  The pivot columns are those of the
first prime; the other two primes follow them.  Rows are offered in blocks.
A block is reduced against the echelon form modulo the first prime in one
product (its coefficients are its own entries at the pivot columns), and
the rows that survive it modulo the other two in a second.  The survivors
are then eliminated among themselves in offer order, with the pivot rule of
a row-by-row elimination (the first nonzero column modulo the first prime),
so a block absorbs the rows that offering them one by one would.  The old
echelon rows take the new pivots in one product.  Every product runs in
int64: a sum of k terms below p^2 stays exact while k < 2^63 / p^2 = 8192,
which holds for the rank up to the 2211 columns of complex dimension 6, and
blocks of more rows are split.

The nullspace is read off that echelon form (each free column a unit
vector, each pivot coordinate the negated echelon entry in that column).
The three residues of every entry are combined by the Chinese remainder
theorem into one residue modulo M = p0 p1 p2 ~ 2^75, which is lifted to a
rational with numerator and denominator up to sqrt(M/2) ~ 2^37 by rational
reconstruction (Wang, Guy & Davenport 1982).  Each basis vector is returned
as one coprime integer row, its rational entries scaled by the lcm of their
denominators.

The lift is certified, not trusted.  Every offered row is kept as integers
and multiplied exactly by those integer rows (`_annihilates`).  Rank over Q is
at least rank modulo the first prime, so nullity-many independent vectors
that annihilate every offered row are a basis of the rational nullspace, and
the result is exactly the echelon basis over Q.  A row independent over Q
but dependent modulo the first prime, a pivot entry that vanishes modulo
another prime, or an entry too large to reconstruct, makes `nullspace` raise
ArithmeticError instead of returning a wrong basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

from .scalars import integerize

_PRIMES = (33554393, 33554383, 33554371)    # the three largest primes below 2^25
_LEAF_ROWS = 16            # rows eliminated one by one inside `_echelon`
_BLOCK_ROWS = 8192         # products of k rows of residues below p: k p^2 < 2^63


def integer_row(row) -> list[int]:
    """The rational row (ints, numpy ints, Fractions) scaled to coprime
    integers (a zero row stays zero)."""
    ints, _ = integerize(row)
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


def _crt_digits(residues: np.ndarray, primes) -> list[np.ndarray]:
    """Mixed-radix (Garner) digits d_j of the residues stacked along axis 0:
    the value is sum_j d_j * p_0 ... p_{j-1}, with 0 <= d_j < p_j."""
    digits = []
    for j, q in enumerate(primes):
        acc = np.zeros_like(residues[j])
        w = 1
        for d, p in zip(digits, primes):
            acc = (acc + d * w) % q
            w = w * p % q
        digits.append((residues[j] - acc) * pow(w, -1, q) % q)
    return digits


def _annihilates(blocks: list, cols: np.ndarray) -> bool:
    """Whether every integer product block . cols is exactly zero.  Its
    entries are bounded by B = ncols * max|row| * max|col|.  When 2B < 2^63
    the int64 product is exact and is read directly; otherwise it must
    vanish modulo coprime q < 2^25 whose product exceeds 2B, taken in int64
    on balanced residues (|r| <= q/2), whose partial sums stay below
    ncols * q^2 / 4 < 2^61."""
    row_max = max((int(np.abs(b).max(initial=0)) for b in blocks), default=0)
    col_max = int(np.abs(cols).max(initial=0))
    if not row_max or not col_max:
        return True
    bound = 2 * len(cols) * row_max * col_max
    if bound < 2 ** 63:
        c = cols.astype(np.int64)
        return not any(rows.astype(np.int64).dot(c).any() for rows in blocks)
    modulus = 1
    for q in range(2 ** 25 - 1, 1, -2):
        if gcd(q, modulus) == 1:
            c = ((cols + q // 2) % q - q // 2).astype(np.int64)
            for rows in blocks:
                r = ((rows + q // 2) % q - q // 2).astype(np.int64)
                if (r.dot(c) % q).any():
                    return False
            modulus *= q
            if modulus > bound:
                return True


class RowReducer:
    """Incremental rank tracker and certified exact nullspace for rational rows.

    The risk is an ArithmeticError, never a wrong basis: about 1/p ~ 2^-25
    per offered row (a row dependent modulo the first prime only, or a pivot
    vanishing modulo another prime).  `impose` offers about 70-184 rows at
    m = 3 and 199-620 at m = 4, so one of its runs raises with a chance
    below 10^-4.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._primes = _PRIMES
        self._p = np.array(_PRIMES, dtype=np.int64)[:, None, None]
        self._pivots: list[int] = []
        self._free = np.arange(ncols)            # the other columns, increasing
        # the echelon rows modulo each prime on the free columns: at the
        # pivot columns they are the identity and need not be stored
        self._ech = np.zeros((len(_PRIMES), 0, ncols), dtype=np.int64)
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

        Blocks of more than `_BLOCK_ROWS` rows are offered in parts."""
        self._offered.append(block)
        absorbed = []
        for start in range(0, len(block), _BLOCK_ROWS):
            absorbed += [start + i for i in self._absorb(block[start:start + _BLOCK_ROWS])]
        return absorbed

    def _reduce(self, block: np.ndarray, primes: slice) -> np.ndarray:
        """The rows' residues modulo the primes in the slice, reduced against
        the echelon form, on the free columns (they vanish at the pivots)."""
        p = self._p[primes]
        v = (block[None] % p).astype(np.int64)
        w = v[:, :, self._free]
        if self.rank:
            w -= np.matmul(v[:, :, self._pivots], self._ech[primes])
            w %= p
        return w

    def _absorb(self, block: np.ndarray) -> list[int]:
        """Absorb a block of at most `_BLOCK_ROWS` rows: screen it against the
        echelon form modulo the first prime, reduce the survivors modulo the
        other two, eliminate them among themselves in offer order, and fold
        their echelon form into the old rows with one product."""
        v = self._reduce(block, slice(0, 1))
        survivors = np.flatnonzero(v[0].any(axis=1))
        if not survivors.size:
            return []
        v = np.concatenate([v[:, survivors], self._reduce(block[survivors], slice(1, None))])
        kept, pivots, new = _echelon(v, self._p)     # the first survivor is kept
        ech = self._ech
        if self.rank:
            ech = (ech - np.matmul(ech[:, :, pivots], new)) % self._p
        free = np.ones(len(self._free), dtype=bool)
        free[pivots] = False
        self._ech = np.concatenate([ech, new], axis=1)[:, :, free]
        self._pivots += self._free[pivots].tolist()
        self._free = self._free[free]
        return survivors[kept].tolist()

    def nullspace(self) -> list[list[int]]:
        """Echelon basis of the rational solution space of the offered rows,
        in integer form: for each free column c (`free_columns`), the
        coprime integer row d * x of the basis vector x with x_c = 1 and 0
        at the other free columns; d = row[c] > 0 is the lcm of x's
        denominators.

        Raises ArithmeticError if an entry has no rational lift or the lifted
        basis fails to annihilate some offered row exactly.
        """
        free = self.free_columns
        basis = np.zeros((len(free), self.ncols), dtype=object)
        dens = np.ones(len(free), dtype=object)
        primes = self._primes
        residues = -self._ech % self._p
        rows, cols = np.nonzero(residues.any(axis=0))
        if rows.size:
            # each distinct residue triple is lifted once
            digits = np.stack([d[rows, cols] for d in _crt_digits(residues, primes)], axis=1)
            keys, which = np.unique(digits, axis=0, return_inverse=True)
            weights = [prod(primes[:j]) for j in range(len(primes))]
            modulus = prod(primes)
            lifts = [rational_lift(sum(d * w for d, w in zip(key, weights)), modulus)
                     for key in keys.tolist()]
            num = np.array([f.numerator for f in lifts], dtype=object)[which.ravel()]
            den = np.array([f.denominator for f in lifts], dtype=object)[which.ravel()]
            order = np.argsort(cols, kind="stable")     # the entries of one vector together
            rows, cols, num, den = rows[order], cols[order], num[order], den[order]
            starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
            dens[cols[starts]] = np.lcm.reduceat(den, starts)
            basis[cols, np.array(self._pivots)[rows]] = num * (dens[cols] // den)
        basis[np.arange(len(free)), free] = dens
        if len(free) and not _annihilates(self._offered, basis.T):
            raise ArithmeticError("lifted nullspace fails the exact row certificate")
        return basis.tolist()


def _echelon(v: np.ndarray, p: np.ndarray) -> tuple:
    """Reduced row echelon form of stacked residue rows v (one stack per
    prime in p), as `RowReducer.add_row` would build it from them one by one:
    each row in turn is reduced by the rows kept before it, and is kept with
    its first nonzero column modulo the first prime as pivot, normalized to
    1.  Returns (kept row indices, pivots, echelon rows); v is not changed.

    The two halves of a block are reduced recursively, with one product to
    reduce the second half by the first and one to reduce the first by the
    second, whose sums of fewer than 8192 terms below p^2 stay in int64.
    """
    k = v.shape[1]
    if k > _LEAF_ROWS:
        h = k // 2
        kept, pivots, top = _echelon(v[:, :h], p)
        low = v[:, h:]
        if kept:
            low = (low - np.matmul(low[:, :, pivots], top)) % p
        kept_low, pivots_low, bottom = _echelon(low, p)
        if kept_low:
            top = (top - np.matmul(top[:, :, pivots_low], bottom)) % p
        return (kept + [h + i for i in kept_low], pivots + pivots_low,
                np.concatenate([top, bottom], axis=1))
    v = v.copy()
    primes = p.ravel().tolist()
    kept, pivots = [], []
    for i in range(k):
        nonzero = v[0, i].nonzero()[0]
        if not len(nonzero):
            continue
        c = int(nonzero[0])
        inverses = [[pow(x, q - 2, q)] for x, q in zip(v[:, i, c].tolist(), primes)]
        row = v[:, i] * np.array(inverses) % p[:, 0]
        v -= v[:, :, c, None] * row[:, None]       # row i is restored below
        v[:, i] = row
        v %= p
        kept.append(i)
        pivots.append(c)
    return kept, pivots, v[:, kept]


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
