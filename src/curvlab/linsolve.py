"""Exact linear algebra over the rationals (and exact complex scalars).

`RowReducer` keeps one elimination: the offered rows in reduced row echelon
form modulo three primes below 2^25, held as one int64 array of shape
(3, rank, ncols).  Reducing an offered row is one batched mat-vec (its
coefficients are its own entries at the pivot columns), and every product
sum stays below rank * p^2 < 2^63 for the 2211 columns of complex dimension
6.  The pivot columns are those of the first prime; the other two primes
follow them.  A block of rows is screened modulo the first prime in one
product, and only the rows that survive it are absorbed one by one.

The nullspace is read off that echelon form (each free column a unit
vector, each pivot coordinate the negated echelon entry in that column).
The three residues of every entry are combined by the Chinese remainder
theorem into one residue modulo M = p0 p1 p2 ~ 2^75, which is lifted to a
rational with numerator and denominator up to sqrt(M/2) ~ 2^37 by rational
reconstruction (Wang, Guy & Davenport 1982).

The lift is certified, not trusted.  Every offered row is kept as integers
and multiplied exactly by the lifted basis (`_annihilates`).  Rank over Q is
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
    """Whether every integer product block . cols is exactly zero: whether it
    vanishes modulo coprime q < 2^25 whose product exceeds twice the bound
    ncols * max|row| * max|col| on its entries.  The products run in int64
    on balanced residues (|r| <= q/2), whose partial sums stay below
    ncols * q^2 / 4 < 2^61."""
    row_max = max((int(np.abs(b).max(initial=0)) for b in blocks), default=0)
    bound = 2 * len(cols) * row_max * int(np.abs(cols).max())
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
    vanishing modulo another prime).  `impose` offers about 600 rows at
    m = 3 and 3000 at m = 4, so one of its runs raises with a chance < 10^-4.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._primes = _PRIMES
        self._p = np.array(_PRIMES, dtype=np.int64)[:, None]
        # echelon rows modulo each prime, pivots normalized to 1; capacity doubles
        self._ech = np.zeros((len(_PRIMES), min(ncols, 16), ncols), dtype=np.int64)
        self._pivots: list[int] = []
        self._offered: list[np.ndarray] = []     # every offered block, for the certificate

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row) -> bool:
        """Offer one rational row; whether it was absorbed."""
        if len(row) != self.ncols:
            raise ValueError(f"row has {len(row)} entries, expected {self.ncols}")
        return bool(self.add_rows(np.array([integer_row(row)], dtype=object)))

    def add_rows(self, block: np.ndarray) -> list[int]:
        """Offer the integer rows of a 2-D array (kept, not copied); the indices
        of those absorbed.  The block is screened against the echelon form
        modulo the first prime in one product, and the rows that survive are
        absorbed one by one."""
        self._offered.append(block)
        q = self._primes[0]
        v = (block % q).astype(np.int64)
        if self.rank:
            v = (v - v[:, self._pivots].dot(self._ech[0, :self.rank])) % q
        return [int(i) for i in np.flatnonzero(v.any(axis=1)) if self._absorb(block[i])]

    def _absorb(self, ints) -> bool:
        """Reduce one integer row modulo the three primes; absorb it if it
        is independent modulo the first."""
        p = self._p
        v = (ints % p).astype(np.int64)
        k = self.rank
        ech = self._ech[:, :k]
        if k:
            v -= np.matmul(v[:, self._pivots][:, None, :], ech)[:, 0]
            v %= p
        nonzero = np.flatnonzero(v[0])
        if not nonzero.size:
            return False
        c = int(nonzero[0])
        inv = [[pow(int(v[i, c]), q - 2, q)] for i, q in enumerate(self._primes)]
        v = v * np.array(inv, dtype=np.int64) % p
        if k:
            ech -= ech[:, :, c, None] * v[:, None, :]
            ech %= p[:, :, None]
        if k == self._ech.shape[1]:
            grown = np.zeros((len(self._primes), min(2 * k, self.ncols), self.ncols),
                             dtype=np.int64)
            grown[:, :k] = ech
            self._ech = grown
        self._ech[:, k] = v
        self._pivots.append(c)
        return True

    def nullspace(self) -> list[list[Fraction]]:
        """Echelon basis of the rational solution space of the offered rows.

        Raises ArithmeticError if an entry has no rational lift or the lifted
        basis fails to annihilate some offered row exactly.
        """
        pivot_set = set(self._pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = [[Fraction(0)] * self.ncols for _ in free]
        for x, fc in zip(basis, free):
            x[fc] = Fraction(1)
        if self.rank and free:
            primes = self._primes
            residues = -self._ech[:, :self.rank][:, :, free] % self._p[:, :, None]
            digits = _crt_digits(residues, primes)
            rows, cols = np.nonzero(np.any(residues, axis=0))
            weights = [prod(primes[:j]) for j in range(len(primes))]
            modulus = prod(primes)
            lifts: dict[int, Fraction] = {}
            values = zip(*(d[rows, cols].tolist() for d in digits))
            for i, j, ds in zip(rows.tolist(), cols.tolist(), values):
                u = sum(d * w for d, w in zip(ds, weights))
                if u not in lifts:
                    lifts[u] = rational_lift(u, modulus)
                basis[j][self._pivots[i]] = lifts[u]
        cols = np.array([integer_row(x) for x in basis], dtype=object).T
        if basis and not _annihilates(self._offered, cols):
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
