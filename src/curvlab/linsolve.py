"""Exact linear algebra over the rationals (and exact complex scalars).

`RowReducer` keeps one elimination: the offered rows in reduced row echelon
form modulo three primes below 2^25, held as one int64 array of shape
(3, rank, ncols).  Reducing an offered row is one batched mat-vec (its
coefficients are its own entries at the pivot columns), and every product
sum stays below rank * p^2 < 2^63 for the 2211 columns of complex dimension
6.  The pivot columns are those of the first prime; the other two primes
follow them.

The nullspace is read off that echelon form (each free column a unit
vector, each pivot coordinate the negated echelon entry in that column).
The three residues of every entry are combined by the Chinese remainder
theorem into one residue modulo M = p0 p1 p2 ~ 2^75, which is lifted to a
rational with numerator and denominator up to sqrt(M/2) ~ 2^37 by rational
reconstruction (Wang, Guy & Davenport 1982).

The lift is certified, not trusted.  Every offered row is kept as integers
and multiplied exactly by the lifted basis.  Rank over Q is at least rank
modulo the first prime, so nullity-many independent vectors that annihilate
every offered row are a basis of the rational nullspace, and the result is
exactly the echelon basis over Q.  A row independent over Q but dependent
modulo the first prime, a pivot entry that vanishes modulo another prime
(either has probability about 1/p ~ 2^-25 per absorbed row), or an entry
too large to reconstruct, makes `nullspace` raise ArithmeticError instead
of returning a wrong basis.
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


class RowReducer:
    """Incremental rank tracker and certified exact nullspace for rational rows."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._primes = _PRIMES
        self._p = np.array(_PRIMES, dtype=np.int64)[:, None]
        # echelon rows modulo each prime, pivots normalized to 1; capacity doubles
        self._ech = np.zeros((len(_PRIMES), min(ncols, 16), ncols), dtype=np.int64)
        self._pivots: list[int] = []
        self._offered: list[list[int]] = []     # every offered row, for the certificate

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row) -> bool:
        """Reduce `row` against the echelon form; absorb it if independent
        modulo the first prime."""
        if len(row) != self.ncols:
            raise ValueError(f"row has {len(row)} entries, expected {self.ncols}")
        ints = integer_row(row)
        self._offered.append(ints)
        p = self._p
        v = (np.array(ints, dtype=object) % p).astype(np.int64)
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
