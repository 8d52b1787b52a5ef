"""Exact curvature algebra written apart from curvlab, used to check its answers.

Everything here works on plain Python integers and Fractions: the metric
diag(-1 x 2s, +1 x 2(m-s)), the canonical complex structure J (e_2b -> e_2b+1
-> -e_2b, 0-based), curvature tensors as sparse integer numerators over one
common denominator, and the tensor documents the benchmark hands to the
program.  Nothing in this module imports curvlab.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd


def metric_signs(m: int, s: int) -> tuple:
    return (-1,) * (2 * s) + (1,) * (2 * (m - s))


def inner(signs, u, v):
    return sum(e * a * b for e, a, b in zip(signs, u, v))


def apply_J(u) -> list:
    out = [0] * len(u)
    for b in range(len(u) // 2):
        out[2 * b + 1] = u[2 * b]
        out[2 * b] = -u[2 * b + 1]
    return out


def add(u, v) -> list:
    return [a + b for a, b in zip(u, v)]


def _integerize(vec):
    """(integer coordinates, common denominator) of a rational vector."""
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in fr], den


class Tensor:
    """Rank-4 tensor over R^n: sparse integer numerators over one denominator."""

    def __init__(self, m: int, s: int, comps: dict):
        self.m, self.s, self.n = m, s, 2 * m
        self.signs = metric_signs(m, s)
        nonzero = {k: Fraction(v) for k, v in comps.items() if v}
        den = 1
        for v in nonzero.values():
            den = den * v.denominator // gcd(den, v.denominator)
        self.den = den
        self.num = {k: int(v * den) for k, v in nonzero.items()}

    def comps(self) -> dict:
        return {k: Fraction(v, self.den) for k, v in self.num.items()}

    def __add__(self, other: "Tensor") -> "Tensor":
        out = self.comps()
        for k, v in other.comps().items():
            out[k] = out.get(k, 0) + v
        return Tensor(self.m, self.s, out)

    def scaled(self, c) -> "Tensor":
        return Tensor(self.m, self.s, {k: c * v for k, v in self.comps().items()})

    def max_abs(self) -> Fraction:
        return max((abs(v) for v in self.comps().values()), default=Fraction(0))

    def eval(self, x, y, z, w) -> Fraction:
        """Exact R(x, y, z, w) by the defining sum over components."""
        (xi, dx), (yi, dy), (zi, dz), (wi, dw) = (_integerize(v) for v in (x, y, z, w))
        acc = 0
        for (i, j, k, l), r in self.num.items():
            a = xi[i]
            if a:
                b = yi[j]
                if b:
                    c = zi[k]
                    if c:
                        acc += r * a * b * c * wi[l]
        return Fraction(acc, self.den * dx * dy * dz * dw)

    def symmetry_defects(self) -> list:
        """Names of violated curvature symmetries (empty for a curvature tensor)."""
        c = self.num
        bad = []
        for (i, j, k, l), v in c.items():
            if c.get((j, i, k, l), 0) != -v:
                bad.append("antisym-12")
            if c.get((i, j, l, k), 0) != -v:
                bad.append("antisym-34")
            if c.get((k, l, i, j), 0) != v:
                bad.append("pair-exchange")
            if v + c.get((j, k, i, l), 0) + c.get((k, i, j, l), 0) != 0:
                bad.append("bianchi")
        return sorted(set(bad))

    def sectional(self, u, v) -> Fraction:
        """K(span{u, v}) = R(u,v,v,u) / (g(u,u) g(v,v) - g(u,v)^2)."""
        g = self.signs
        den = inner(g, u, u) * inner(g, v, v) - inner(g, u, v) ** 2
        return self.eval(u, v, v, u) / den

    def holomorphic(self, x) -> Fraction:
        return self.sectional(x, apply_J(x))

    def biholomorphic_normalized(self, x, y) -> Fraction:
        g = self.signs
        return self.eval(x, apply_J(x), apply_J(y), y) / (inner(g, x, x) * inner(g, y, y))


def _dense_comps(n: int, f) -> dict:
    return {(i, j, k, l): f(i, j, k, l)
            for i in range(n) for j in range(n) for k in range(n) for l in range(n)}


def constant_curvature_form(m: int, s: int) -> Tensor:
    """pi1(X,Y,Z,U) = g(X,U) g(Y,Z) - g(X,Z) g(Y,U): every plane has K = 1."""
    sg = metric_signs(m, s)
    comps = {}
    for i in range(2 * m):
        for j in range(2 * m):
            if i != j:
                comps[(i, j, j, i)] = sg[i] * sg[j]
                comps[(i, j, i, j)] = -sg[i] * sg[j]
    return Tensor(m, s, comps)


def kahler_form(m: int, s: int) -> list:
    """omega[i][j] = g(J e_i, e_j)."""
    sg = metric_signs(m, s)
    n = 2 * m
    om = [[0] * n for _ in range(n)]
    for i in range(n):
        Je = apply_J([1 if k == i else 0 for k in range(n)])
        for j in range(n):
            om[i][j] = sg[j] * Je[j]
    return om


def space_form(m: int, s: int, c) -> Tensor:
    """Complex space form with holomorphic curvature c:
    (c/4)[pi1 + w(X,U)w(Y,Z) - w(X,Z)w(Y,U) - 2 w(X,Y)w(Z,U)], w = g(J., .)."""
    sg = metric_signs(m, s)
    om = kahler_form(m, s)
    c4 = Fraction(c) / 4

    def entry(i, j, k, l):
        p = (sg[i] if i == l else 0) * (sg[j] if j == k else 0) \
            - (sg[i] if i == k else 0) * (sg[j] if j == l else 0)
        return c4 * (p + om[i][l] * om[j][k] - om[i][k] * om[j][l] - 2 * om[i][j] * om[k][l])
    return Tensor(m, s, _dense_comps(2 * m, entry))


def random_rational(rng: random.Random, bound: int = 6, den: int = 4) -> Fraction:
    while True:
        v = Fraction(rng.randint(-bound, bound), rng.randint(1, den))
        if v:
            return v


def random_curvature_tensor(m: int, s: int, rng: random.Random, terms: int = 3) -> Tensor:
    """Sum of a_k * R_{h_k}, R_h(X,Y,Z,U) = h(X,U)h(Y,Z) - h(X,Z)h(Y,U).

    Each R_h has the pair symmetries and the first Bianchi identity for any
    symmetric h, so the sum is an algebraic curvature tensor; random rational
    h make its holomorphic, antiholomorphic and biholomorphic curvatures
    nonconstant.
    """
    n = 2 * m
    total = {}
    for _ in range(terms):
        h = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                h[i][j] = h[j][i] = random_rational(rng)
        a = random_rational(rng, bound=3, den=3)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        v = h[i][l] * h[j][k] - h[i][k] * h[j][l]
                        if v:
                            total[(i, j, k, l)] = total.get((i, j, k, l), 0) + a * v
    return Tensor(m, s, total)


def document_text(T: Tensor, name: str) -> str:
    """Tensor document (curvlab-tensor/1) with 1-based, sorted entries."""
    lines = ["curvlab-tensor/1", f"m = {T.m}", f"s = {T.s}", "J = canonical",
             f"name = {name}", "symmetrize = false", "bianchi = false"]
    for (i, j, k, l), v in sorted(T.comps().items()):
        lines.append(f"R[{i + 1},{j + 1},{k + 1},{l + 1}] = {v}")
    return "\n".join(lines) + "\n"


def from_array(m: int, s: int, components) -> Tensor:
    """Tensor from an n x n x n x n nested sequence (e.g. a numpy object array)."""
    n = 2 * m
    comps = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = components[i][j][k][l]
                    if v:
                        comps[(i, j, k, l)] = Fraction(v)
    return Tensor(m, s, comps)


# -- reports -------------------------------------------------------------------

def parse_report(text: str) -> dict:
    """Key/value lines of a curvlab-report/1 document."""
    lines = text.splitlines()
    if not lines or lines[0] != "curvlab-report/1":
        raise ValueError("missing curvlab-report/1 header")
    out = {}
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        if not sep or key in out:
            raise ValueError(f"malformed or repeated report line {line!r}")
        out[key] = value
    return out


def parse_vector(text: str) -> list:
    return [Fraction(tok) for tok in text.split()]


def is_orthonormal_antiholomorphic(signs, vectors, pattern) -> bool:
    """g(v_a, v_b) = pattern_a * delta_ab and g(v_a, J v_b) = 0 for all a, b."""
    for a, u in enumerate(vectors):
        for b, v in enumerate(vectors):
            if inner(signs, u, v) != (pattern[a] if a == b else 0):
                return False
            if inner(signs, u, apply_J(v)) != 0:
                return False
    return True


def poly_eval(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def divisible_by_one_minus_t2_squared(coeffs) -> bool:
    """Whether (1 - t^2)^2 = 1 - 2t^2 + t^4 divides the polynomial exactly."""
    rem = [Fraction(c) for c in coeffs]
    while len(rem) >= 5:
        lead = rem[-1]
        d = len(rem) - 5
        for k, q in enumerate((1, 0, -2, 0, 1)):
            rem[d + k] -= lead * q
        rem.pop()
    return all(c == 0 for c in rem)
