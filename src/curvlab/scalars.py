"""Scalar backends shared by every module.

Two backends coexist: exact rationals (`fractions.Fraction`) for identity
checking and constraint solving, and binary64 floats for numeric probing.
Values carry their own backend; the metric signs and the canonical complex
structure are plain integers, so they combine with either backend without
conversion.  Complex scalars are `ExactComplex` (a pair of Fractions) in the
exact backend and the builtin `complex` in the float backend.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# The float backend's tolerance policy.  Every tolerance test in the
# package is `is_zero(x, tol, scale)` with one of these tolerances (the
# batched float holomorphic screen applies FLOAT_VERDICT_TOL to an array);
# exact values are compared exactly whatever the tolerance.
#
# Isotropy of vectors and planes (the denominator of a sectional curvature)
# and the identities a float J must satisfy.
FLOAT_DEGENERATE_TOL = 1e-12
# Relations that hold exactly on exact input: tensor symmetries, numerical
# ranks of spans and Gram matrices, the orthonormal antiholomorphic pair
# conditions, a model's bounded probe value.
FLOAT_IDENTITY_TOL = 1e-9
# Agreement of curvature values in the constancy verdicts, per unit of
# tensor scale.
FLOAT_VERDICT_TOL = 1e-8
# A float recomputation of an exact witness value.
FLOAT_REVERIFY_TOL = 1e-6


def rational(x) -> Fraction:
    """Coerce integers (numpy's too), numerals like '3' or '-5/7', or
    Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, numbers.Integral):        # not numpy.bool_, which is no Integral
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_scalar(x) -> str:
    """Report form of a scalar: reduced p/q for rationals, repr otherwise."""
    return format_rational(x) if isinstance(x, Fraction) else repr(x)


def _mixed(op):
    """An `ExactComplex` binary operation on ExactComplex, int and Fraction
    operands that also takes float and complex ones: those give a builtin
    complex, as a Fraction with a float gives a float."""

    def method(self, other):
        if isinstance(other, (float, complex)):
            return getattr(complex(self), op.__name__)(other)
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(Fraction(other), Fraction(0))
        return op(self, other) if isinstance(other, ExactComplex) else NotImplemented

    return method


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "ExactComplex":
        return ExactComplex(rational(re), rational(im))

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @_mixed
    def __add__(self, o):
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    @_mixed
    def __sub__(self, o):
        return ExactComplex(self.re - o.re, self.im - o.im)

    @_mixed
    def __rsub__(self, o):
        return ExactComplex(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    @_mixed
    def __mul__(self, o):
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    @_mixed
    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    @_mixed
    def __rtruediv__(self, o):
        return o / self

    def __eq__(self, other):
        # exact values: a Fraction compares exactly with a float
        if isinstance(other, (ExactComplex, int, Fraction, float, complex)):
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):
        # CPython's complex hash, so that equal int, Fraction, float, complex
        # and ExactComplex values hash alike; no float() conversion, which
        # overflows on large Fractions
        width = sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % (1 << width)
        if h >= 1 << (width - 1):
            h -= 1 << width
        return -2 if h == -1 else h

    def __repr__(self):
        return f"({format_rational(self.re)}{'+' if self.im >= 0 else '-'}{format_rational(abs(self.im))}i)"


def integerize(values) -> tuple[list, int] | None:
    """(numerators, d) with values == numerators / d, d the lcm of the denominators.

    Numerators are Python ints.  None when some value is not rational, that
    is, has no numerator and denominator (ints, numpy integers and Fractions
    have them, floats do not).
    """
    values = list(values)
    try:
        d = math.lcm(*{x.denominator for x in values})
    except AttributeError:
        return None
    if d == 1:
        return [int(x) for x in values], 1
    # int() keeps numpy integers from overflowing against a large d
    return [int(x.numerator) * (d // int(x.denominator)) for x in values], d


def is_exact(x) -> bool:
    """True for scalars of the exact backend (incl. plain ints)."""
    return isinstance(x, (int, Fraction, ExactComplex)) and not isinstance(x, bool)


def is_zero(x, tol: float, scale=1) -> bool:
    """Backend-aware zero test: `not x` for exact scalars (`tol` and `scale`
    unused), else |x| <= tol * max(1, |scale|)."""
    if is_exact(x):
        return not x
    return abs(x) <= tol * max(1, abs(scale))


# -- integer draws from a random.Random ----------------------------------------
#
# Every integer the package draws below a bound k comes from `below`, which
# follows CPython's rule for `Random.randrange(k)`: getrandbits of k's bit
# length, redrawn while >= k.  `choice`, `randint` and a small `sample` are
# that rule applied to their own bounds, so replacing them by `below` keeps
# every value and the generator's state after it, one Python call instead of
# three or four.  getrandbits(b) for b <= 32 is the top b bits of one 32-bit
# Mersenne Twister word (Matsumoto & Nishimura, 1998), which lets
# `bulk_below` decode many draws from a single getrandbits call.

def below(rng, k: int) -> int:
    """rng.randrange(k) for k >= 1, drawn as CPython draws it; rng.choice(seq)
    is seq[below(rng, len(seq))] and rng.randint(a, b) is a + below(rng, b - a + 1)."""
    bits = k.bit_length()
    r = rng.getrandbits(bits)
    while r >= k:
        r = rng.getrandbits(bits)
    return r


def two_below(rng, k: int) -> tuple[int, int]:
    """rng.sample(range(k), 2) for 2 <= k <= 21, where CPython picks from a
    pool: the first index, then one below k - 1 that stands for k - 1 when
    it hits the first."""
    j0, j1 = below(rng, k), below(rng, k - 1)
    return j0, k - 1 if j1 == j0 else j1


def bulk_below(rng, k: int, words: int):
    """The values that successive `below(rng, k)` calls take from the next
    `words` 32-bit words of `rng`, for 1 <= k < 2^32, as an int64 array.
    getrandbits(32 * words) returns the words with the first in the lowest
    bits; a word gives its top k.bit_length() bits, and one at k or above is
    a redraw.  Exactly `words` words are drawn, so a caller that keeps the
    values it has not used yet continues the sequence of `below` exactly."""
    raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
    top = np.frombuffer(raw, dtype="<u4") >> (32 - k.bit_length())
    return top[top < k].astype(np.int64)


RAND_DENOMINATOR = 64


def rand_numerator(rng, denominator: int = RAND_DENOMINATOR, span: int = 1) -> int:
    """The k of `rand_rational`, drawn the same way: rng.randint(-span *
    denominator, span * denominator)."""
    return below(rng, 2 * span * denominator + 1) - span * denominator


def rand_rational(rng, denominator: int = RAND_DENOMINATOR, span: int = 1) -> Fraction:
    """Uniform rational on the grid k/denominator inside [-span, span]."""
    return Fraction(rand_numerator(rng, denominator, span), denominator)

