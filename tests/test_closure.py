"""The u(p, q)-closure split by sign-flip classes (`closure.close`).

The split rests on two facts, checked exactly here: the sign flips d_b of
single J-blocks lie in U(p, q), and their common eigenspaces on the
pair-symmetric coordinates are the coordinate classes `sign_classes`
returns.  The split closure is then compared with the unsplit spin it
replaced (one reducer on all N coordinates, generator images by a dense
scatter into 2-form matrices), and at m <= 3 with a spin eliminated over
`Fraction`s.
"""

from fractions import Fraction
from math import comb, isqrt
import random

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from curvlab import closure, linsolve
from curvlab.closure import class_maps, close, sign_classes
from curvlab.harness import CONDITIONS, _functional, impose
from curvlab.linsolve import RowReducer, integer_row
from curvlab.spaces import canonical_complex_structure, make_space, unitary_generators
from curvlab.tensors import _orbit_pairs, _two_forms

SIGNATURES = [(m, s) for m in range(1, 7) for s in range(m + 1)]


def unsplit_images(K2, rows) -> np.ndarray:
    """The nonzero images of integer rows under the generator with 2-form
    action K2, divided by their content, by the dense scatter: a row r is
    the symmetric form S with S_PQ = r_PQ off the diagonal and S_PP = 2 r_PP
    on 2-forms, and maps to K2 S + S K2^T = T + T^T with T = K2 S."""
    ia, ib = _orbit_pairs((1 + isqrt(1 + 8 * len(K2))) // 2)     # K2 is n(n-1)/2 square
    fits = 4 * len(K2) * int(np.abs(K2).max()) * int(np.abs(rows).max()) < 2 ** 62
    dtype = np.int64 if fits else object
    S = np.zeros((len(rows),) + K2.shape, dtype=dtype)
    S[:, ia, ib] = rows
    S += S.transpose(0, 2, 1)
    T = np.matmul(K2.astype(dtype), S)
    out = T[:, ia, ib] + np.where(ia == ib, 0, T[:, ib, ia])
    out = out[out.any(axis=1)]
    return out // np.gcd.reduce(out, axis=1)[:, None]


def unsplit_closure(gens, rows) -> RowReducer:
    """The spin on all N coordinates at once: the rows, then layer by layer
    the images of the rows the last layer absorbed."""
    actions = [closure._two_form_action(K) for K in gens]
    reducer = RowReducer(rows.shape[1])
    layer = rows[reducer.add_rows(rows)]
    while len(layer):
        images = np.concatenate([unsplit_images(K2, layer) for K2 in actions])
        layer = images[reducer.add_rows(images)]
    return reducer


def fraction_closure(gens, rows) -> tuple:
    """(rank, free columns, basis) of the spin eliminated over Fractions, row
    by row, the basis in `RowReducer.nullspace`'s integer form."""
    ncols = rows.shape[1]
    actions = [closure._two_form_action(K) for K in gens]
    ech = {}                                  # pivot -> reduced echelon row

    def offer(row) -> bool:
        r = [Fraction(int(v)) for v in row]
        for c, e in ech.items():
            if r[c]:
                f = r[c]
                r = [a - f * b for a, b in zip(r, e)]
        pivot = next((j for j, v in enumerate(r) if v), None)
        if pivot is None:
            return False
        r = [v / r[pivot] for v in r]
        for c, e in ech.items():
            if e[pivot]:
                f = e[pivot]
                ech[c] = [a - f * b for a, b in zip(e, r)]
        ech[pivot] = r
        return True

    layer = [row for row in rows if offer(row)]
    while layer:
        layer = [row for K2 in actions for row in unsplit_images(K2, np.array(layer))
                 if offer(row)]
    free = [c for c in range(ncols) if c not in ech]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for c, e in ech.items():
            x[c] = -e[f]
        basis.append(integer_row(x))
    return len(ech), free, basis


def flip_signs(n: int, b: int) -> np.ndarray:
    """The eigenvalue of d_b on each pair-symmetric coordinate, from the
    components: d_b multiplies R_ijkl by the product of its diagonal
    entries at i, j, k, l."""
    d = np.where(np.arange(n) // 2 == b, -1, 1)
    iu, ju = _two_forms(n)
    on_forms = d[iu] * d[ju]
    ia, ib = _orbit_pairs(n)
    return on_forms[ia] * on_forms[ib]


def class_signs(m: int) -> list:
    """The d_b signs (one per block) of each class, read off its first coordinate."""
    signs = np.array([flip_signs(2 * m, b) for b in range(m)])
    return [tuple(signs[:, idx[0]]) for idx in sign_classes(2 * m)]


@pytest.mark.parametrize("m", range(1, 7))
def test_sign_classes_partition_the_coordinates(m):
    n = 2 * m
    classes = sign_classes(n)
    N = len(_orbit_pairs(n)[0])
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(N))
    assert all((np.diff(idx) > 0).all() for idx in classes)
    assert len(classes) == 1 + comb(m, 2) + comb(m, 4)
    assert max(map(len, classes)) == {1: 1, 2: 13, 3: 36, 4: 70, 5: 115, 6: 171}[m]
    # each class is one common eigenspace of the flips: equal signs inside
    # a class, different signs between classes
    signs = np.array([flip_signs(n, b) for b in range(m)])
    for idx in classes:
        assert (signs[:, idx] == signs[:, idx[:1]]).all()
    assert len(set(class_signs(m))) == len(classes)


@pytest.mark.parametrize("m,s", SIGNATURES)
@pytest.mark.parametrize("negated", [False, True])
def test_sign_flips_are_unitary(m, s, negated):
    # d_b is a g-isometry commuting with J, so it lies in U(p, q) and every
    # u(p, q)-closure is invariant under it
    J = -canonical_complex_structure(m) if negated else None
    space = make_space(m, s, J=J)
    G = np.diag(space.metric_signs)
    for b in range(m):
        d = np.diag(np.where(np.arange(space.n) // 2 == b, -1, 1))
        assert (d.T.dot(G).dot(d) == G).all()
        assert (d.dot(space.J) == space.J.dot(d)).all()


def map_images(gens, row) -> list:
    """The image of one integer row under each generator, assembled from the
    class maps: each class part times its map, scattered back."""
    classes = sign_classes(len(gens[0]))
    out = [np.zeros(len(row), dtype=np.int64) for _ in gens]
    for idx, cmap in zip(classes, class_maps(gens)):
        images = row[idx].dot(cmap.matrix)
        for g, d, start, stop in cmap.parts:
            out[g][classes[d]] += images[start:stop]
    return out


@pytest.mark.parametrize("m,s", [(2, 1), (3, 0), (3, 2), (4, 2)])
def test_row_images_are_derivatives(m, s):
    # the image of the row of R(a,b,c,d) under K is the row of its
    # derivative along K, sum_i R(..., K slot_i, ...), up to content
    space = make_space(m, s)
    rng = random.Random(m + s)
    gens = unitary_generators(space)
    for _ in range(3):
        slots = [np.array([rng.randint(-3, 3) for _ in range(space.n)]) for _ in range(4)]
        row = np.array(integer_row(_functional(*slots)), dtype=np.int64)
        for K, image in zip(gens, map_images(gens, row), strict=True):
            derivative = sum(_functional(*(K.dot(v) if i == j else v
                                           for j, v in enumerate(slots)))
                             for i in range(4))
            assert integer_row(image) == integer_row(derivative)


@pytest.mark.parametrize("m,s", [(3, 1), (4, 2), (5, 0), (6, 3)])
def test_class_maps_follow_the_flips(m, s):
    # X (block phases) keeps each class; Y (rotations of blocks b, b + 1)
    # sends a class only to the classes whose signs differ at b and b + 1
    signs = class_signs(m)
    for c, cmap in enumerate(class_maps(unitary_generators(make_space(m, s)))):
        for g, d, start, stop in cmap.parts:
            assert cmap.matrix[:, start:stop].any()
            differ = [b for b in range(m) if signs[c][b] != signs[d][b]]
            assert differ == [] if g == 0 else (len(differ) == 2 and differ[1] == differ[0] + 1)


def test_maps_are_cached_on_the_generators():
    space = make_space(3, 1)
    gens = unitary_generators(space)
    assert class_maps(gens) is class_maps(unitary_generators(make_space(3, 1)))
    assert class_maps(gens) is not class_maps(gens[:1])
    assert class_maps(gens) is not class_maps(unitary_generators(make_space(3, 2)))


def residue_basis(parts, ncols) -> np.ndarray:
    """The echelon basis modulo p0 that `nullspace` lifts, on the global
    columns: for each (coordinates, reducer) pair of the list `parts` and
    each of its free columns c, the vector with 1 at c, 0 at the other free
    columns and the negated echelon entries at the pivots; one row per free
    column, in increasing order of those columns."""
    p = linsolve._PRIME
    free = np.concatenate([idx[red._free] for idx, red in parts])
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    start = 0
    for idx, red in parts:
        k = len(red._free)
        basis[start + np.arange(k), idx[red._free]] = 1
        if red.rank:
            basis[start:start + k, idx[red._pivots]] = (-red._ech % p).T
        start += k
    return basis[np.argsort(free)]


def assert_same_closure(split, reducer):
    """The split and unsplit closures have the same rank and the same
    echelon basis modulo p0, and both lift it to the same certified basis
    or both raise ArithmeticError (an entry past the lift bound 4095).
    Returns the basis, or None when both raise."""
    ncols = reducer.ncols
    assert split.rank == reducer.rank
    assert np.array_equal(residue_basis(list(zip(split.classes, split.reducers)), ncols),
                          residue_basis([(np.arange(ncols), reducer)], ncols))
    try:
        basis, free = split.nullspace()
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            reducer.nullspace()
        return None
    assert free == reducer.free_columns
    assert basis.tolist() == reducer.nullspace()
    return basis.tolist()


small = st.integers(min_value=-2, max_value=2)


@st.composite
def seeded_spaces(draw, max_m):
    """A space with m <= max_m (either sign of J) and integer seed rows: rows
    of catalog conditions, Bianchi rows and functionals at random vectors,
    sparse rows, and small combinations of them."""
    m = draw(st.integers(min_value=1, max_value=max_m))
    s = draw(st.integers(min_value=0, max_value=m))
    negated = draw(st.booleans())
    space = make_space(m, s, J=-canonical_complex_structure(m) if negated else None)
    n, N = space.n, len(_orbit_pairs(space.n)[0])
    vector = st.lists(small, min_size=n, max_size=n).map(np.array)
    pool = [cond.rows(space) for cond in CONDITIONS.values()
            if all(need.holds(space) for need in cond.needs)]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["condition", "bianchi", "functional", "sparse"]))
        if kind == "condition" and pool:
            rows += list(draw(st.sampled_from(pool)))
        elif kind in ("bianchi", "condition"):
            a, b, c, d = (draw(vector) for _ in range(4))
            rows.append(_functional(a, b, c, d) + _functional(b, c, a, d)
                        + _functional(c, a, b, d))
        elif kind == "functional":
            rows.append(_functional(*(draw(vector) for _ in range(4))))
        else:
            row = np.zeros(N, dtype=np.int64)
            for k in draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=3)):
                row[k] = draw(small)
            rows.append(row)
    if len(rows) > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append(draw(small) * rows[i] + draw(small) * rows[j])
    return space, np.array(rows, dtype=np.int64).reshape(-1, N)


@settings(max_examples=40, deadline=None)
@given(seeded_spaces(max_m=4))
def test_split_closure_matches_the_unsplit_one(case):
    space, rows = case
    gens = unitary_generators(space)
    split = close(gens, rows)
    reducer = unsplit_closure(gens, rows)
    basis = assert_same_closure(split, reducer)
    assert split.offered == sum(len(block) for red in split.reducers for block in red._offered)
    if space.m <= 2:
        assert fraction_closure(gens, rows) == (split.rank, reducer.free_columns, basis)
    event(f"m = {space.m}")
    event("lifted" if basis is not None else "past the lift bound")
    event("a proper closure" if reducer.free_columns else "every coordinate")


def test_split_closure_past_the_lift_bound():
    # two sparse rows at (4, 3) whose closure (rank 211 of 406) has an
    # echelon basis entry 4106, just past the lift bound 4095: both closures
    # raise, and their echelon bases modulo p0, the residues they would
    # lift, agree
    space = make_space(4, 3)
    gens = unitary_generators(space)
    rows = np.zeros((2, 406), dtype=np.int64)
    rows[0, [318, 390, 405]] = [1, -28, 16]
    rows[1, [385, 390, 391, 394, 397, 403, 405]] = [1, 1, 1, -44, 1, 1, 1]
    split = close(gens, rows)
    assert split.rank == 211
    assert assert_same_closure(split, unsplit_closure(gens, rows)) is None


@pytest.mark.parametrize("cond_id,m,s", [("eq1", 3, 1), ("lemma2", 3, 0), ("bianchi", 3, 2)])
def test_split_closure_against_fractions(cond_id, m, s):
    space = make_space(m, s)
    if cond_id == "bianchi":
        rng = random.Random(m + s)
        a, b, c, d = (np.array([rng.randint(-2, 2) for _ in range(space.n)]) for _ in range(4))
        rows = np.array([_functional(a, b, c, d) + _functional(b, c, a, d)
                         + _functional(c, a, b, d)])
    else:
        rows = CONDITIONS[cond_id].rows(space)
    split = close(unitary_generators(space), rows)
    basis, free = split.nullspace()
    assert fraction_closure(unitary_generators(space), rows) == (split.rank, free, basis.tolist())
    if cond_id == "bianchi":
        assert split.rank == comb(space.n, 4)          # the 4-forms


@pytest.mark.parametrize("dtype,scale", [(np.int64, 2 ** 56), (object, 2 ** 61)],
                         ids=["int64", "object"])
def test_rows_past_int64_are_spun_in_python_ints(dtype, scale, monkeypatch):
    # a seed row with entries near 2^61 makes its images overflow int64, so
    # they are taken in Python ints; the closure is the catalog's
    space = make_space(3, 0)
    rows = CONDITIONS["thm6"].rows(space).astype(dtype)
    rows[0] = rows[0] + scale * rows[1]
    dtypes, images = [], closure._images

    def spy(block, cmap):
        out = images(block, cmap)
        dtypes.append(out.dtype)
        return out
    monkeypatch.setattr(closure, "_images", spy)
    split = close(unitary_generators(space), rows)
    assert object in dtypes
    basis, _ = split.nullspace()
    expected = impose(space, "thm6")
    assert split.rank == expected.rank
    assert basis.tolist() == expected.basis.tolist()
