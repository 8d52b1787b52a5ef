"""The u(p, q)-closure of constraint rows, split by sign-flip classes.

A row is a functional on the pair-symmetric coordinates {P, Q} of a
curvature tensor (`tensors._orbit_pairs`), P = (i < j) and Q = (k < l)
2-form indices.  The closure of some rows is the smallest space of rows
that holds them and is invariant under u(p, q); it is spun from its seed
rows by the two generators of `spaces.unitary_generators`, the "spinning"
step of the MeatAxe (Parker, 1984; Holt & Rees, 1994).

The closure splits along coordinate classes, with no change of basis.  Let
d_b be -1 on J-block b and +1 elsewhere.  It is a g-isometry that commutes
with J, so it lies in U(p, q), and since U(p, q) is connected, the closure,
invariant under u(p, q), is invariant under every d_b.  A coordinate
{e_i ^ e_j, e_k ^ e_l} is an eigenvector of every d_b, with sign (-1) to
the number of i, j, k, l in block b; its class is the set of blocks with an
odd count.  The projector onto a class is a polynomial in the d_b, and a
coordinate mask, so the closure is the direct sum of its class parts.  The
spin therefore cuts every row into its class parts, divides each by its
content and offers it only to its class's `RowReducer`: 1 + C(m, 2) + C(m, 4)
reducers of at most 171 columns (m = 6), in place of one of N = 2211.  Each
absorbed part is spun alone, and the parts of its images are offered to
their classes in the next layer, until a layer absorbs nothing.  The
absorbed parts span a space that holds the seed rows and every image of its
rows, hence the closure; every part offered lies in the closure, since the
closure holds the class parts of its rows.

The generator images come from integer maps, built once per generator set
and source class from the nonzeros of the generators' 2-form actions.  A
block phase (X) keeps each class, and a rotation of two consecutive blocks
(Y) moves one index between them, so it sends a class to the classes that
flip those two blocks.

The nullspace of the closure is the direct sum of the class nullspaces, and
its reduced echelon basis is the union of theirs: a class's coordinates keep
their global order, so its pivots are the global pivots among them.  Each
class certifies its own part (`RowReducer.nullspace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linsolve import RowReducer
from .tensors import _orbit_pairs, _two_forms

_MAPS_CACHED = 4           # generator sets kept: one per signature (m, s), for J and -J alike;
                           # the `impose` workload uses three


@lru_cache(maxsize=None)
def sign_classes(n: int) -> tuple:
    """The coordinates of each sign-flip class, as increasing index arrays
    into the pair-symmetric basis of dimension n, classes in order of their
    block masks."""
    iu, ju = _two_forms(n)
    bits = (1 << iu // 2) ^ (1 << ju // 2)        # blocks with an odd count in P
    ia, ib = _orbit_pairs(n)
    _, which = np.unique(bits[ia] ^ bits[ib], return_inverse=True)
    order = np.argsort(which, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(which[order])) + 1))


def _two_form_action(K) -> np.ndarray:
    """K's derivation on 2-forms, e_i ^ e_j -> Ke_i ^ e_j + e_i ^ Ke_j, as a
    matrix on the 2-form indices P = (i < j)."""
    iu, ju = np.triu_indices(len(K), 1)
    k, l, i, j = iu[:, None], ju[:, None], iu, ju
    return (K[k, i] * (l == j) - K[k, j] * (l == i)
            - K[l, i] * (k == j) + K[l, j] * (k == i))


def _coordinate_action(K) -> tuple:
    """(source, target, value) arrays of K's action on rows, entries with the
    same source and target not yet summed.  With K2 the 2-form action, the
    row of coordinate {P, Q} maps to sum_A K2[A, P] {A, Q} + K2[A, Q] {A, P},
    as the symmetric form E_PQ + E_QP maps to K2 S + S K2^T; so each nonzero
    K2[A, E] sends {E, Q} to {A, Q} for every Q, twice when Q = E."""
    K2 = _two_form_action(K)
    ia, ib = _orbit_pairs(len(K))
    pair = np.empty(K2.shape, dtype=np.intp)
    pair[ia, ib] = pair[ib, ia] = np.arange(len(ia))
    A, E = np.nonzero(K2)
    Q = np.arange(len(K2))
    value = K2[A, E][:, None] * np.where(Q == E[:, None], 2, 1)
    return pair[E[:, None], Q].ravel(), pair[A[:, None], Q].ravel(), value.ravel()


@dataclass(frozen=True)
class _ClassMap:
    """The images of one class's rows under every generator: rows @ matrix,
    whose columns are cut into `parts`, (generator, target class, start,
    stop) each; `growth` bounds |image entry| / max |row entry|."""

    matrix: np.ndarray
    parts: tuple
    growth: int


def class_maps(gens) -> tuple:
    """One `_ClassMap` per sign-flip class for the integer generators `gens`,
    built on first use and cached on their entries."""
    return _class_maps(len(gens[0]), tuple(np.asarray(K, dtype=np.int64).tobytes() for K in gens))


@lru_cache(maxsize=_MAPS_CACHED)
def _class_maps(n: int, gens: tuple) -> tuple:
    classes = sign_classes(n)
    label = np.empty(sum(map(len, classes)), dtype=np.intp)
    local = np.empty_like(label)
    for c, idx in enumerate(classes):
        label[idx], local[idx] = c, np.arange(len(idx))
    actions = [_coordinate_action(np.frombuffer(raw, dtype=np.int64).reshape(n, n))
               for raw in gens]
    maps = []
    for c, idx in enumerate(classes):
        columns, parts, stop = [np.zeros((len(idx), 0), dtype=np.int64)], [], 0
        for g, (source, target, value) in enumerate(actions):
            mine = label[source] == c
            image = np.zeros((len(idx), len(label)), dtype=np.int64)
            np.add.at(image, (local[source[mine]], target[mine]), value[mine])
            for d, to_d in enumerate(classes):
                if image[:, to_d].any():
                    columns.append(image[:, to_d])
                    parts.append((g, d, stop, stop + len(to_d)))
                    stop += len(to_d)
        matrix = np.concatenate(columns, axis=1)
        maps.append(_ClassMap(matrix, tuple(parts), int(np.abs(matrix).sum(axis=0).max(initial=0))))
    return tuple(maps)


def _images(block: np.ndarray, cmap: _ClassMap) -> np.ndarray:
    """block @ cmap.matrix, in int64 when every entry provably fits."""
    if block.dtype == np.int64 and int(np.abs(block).max()) * cmap.growth < 2 ** 63:
        return block.dot(cmap.matrix)
    return block.astype(object).dot(cmap.matrix.astype(object))


def _primitive(block: np.ndarray) -> np.ndarray:
    """The nonzero rows of an integer block, each divided by its content."""
    block = block[block.any(axis=1)]
    return block // np.gcd.reduce(block, axis=1)[:, None]


@dataclass(frozen=True)
class Closure:
    """The closed rows of each sign-flip class: `reducers[c]` holds the class
    parts on the coordinates `classes[c]`.  `offered` counts the class parts
    offered."""

    classes: tuple
    reducers: tuple
    offered: int

    @property
    def rank(self) -> int:
        return sum(red.rank for red in self.reducers)

    def nullspace(self) -> tuple:
        """(basis, free columns): the certified echelon basis of the rows'
        solutions, one coprime integer row over the whole basis per free
        column, in increasing order of those columns (the union of the class
        nullspaces, each vector zero outside its class)."""
        free = [idx[red.free_columns] for idx, red in zip(self.classes, self.reducers)]
        columns = np.sort(np.concatenate(free))
        basis = np.zeros((len(columns), sum(map(len, self.classes))), dtype=object)
        for idx, red, cols in zip(self.classes, self.reducers, free):
            if len(cols):
                basis[np.ix_(np.searchsorted(columns, cols), idx)] = red.nullspace()
        return basis, columns.tolist()


def close(gens, rows: np.ndarray) -> Closure:
    """The closure of the integer rows (an int64 or object array of shape
    (k, N)) under the integer generators `gens` of u(p, q)
    (`spaces.unitary_generators`), one `RowReducer` per sign-flip class.

    The class parts of the rows are offered, then, one layer at a time, the
    class parts of the images of every part absorbed in the previous layer,
    until a layer absorbs nothing."""
    maps = class_maps(gens)
    classes = sign_classes(len(gens[0]))
    reducers = tuple(RowReducer(len(idx)) for idx in classes)
    pending = [[rows[:, idx]] for idx in classes]
    offered = 0
    while any(pending):
        layer, pending = pending, [[] for _ in classes]
        for c, parts in enumerate(layer):
            if not parts:
                continue
            block = _primitive(np.concatenate(parts))
            if not len(block):
                continue
            offered += len(block)
            absorbed = block[reducers[c].add_rows(block)]
            if len(absorbed):
                images = _images(absorbed, maps[c])
                for _, d, start, stop in maps[c].parts:
                    pending[d].append(images[:, start:stop])
    return Closure(classes, reducers, offered)
