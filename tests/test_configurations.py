"""Parametrized probe configurations of `impose` and the bases they give.

Each condition draws its constraint configurations from a polynomial
parametrization of its configuration variety.  The property tests check
that every draw lies on the variety; the pinned digests check that the
certified solution bases are byte-identical to those of the rejection
sampler this parametrization replaced.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from curvlab.harness import CONDITIONS, impose
from curvlab.spaces import make_space


def realizable(cond_id, max_m=4):
    """Every (m, s) with m <= max_m that meets the condition's requirements."""
    return [(m, s) for m in range(1, max_m + 1) for s in range(m + 1)
            if all(need.holds(make_space(m, s)) for need in CONDITIONS[cond_id].needs)]


def draws(cond_id):
    return st.tuples(st.sampled_from(realizable(cond_id)), st.integers(0, 2 ** 32))


def configs(cond_id, signature, seed):
    space = make_space(*signature)
    return space, CONDITIONS[cond_id].int_configs(space, random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["eq1", "lemma2"]).flatmap(lambda c: st.tuples(st.just(c), draws(c))))
def test_pair_configurations_are_antiholomorphic(case):
    cond_id, (signature, seed) = case
    space, drawn = configs(cond_id, signature, seed)
    g, J = space.inner, space.apply_J
    for x, a in drawn:
        assert g(x, a) == 0 and g(x, J(a)) == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["thmA", "thm3"]).flatmap(lambda c: st.tuples(st.just(c), draws(c))))
def test_isotropic_configurations_are_weakly_isotropic(case):
    cond_id, (signature, seed) = case
    space, drawn = configs(cond_id, signature, seed)
    g, J = space.inner, space.apply_J
    for X, xi in drawn:
        assert g(xi, xi) == 0
        assert g(X, xi) == 0 and g(X, J(xi)) == 0


@settings(max_examples=40, deadline=None)
@given(draws("thm6"))
def test_complexified_configurations_are_isotropic(case):
    signature, seed = case
    space, drawn = configs("thm6", signature, seed)
    g, J = space.inner, space.apply_J
    for x, u, v in drawn:
        # q_C(u + i v) = q(u) - q(v) + 2 i g(u, v)
        assert g(u, u) == g(v, v) and g(u, v) == 0
        assert all(g(x, w) == 0 for w in (u, v, J(u), J(v)))


def test_realizable_signatures_cover_every_condition():
    assert realizable("eq1") == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    assert realizable("lemma2") == [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)]
    assert realizable("thmA") == [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    assert realizable("thm6") == [(3, 0), (4, 0)]


def test_eq1_and_lemma2_impose_the_same_space(sp31):
    # both are one identity on the same irreducible pair variety; only the
    # signs of the pairs the theorems quantify over differ
    eq1, lemma2 = impose(sp31, "eq1", seed=0), impose(sp31, "lemma2", seed=0)
    assert (eq1.rank, eq1.dimension) == (lemma2.rank, lemma2.dimension) == (35, 85)
    assert eq1.coefficients == lemma2.coefficients


def basis_digest(system) -> str:
    return hashlib.sha256(
        repr([[str(c) for c in vec] for vec in system.coefficients]).encode()).hexdigest()


# (condition, m, s, seed) -> rank, dimension and basis digest, recorded with
# the rejection-sampling configurations that preceded the parametrizations:
# every impose case of the test suite and of the benchmark, and four at m = 4
PINNED = [
    ("eq1", 2, 1, 5, 8, 13, "2f3f4f117b5bca26ba33a2735e52cdebafa65c3166fd720330648b0f07c42470"),
    ("lemma2", 2, 0, 29, 8, 13, "b429da5e2f703fbfb5156677458f0d16354fbe7ae8fe3f2870b5a0e3ad779973"),
    ("eq1", 3, 1, 389951, 35, 85, "c3727b142ffc5332fd66ce6d84b19fc0827aeb160d6afb29ff936ebc4d6c8f9d"),
    ("thm3", 3, 1, 639718, 35, 85, "02ec9dcce76cfe9f64ca15b1ce8f1ac3502661f6908d917970af51c11aca8245"),
    ("thm6", 3, 0, 23, 89, 31, "77fd77e5b3aa5da577eb9a48719bb1871c563c19373e5ce673ad3bc0483394ee"),
    ("thmA", 3, 1, 4, 89, 31, "c8166e154c54b72f03682538abb42453374fcc8950d33bdae993ba997849d5fb"),
    ("thmA", 3, 2, 876627, 89, 31, "3af81c52abdf47d3b5aa34ddb34ec265a037680ddbe1fd77c67d4e6e71d1bef3"),
    ("eq1", 4, 1, 0, 99, 307, "9d1678392b423be0c524da810fb31691afe8444f30057b46d7b97a7d36891d05"),
    ("lemma2", 4, 0, 0, 99, 307, "f4ae7323fe7deedcc12aa0159881a785bfba32b6e2bb742dc585b7c8d133a4af"),
    ("thm3", 4, 1, 0, 119, 287, "a83d7633864af649ea58e9643ee591218e5ab6276922a3d92622e9c52a6d5f0e"),
    ("thmA", 4, 2, 0, 307, 99, "2b62ec7061685bb402812d87032ea1f37039a1f1c86223652d92686938c50279"),
]


@pytest.mark.parametrize("cond_id,m,s,seed,rank,dimension,digest", PINNED,
                         ids=[f"{c}-{m}-{s}" for c, m, s, *_ in PINNED])
def test_pinned_bases(cond_id, m, s, seed, rank, dimension, digest):
    system = impose(make_space(m, s), cond_id, seed=seed)
    assert (system.rank, system.dimension) == (rank, dimension)
    assert basis_digest(system) == digest
