import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from curvlab.spaces import make_space

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(argv, timeout):
    """Run `python argv...` in a fresh process that imports curvlab from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout, cwd=ROOT)


@pytest.fixture(scope="session")
def sp21():
    return make_space(2, 1)


@pytest.fixture(scope="session")
def sp31():
    return make_space(3, 1)


@pytest.fixture(scope="session")
def sp30():
    return make_space(3, 0)


@pytest.fixture(scope="session")
def sp20():
    return make_space(2, 0)


def rand_vector(space, rng, bound=4):
    """Random exact vector with small integer coordinates."""
    return space.vector([rng.randint(-bound, bound) for _ in range(space.n)])


def rand_nonisotropic(space, rng, bound=4):
    while True:
        v = rand_vector(space, rng, bound)
        if space.inner(v, v) != 0:
            return v


def loop_eval(R, X, Y, Z, U):
    """Quadruple-loop contraction oracle, independent of tensordot."""
    n = R.space.n
    acc = Fraction(0)
    comp = R.components
    for i in range(n):
        if not X[i]:
            continue
        for j in range(n):
            if not Y[j]:
                continue
            for k in range(n):
                if not Z[k]:
                    continue
                for l in range(n):
                    if U[l]:
                        acc += comp[i, j, k, l] * X[i] * Y[j] * Z[k] * U[l]
    return acc
