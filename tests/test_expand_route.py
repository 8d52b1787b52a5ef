"""Differential test of the CLI `expand` against its earlier route.

`curvlab expand` keeps the integer frame from `integer_frame` to the report:
it checks the frame on the numerators (`require_family_frame`), expands it
with `family_numerators` and runs `bound_forced_identities` on the integer
coefficients, building a `Fraction` only to print.  The oracle below is the
route it replaced, kept here: the frame as `Fraction` vectors
(`frame_vectors`), the family's exact adapter on them, and the bound on the
`Fraction` coefficients.  Both must give the same exit code, stdout and
stderr on random, constant and space-form documents at every (m, s) with
m <= 4, on both families and three seeds, and on documents with a
spelled-out canonical J and a rational custom J, and on a space form whose
numerators pass 2^63.
"""

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from curvlab import cli
from curvlab.harness import model_complex_space_form, model_constant_sectional, random_tensor
from curvlab.io_format import (build_tensor, document_from_tensor, read_document,
                               serialize_document)
from curvlab.polarization import (FAMILIES, bound_forced_identities,
                                  complexified_family_expansion, holomorphic_family_expansion)
from curvlab.scalars import format_scalar
from curvlab.spaces import (GeometryError, canonical_complex_structure, frame_vectors,
                            integer_frame, make_space)

ADAPTERS = {"holomorphic": holomorphic_family_expansion,
            "complexified": complexified_family_expansion}
SEEDS = (0, 5, 17)
SIGNATURES = [(m, s) for m in range(1, 5) for s in range(m + 1)]
MODELS = {"random": lambda space: random_tensor(space, 11),
          "constant": lambda space: model_constant_sectional(space, Fraction(3, 2)),
          "space-form": lambda space: model_complex_space_form(space, Fraction(-2))}


def fraction_route_expand(path, family: str, seed: int) -> int:
    """The report of `expand` through Fraction vectors, the adapter and the
    bound on Fraction coefficients."""
    doc = read_document(path)
    R = build_tensor(doc)
    N, D = integer_frame(R.space, random.Random(seed), FAMILIES[family].pattern,
                         antiholomorphic=True)
    x, w = frame_vectors(N, D)
    poly = ADAPTERS[family](R, x, w)
    lines = [f"family = {family}", f"seed = {seed}",
             f"pair.first = {cli._fmt_vec(x)}", f"pair.second = {cli._fmt_vec(w)}"]
    coeffs = list(poly.coeffs) + [0] * (5 - len(poly.coeffs))
    for k in range(5):
        lines.append(f"coeff.t{k} = {format_scalar(Fraction(coeffs[k]))}")
        lines.append(f"coeff.t{k}.meaning = {cli._EXPANSION_MEANING[family][k]}")
    constraints = bound_forced_identities(poly, multiplicity=2)
    labels = ["round1.t=+1", "round1.t=-1", "round2.t=+1", "round2.t=-1"]
    for label, value in zip(labels, constraints):
        lines.append(f"bound.{label} = {format_scalar(Fraction(value))}")
    forced = len(constraints) == 4 and all(v == 0 for v in constraints)
    lines.append(f"bound.compatible = {'true' if forced else 'false'}")
    cli._report("expand", doc, lines)
    return 0


def captured(run) -> tuple:
    """(exit code, stdout, stderr) of run(), with errors reported as `main` does."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run()
        except (GeometryError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    return code, out.getvalue(), err.getvalue()


def write(directory, name: str, R) -> str:
    path = directory / f"{name}.tensor"
    path.write_text(serialize_document(document_from_tensor(R, name=name)), encoding="ascii")
    return str(path)


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict:
    directory = tmp_path_factory.mktemp("expand")
    paths = {f"{model}-{m}-{s}": write(directory, f"{model}-{m}-{s}", make(make_space(m, s)))
             for m, s in SIGNATURES for model, make in MODELS.items()}
    # a custom J block that spells out the canonical J, read back as Fractions
    text = (directory / "random-3-1.tensor").read_text(encoding="ascii")
    rows = "\n".join(f"J[{r}] = " + " ".join(map(str, row))
                     for r, row in enumerate(canonical_complex_structure(3), start=1))
    spelled = directory / "spelled-3-1.tensor"
    spelled.write_text(text.replace("J = canonical", "J = custom\n" + rows), encoding="ascii")
    paths["spelled-3-1"] = str(spelled)
    # a rational custom J: the (3/5, 4/5) rotation of e_0 and e_2 conjugating J0
    P = np.eye(4, dtype=object) * Fraction(1)
    P[0, 0] = P[2, 2] = Fraction(3, 5)
    P[2, 0], P[0, 2] = Fraction(4, 5), Fraction(-4, 5)
    J = P.dot(canonical_complex_structure(2)).dot(P.T)
    paths["rotated-2-0"] = write(directory, "rotated-2-0",
                                 random_tensor(make_space(2, 0, J=J.tolist()), 4))
    # numerators past 2^63, whose symmetry checks run on Python ints
    paths["bigform-3-1"] = write(directory, "bigform-3-1",
                                 model_complex_space_form(make_space(3, 1), 2 ** 64 + 13))
    return paths


NAMES = [f"{model}-{m}-{s}" for m, s in SIGNATURES for model in MODELS]


@pytest.mark.parametrize("name", NAMES + ["spelled-3-1", "rotated-2-0", "bigform-3-1"])
def test_expand_matches_the_fraction_route(documents, name):
    path = documents[name]
    reached = set()
    for family in ADAPTERS:
        for seed in SEEDS:
            got = captured(lambda: cli.main(["expand", "-i", path, "--family", family,
                                             "--seed", str(seed)]))
            assert got == captured(lambda: fraction_route_expand(path, family, seed)), \
                (name, family, seed)
            reached.add(got[0])
    if name == "spelled-3-1":
        assert reached == {0, 2}            # holomorphic runs, complexified is refused
    if name == "rotated-2-0":
        assert reached == {2}               # frames need the canonical J


def test_every_outcome_is_reached(documents):
    # reports on both families, and each of the three refusals
    outcomes = set()
    for name, family in (("random-2-0", "complexified"), ("random-2-1", "holomorphic"),
                         ("random-1-0", "holomorphic"), ("random-3-1", "complexified"),
                         ("rotated-2-0", "complexified")):
        code, _, err = captured(lambda: cli.main(["expand", "-i", documents[name],
                                                  "--family", family]))
        outcomes.add(err or code)
    assert outcomes == {
        0, "error: antiholomorphic pattern (1, -1) needs 1 positive and 1 negative J-blocks; "
           "space has 1 and 0\n",
        "error: complexified family expansion is a definite-metric tool\n",
        "error: antiholomorphic tuples require the canonical J\n"}
