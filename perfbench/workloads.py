"""The benchmark's three workloads: inputs made from the seed, operations, checks.

Each `build_*` function writes its workload's inputs under a work directory,
warms up, and returns the list of operations that makes one round.  Every operation has a
`run` (the timed call into curvlab), a `check` that returns the problems it
finds in the output (empty when the output is correct), and `perturb`, the
deliberately wrong answers the self-test feeds to the check.  No check
compares with stored program output: the answers come from the analytic
values of the model tensors, from properties the methods must have, and from
`oracle`, which recomputes curvatures without curvlab.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from curvlab import cli, harness, io_format, spaces, tensors

import oracle
from oracle import apply_J, inner

FLOAT_TOL = 1e-8          # the float backend's verdict tolerance, per unit of tensor scale
PROBE_PAIRS = 2           # reduced --pairs budget for probes
PROBE_RUNGS = 40          # the probe command's default --rungs
PROBE_THRESHOLD = 1e6     # the probe command's default --threshold
CLASSIFY_PROBES = 6       # reduced --probes budget for classify


class OpError(Exception):
    """The program ended an operation with an error instead of an answer."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    perturb: tuple = ()        # (label, output -> wrong output)

    def problems(self, out, ctx: dict) -> list:
        """The check's findings; an output it cannot read is a finding too."""
        try:
            return self.check(out, ctx)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_cli(argv) -> str:
    """One in-process CLI command; its report text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpError(f"exit code {code} for {' '.join(argv)}")
    return buf.getvalue()


def _write(workdir: Path, name: str, T: oracle.Tensor) -> str:
    path = workdir / f"{name}.tensor"
    path.write_text(oracle.document_text(T, name), encoding="ascii")
    return str(path)


def _warm_up(paths) -> None:
    """Parse and build every document once, so bad inputs fail in set-up."""
    for path in paths:
        io_format.build_tensor(io_format.parse_document(Path(path).read_text("ascii")))


def _replace(report: str, key: str, value: str) -> str:
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in report.splitlines()]
    return "\n".join(lines) + "\n"


def _bump(report: str, key: str, delta=Fraction(1, 7)) -> str:
    value = oracle.parse_report(report)[key]
    if "." in value or "e" in value:
        return _replace(report, key, repr(float(value) + float(delta)))
    return _replace(report, key, str(Fraction(value) + delta))


def _swap(report: str, key_a: str, key_b: str) -> str:
    rep = oracle.parse_report(report)
    return _replace(_replace(report, key_a, rep[key_b]), key_b, rep[key_a])


# -- impose --------------------------------------------------------------------

IMPOSE_CASES = (("thmA", 3, 1), ("thmA", 3, 2), ("thm3", 3, 1), ("thm6", 3, 0),
                ("eq1", 3, 1))
HOLDS_COUNT = 10          # fresh configurations for ConstraintSystem.condition_holds
OWN_CONFIGS = 2           # configurations for the benchmark's own recheck


@dataclass(frozen=True)
class ImposeOut:
    rank: int
    dimension: int
    element: object            # curvlab CurvatureTensor
    holds: Callable            # the system's condition_holds


def _impose_run(space, cond, seed, elem_seed) -> ImposeOut:
    system = harness.impose(space, cond, seed=seed)
    element = system.random_element(elem_seed)
    return ImposeOut(system.rank, system.dimension, element, system.condition_holds)


def _isotropic_x_signs(m: int, s: int) -> list:
    """Signs of unit X admitting a null xi with span{X, xi} antiholomorphic."""
    plus, minus = m - s, s
    return ([1] if plus >= 2 and minus >= 1 else []) + ([-1] if minus >= 2 and plus >= 1 else [])


def _condition_values(cond, T: oracle.Tensor, draw) -> list:
    """Values the imposed condition says are zero, on drawn configurations."""
    ev, J = T.eval, apply_J
    if cond == "eq1":
        x, a = draw((1, -1))
        return [ev(x, J(x), J(x), a) + ev(x, J(x), J(a), x)]
    if cond in ("thmA", "thm3"):
        out = []
        for sign in _isotropic_x_signs(T.m, T.s):
            X, p, q = draw((sign, 1, -1))
            xi = oracle.add(p, q)                       # null, orthogonal to X and JX
            out.append(ev(X, xi, xi, X) if cond == "thmA" else ev(X, J(X), J(xi), xi))
        return out
    if cond == "thm6":
        x, u, v = draw((1, 1, 1))                       # xi = u + i v is null
        return [ev(x, u, u, x) - ev(x, v, v, x), ev(x, u, v, x) + ev(x, v, u, x)]
    raise ValueError(cond)


def _impose_check(space, case, first, check_seed, out: ImposeOut, ctx) -> list:
    cond, m, s = case
    problems = []
    p = m * (2 * m - 1)                                 # 2-forms on R^{2m}
    if out.rank + out.dimension != p * (p + 1) // 2:
        problems.append(f"rank {out.rank} + dimension {out.dimension} != {p * (p + 1) // 2}")
    if first:
        ctx[case] = out.rank
    elif ctx.get(case) != out.rank:
        problems.append(f"rank {out.rank} differs from {ctx.get(case)} at the other seed")
    if not out.holds(out.element, seed=check_seed, count=HOLDS_COUNT):
        problems.append("random element fails condition_holds")
    T = oracle.from_array(m, s, out.element.components)
    if not T.num:
        problems.append("random element is zero")
    defects = T.symmetry_defects()
    if set(defects) - {"bianchi"}:
        problems.append(f"random element violates {defects}")
    rng = random.Random(check_seed)

    def draw(pattern):
        vecs = [list(v) for v in spaces.tuple_from_rng(space, rng, pattern,
                                                       antiholomorphic=True)]
        if not oracle.is_orthonormal_antiholomorphic(T.signs, vecs, pattern):
            problems.append(f"tuple_from_rng{pattern} is not orthonormal antiholomorphic")
        return vecs
    for _ in range(OWN_CONFIGS):
        if any(_condition_values(cond, T, draw)):
            problems.append(f"{cond} fails on the benchmark's own contraction")
            break
    return problems


def _with_noise(space, out: ImposeOut) -> ImposeOut:
    noise = harness.random_tensor(space, 12345)
    bad = tensors.CurvatureTensor(space, out.element.components + noise.components)
    return dataclasses.replace(out, element=bad)


def build_impose(seed: int, workdir: Path) -> list:
    rng = random.Random(f"impose/{seed}")
    ops = []
    for case in IMPOSE_CASES:
        cond, m, s = case
        space = spaces.make_space(m, s)
        for k, sd in enumerate(rng.sample(range(1_000_000), 2)):
            elem_seed, check_seed = rng.randrange(1_000_000), rng.randrange(1_000_000)
            perturb = [
                ("rank altered", lambda o: dataclasses.replace(o, rank=o.rank + 1)),
                ("element perturbed", partial(_with_noise, space)),
            ]
            if k == 1:
                perturb.append(("rank differs across seeds", lambda o: dataclasses.replace(
                    o, rank=o.rank - 1, dimension=o.dimension + 1)))
            ops.append(Op(f"impose {cond} ({m},{s}) seed={sd}",
                          partial(_impose_run, space, cond, sd, elem_seed),
                          partial(_impose_check, space, case, k == 0, check_seed),
                          tuple(perturb)))
    return ops


# -- pinch ---------------------------------------------------------------------

PINCH_SIGNATURES = ((2, 1), (3, 1), (3, 2))
EXPAND_SEEDS = 3          # complexified expansions per definite tensor
HOLO_EXPAND_SEEDS = 2     # holomorphic expansions per indefinite tensor
MODEL_C = {"constant": Fraction(3), "space-form": Fraction(2)}

_EXPANSION_TEXT = {
    "holomorphic": (
        "R(x,Jx,Jx,x) = H(x)",
        "2[R(x,Jx,Jx,a) + R(x,Jx,Ja,x)]",
        "2R(x,Jx,Ja,a) + 2R(x,Ja,Jx,a) + R(a,Jx,Jx,a) + R(x,Ja,Ja,x)",
        "2[R(a,Ja,Ja,x) + R(a,Ja,Jx,a)]",
        "R(a,Ja,Ja,a) = H(a)",
    ),
    "complexified": (
        "R(x,Jx,Jx,x) = H(x)",
        "0 (odd terms are imaginary)",
        "-[R(x,Jy,Jy,x) + 2R(x,Jx,Jy,y) + 2R(x,Jy,Jx,y) + R(y,Jx,Jx,y)]",
        "0 (odd terms are imaginary)",
        "R(y,Jy,Jy,y) = H(y)",
    ),
}


def _expansion_formulas(T: oracle.Tensor, family, x, a) -> list:
    """The five coefficients, evaluated from the formulas in _EXPANSION_TEXT."""
    R, J = T.eval, apply_J
    Jx, Ja = J(x), J(a)
    if family == "holomorphic":
        return [R(x, Jx, Jx, x),
                2 * (R(x, Jx, Jx, a) + R(x, Jx, Ja, x)),
                2 * R(x, Jx, Ja, a) + 2 * R(x, Ja, Jx, a) + R(a, Jx, Jx, a) + R(x, Ja, Ja, x),
                2 * (R(a, Ja, Ja, x) + R(a, Ja, Jx, a)),
                R(a, Ja, Ja, a)]
    return [R(x, Jx, Jx, x), 0,
            -(R(x, Ja, Ja, x) + 2 * R(x, Jx, Ja, a) + 2 * R(x, Ja, Jx, a) + R(a, Jx, Jx, a)),
            0, R(a, Ja, Ja, a)]


def _realizable_kinds(m: int, s: int) -> list:
    plus, minus = m - s, s
    kinds = []
    if plus >= 1 and minus >= 1:
        kinds.append("holomorphic")
    if plus >= 2 and minus >= 1:
        kinds += ["antiholomorphic:(+,+)", "antiholomorphic:(+,-)", "biholomorphic"]
    if minus >= 2 and plus >= 1:
        kinds.append("antiholomorphic:(-,-)")
    return kinds


def _model_family_value(model, c, kind) -> Fraction:
    """Curvature every plane of the family has on a model tensor."""
    kind = kind.split(":")[0]
    if model == "constant":
        return {"holomorphic": c, "antiholomorphic": c, "biholomorphic": Fraction(0)}[kind]
    return {"holomorphic": c, "antiholomorphic": c / 4, "biholomorphic": c / 2}[kind]


def _plane_value(T: oracle.Tensor, kind, u, v):
    """Witness curvature on span{u, v}; None when the plane is degenerate."""
    g = T.signs
    if kind == "biholomorphic":
        den = inner(g, u, u) * inner(g, v, v)
        return T.biholomorphic_normalized(u, v) if den else None
    if inner(g, u, u) * inner(g, v, v) - inner(g, u, v) ** 2 == 0:
        return None
    return T.sectional(u, v)


def _probe_check(T, model, out: str, ctx) -> list:
    rep = oracle.parse_report(out)
    kinds = _realizable_kinds(T.m, T.s)
    problems = []
    if rep.get("space") != f"m={T.m} s={T.s}":
        problems.append(f"space line {rep.get('space')!r}")
    if rep.get("max-kind") not in kinds:
        problems.append(f"max-kind {rep.get('max-kind')!r} is not realizable here")
    evaluations = int(rep["evaluations"])
    if model != "random":
        c = MODEL_C[model]
        expected = max(abs(_model_family_value(model, c, k)) for k in kinds)
        if rep["exceeded"] != "false" or "witness.kind" in rep:
            problems.append("bounded model reported a threshold crossing")
        if float(rep["max-abs"]) != float(expected):
            problems.append(f"max-abs {rep['max-abs']} != analytic {expected}")
        if evaluations != PROBE_PAIRS * len(kinds) * PROBE_RUNGS:
            problems.append(f"evaluations {evaluations} != full budget")
        return problems
    if rep["exceeded"] != "true" or "witness.kind" not in rep:
        return problems + ["random tensor reported no crossing"]
    kind = rep["witness.kind"]
    u, v = oracle.parse_vector(rep["witness.u"]), oracle.parse_vector(rep["witness.v"])
    value = Fraction(rep["witness.value"])
    if kind not in kinds:
        problems.append(f"witness kind {kind!r} is not realizable here")
    if kind == "holomorphic" and v != apply_J(u):
        problems.append("holomorphic witness plane is not span{u, Ju}")
    own = _plane_value(T, kind, u, v)
    if own != value:
        problems.append(f"witness value {value} != recomputed {own}")
    if not abs(value) > PROBE_THRESHOLD or float(rep["max-abs"]) != abs(float(value)):
        problems.append("witness value does not cross the threshold as reported")
    if evaluations > PROBE_PAIRS * len(kinds) * PROBE_RUNGS:
        problems.append(f"evaluations {evaluations} exceed the budget")
    return problems


def _expand_check(T, family, model, c, out: str, ctx) -> list:
    rep = oracle.parse_report(out)
    problems = []
    x, a = oracle.parse_vector(rep["pair.first"]), oracle.parse_vector(rep["pair.second"])
    pattern = (1, -1) if family == "holomorphic" else (1, 1)
    if not oracle.is_orthonormal_antiholomorphic(T.signs, [x, a], pattern):
        return [f"pair is not an orthonormal antiholomorphic {pattern} pair"]
    coeffs = [Fraction(rep[f"coeff.t{k}"]) for k in range(5)]
    for k in range(5):
        if rep[f"coeff.t{k}.meaning"] != _EXPANSION_TEXT[family][k]:
            problems.append(f"coeff.t{k}.meaning changed: {rep[f'coeff.t{k}.meaning']!r}")
    own = _expansion_formulas(T, family, x, a)
    if coeffs != own:
        problems.append(f"coefficients {coeffs} != formula values {own}")
    if model != "random":
        # H = c on every plane of the family, so the numerator is c (1 - t^2)^2
        if coeffs != [c, 0, -2 * c, 0, c]:
            problems.append(f"model expansion {coeffs} != c(1-t^2)^2 with c = {c}")
    compatible = oracle.divisible_by_one_minus_t2_squared(coeffs)
    if rep["bound.compatible"] != ("true" if compatible else "false"):
        problems.append(f"bound.compatible = {rep['bound.compatible']} disagrees")
    if (Fraction(rep["bound.round1.t=+1"]), Fraction(rep["bound.round1.t=-1"])) != \
            (oracle.poly_eval(coeffs, 1), oracle.poly_eval(coeffs, -1)):
        problems.append("round-1 bound values are not p(1), p(-1)")
    return problems


def build_pinch(seed: int, workdir: Path) -> list:
    rng = random.Random(f"pinch/{seed}")
    ops, paths = [], []

    def add_expand(T, path, model, c, family, count):
        perturb = [("t2 altered", partial(_bump, key="coeff.t2")),
                   ("compatible flipped", lambda r: _replace(
                       r, "bound.compatible", "false" if "compatible = true" in r else "true"))]
        if model == "random":
            # a model's expansion is symmetric in the pair, so swapping is no error there
            perturb.append(("pair swapped", partial(_swap, key_a="pair.first",
                                                    key_b="pair.second")))
        for _ in range(count):
            sd = rng.randrange(1_000_000)
            ops.append(Op(f"expand --family {family} {Path(path).stem} seed={sd}",
                          partial(run_cli, ["expand", "-i", path, "--family", family,
                                                    "--seed", str(sd)]),
                          partial(_expand_check, T, family, model, c), tuple(perturb)))

    for (m, s) in PINCH_SIGNATURES:
        tensors = {"constant": oracle.constant_curvature_form(m, s).scaled(MODEL_C["constant"]),
                   "space-form": oracle.space_form(m, s, MODEL_C["space-form"]),
                   "random": oracle.random_curvature_tensor(m, s, rng)}
        for model, T in tensors.items():
            path = _write(workdir, f"{model}-{m}-{s}", T)
            paths.append(path)
            sd = rng.randrange(1_000_000)
            perturb = ((("max-abs altered", partial(_bump, key="max-abs")),
                        ("exceeded flipped", lambda r: _replace(r, "exceeded", "true")))
                       if model != "random" else
                       (("witness value altered", partial(_bump, key="witness.value")),
                        ("witness swapped", partial(_swap, key_a="witness.u",
                                                    key_b="witness.v"))))
            ops.append(Op(f"probe {model} ({m},{s}) seed={sd}",
                          partial(run_cli, ["probe", "-i", path, "--pairs",
                                                    str(PROBE_PAIRS), "--seed", str(sd)]),
                          partial(_probe_check, T, model), perturb))
            add_expand(T, path, model, MODEL_C.get(model), "holomorphic", HOLO_EXPAND_SEEDS)
    for model, T in (("constant", oracle.constant_curvature_form(3, 0).scaled(MODEL_C["constant"])),
                     ("space-form", oracle.space_form(3, 0, MODEL_C["space-form"])),
                     ("random", oracle.random_curvature_tensor(3, 0, rng))):
        path = _write(workdir, f"{model}-3-0", T)
        paths.append(path)
        add_expand(T, path, model, MODEL_C.get(model), "complexified", EXPAND_SEEDS)
    _warm_up(paths)
    return ops


# -- classify ------------------------------------------------------------------

CLASSIFY_SIGNATURES = ((3, 0), (3, 1), (3, 2))
_KINDS = ("holomorphic", "antiholomorphic", "biholomorphic")


def _witness_value(T, kind, p1, p2):
    """Recomputed curvature of a witness plane; None if it is not a valid plane."""
    g = T.signs
    if kind == "holomorphic":
        return T.holomorphic(p1) if p2 == apply_J(p1) and inner(g, p1, p1) else None
    if kind == "antiholomorphic":
        if inner(g, p1, apply_J(p2)) != 0:
            return None
        return _plane_value(T, "antiholomorphic", p1, p2)
    if inner(g, p1, p2) or inner(g, p1, apply_J(p2)) \
            or abs(inner(g, p1, p1)) != 1 or abs(inner(g, p2, p2)) != 1:
        return None
    return T.biholomorphic_normalized(p1, p2)


def _classify_check(T, a, c, backend, out: str, ctx) -> list:
    rep = oracle.parse_report(out)
    problems = []
    if rep.get("backend") != backend or rep.get("space") != f"m={T.m} s={T.s}":
        problems.append("report header does not match the input")
    tol = FLOAT_TOL * max(1, float(T.max_abs()))
    if a is not None:
        expected = {"holomorphic": a + c, "antiholomorphic": a + c / 4,
                    "biholomorphic": c / 2}
        for kind in _KINDS:
            if rep.get(f"{kind}.status") != "constant":
                problems.append(f"{kind} verdict {rep.get(f'{kind}.status')!r} on a model")
                continue
            got = rep[f"{kind}.value"]
            ok = (Fraction(got) == expected[kind] if backend == "exact"
                  else abs(float(got) - float(expected[kind])) <= tol)
            if not ok:
                problems.append(f"{kind} value {got} != {expected[kind]}")
        return problems
    for kind in _KINDS:
        if rep.get(f"{kind}.status") != "nonconstant":
            problems.append(f"{kind} verdict {rep.get(f'{kind}.status')!r} on a random tensor")
            continue
        own = []
        for i in (1, 2):
            p1 = oracle.parse_vector(rep[f"{kind}.witness.plane.{i}.v1"])
            p2 = oracle.parse_vector(rep[f"{kind}.witness.plane.{i}.v2"])
            own.append(_witness_value(T, kind, p1, p2))
        if None in own:
            problems.append(f"{kind} witness plane is not a valid {kind} plane")
            continue
        for i, value in enumerate(own, start=1):
            got = rep[f"{kind}.witness.value.{i}"]
            ok = (Fraction(got) == value if backend == "exact"
                  else abs(float(got) - float(value)) <= tol * max(1, abs(float(value))))
            if not ok:
                problems.append(f"{kind} witness value {i} = {got} != recomputed {value}")
        if (own[0] == own[1]) if backend == "exact" else abs(float(own[0] - own[1])) <= tol:
            problems.append(f"{kind} witness values do not differ")
    return problems


def build_classify(seed: int, workdir: Path) -> list:
    rng = random.Random(f"classify/{seed}")
    ops, paths = [], []
    for (m, s) in CLASSIFY_SIGNATURES:
        a, c = oracle.random_rational(rng, 5, 3), oracle.random_rational(rng, 5, 3)
        pi1 = oracle.constant_curvature_form(m, s)
        docs = (("constant", pi1.scaled(a), a, Fraction(0)),
                ("space-form", oracle.space_form(m, s, c), Fraction(0), c),
                ("sum", pi1.scaled(a) + oracle.space_form(m, s, c), a, c),
                ("random", oracle.random_curvature_tensor(m, s, rng), None, None))
        for model, T, da, dc in docs:
            path = _write(workdir, f"{model}-{m}-{s}", T)
            paths.append(path)
            if da is None:
                perturb = (("witness values swapped", partial(
                                _swap, key_a="antiholomorphic.witness.value.1",
                                key_b="antiholomorphic.witness.value.2")),
                           ("witness planes mixed", partial(
                               _swap, key_a="biholomorphic.witness.plane.1.v2",
                               key_b="biholomorphic.witness.plane.2.v2")),
                           ("holomorphic value altered", partial(
                               _bump, key="holomorphic.witness.value.2")))
            else:
                perturb = (("model value altered", partial(_bump, key="antiholomorphic.value")),
                           ("verdict flipped", lambda r: _replace(
                               r, "biholomorphic.status", "nonconstant")))
            for backend in ("exact", "float"):
                sd = rng.randrange(1_000_000)
                ops.append(Op(f"classify --backend {backend} {model} ({m},{s}) seed={sd}",
                              partial(run_cli, ["classify", "-i", path, "--backend",
                                                        backend, "--probes",
                                                        str(CLASSIFY_PROBES), "--seed", str(sd)]),
                              partial(_classify_check, T, da, dc, backend), perturb))
    _warm_up(paths)
    return ops


WORKLOADS = {"impose": build_impose, "pinch": build_pinch, "classify": build_classify}
