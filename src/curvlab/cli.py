"""Command-line front end: tensor file I/O and deterministic reports.

Reports are line oriented (``key = value``) and byte-identical for identical
arguments, seeds and input files.  Exit codes: 0 success / verification pass,
1 verification failure or violated symmetry check, 2 usage errors, malformed
input, or hypothesis-violating parameters.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

import numpy as np

from .constancy import (ConstancyVerdict, constant_antiholomorphic,
                        constant_biholomorphic, constant_holomorphic,
                        lemma3_check)
from .harness import (HypothesisError, THEOREM_IDS, model_complex_space_form,
                      model_constant_sectional, probe_unboundedness,
                      random_tensor, verify)
from .io_format import (ParseError, build_tensor, document_from_tensor,
                        parse_rational, read_document, serialize_document)
from .polarization import (FAMILIES, bound_forced_identities, family_numerators,
                           require_family_frame)
from .scalars import format_scalar
from .spaces import GeometryError, frame_vectors, integer_frame, make_space

REPORT_HEADER = "curvlab-report/1"

_EXPANSION_MEANING = {
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


def _fmt_vec(vec) -> str:
    return " ".join(repr(v) if isinstance(v, float) else format_scalar(Fraction(v))
                    for v in np.asarray(vec))


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _report(command: str, doc, lines) -> None:
    """Write the report of `command` on the document `doc`: the shared
    header, then `lines`."""
    _emit([REPORT_HEADER, f"command = {command}", f"input = {doc.name or '(unnamed)'}",
           f"space = m={doc.m} s={doc.s}", *lines])


def _verdict_lines(prefix: str, verdict: ConstancyVerdict) -> list[str]:
    lines = [f"{prefix}.status = {verdict.status}"]
    if verdict.is_constant:
        lines.append(f"{prefix}.value = {format_scalar(verdict.value)}")
    else:
        w = verdict.witness
        lines.append(f"{prefix}.witness.value.1 = {format_scalar(w.values[0])}")
        lines.append(f"{prefix}.witness.value.2 = {format_scalar(w.values[1])}")
        for pi, plane in enumerate(w.planes, start=1):
            for vi, vec in enumerate(plane, start=1):
                lines.append(f"{prefix}.witness.plane.{pi}.v{vi} = {_fmt_vec(vec)}")
    return lines


# -- subcommands -------------------------------------------------------------

def _cmd_generate(args) -> int:
    space = make_space(args.m, args.s)
    if args.model in ("constant", "space-form"):
        try:
            # the document rule, so that the models' components can be written
            c = parse_rational(args.c)
        except ValueError as exc:
            raise GeometryError(f"--c: {exc}") from None
        model = model_constant_sectional if args.model == "constant" else model_complex_space_form
        R = model(space, c)
        name = args.name or f"{args.model}-{args.c.replace('/', 'over')}"
    else:
        R = random_tensor(space, args.seed, bianchi=not args.no_bianchi)
        name = args.name or f"random-{args.seed}"
    doc = document_from_tensor(R, name=name,
                               seed=args.seed if args.model == "random" else None)
    text = serialize_document(doc)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check_symmetries(args) -> int:
    doc = read_document(args.input)
    bad = build_tensor(doc, validate=False).symmetry_failures(args.bianchi or doc.bianchi)
    names = ["antisym-12", "antisym-34", "pair-exchange"]
    if args.bianchi or doc.bianchi:
        names.append("bianchi")
    lines = [f"check.{name} = {'fail' if name in bad else 'pass'}" for name in names]
    lines.append(f"status = {'fail' if bad else 'pass'}")
    _report("check-symmetries", doc, lines)
    return 1 if bad else 0


def _cmd_classify(args) -> int:
    doc = read_document(args.input)
    R = build_tensor(doc)
    if args.backend == "float":
        R = R.to_float()
    lines = [f"backend = {args.backend}"]
    lines += _verdict_lines("holomorphic", constant_holomorphic(R, seed=args.seed))
    # antiholomorphic frames are drawn for the canonical block structure only
    missing = ("m > 2" if R.space.m <= 2 else
               None if R.space.has_canonical_J else "the canonical J")
    if missing is None:
        lines += _verdict_lines(
            "antiholomorphic",
            constant_antiholomorphic(R, probes=args.probes, seed=args.seed))
        lines += _verdict_lines(
            "biholomorphic",
            constant_biholomorphic(R, probes=args.probes, seed=args.seed))
    else:
        lines.append(f"antiholomorphic.status = unavailable (needs {missing})")
        lines.append(f"biholomorphic.status = unavailable (needs {missing})")
    _report("classify", doc, lines)
    return 0


def _cmd_expand(args) -> int:
    doc = read_document(args.input)
    R = build_tensor(doc)
    N, D = integer_frame(R.space, random.Random(args.seed), FAMILIES[args.family].pattern,
                         antiholomorphic=True)
    require_family_frame(R, args.family, N, D)
    # the coefficients and the bound values (the bound is linear) over D_p
    poly, D_p = family_numerators(R, args.family, N, D)
    x, w = frame_vectors(N, D)
    envelope = 2
    lines = [f"family = {args.family}",
             f"seed = {args.seed}",
             f"pair.first = {_fmt_vec(x)}",
             f"pair.second = {_fmt_vec(w)}"]
    coeffs = list(poly.coeffs) + [0] * (5 - len(poly.coeffs))
    for k in range(5):
        lines.append(f"coeff.t{k} = {format_scalar(Fraction(coeffs[k], D_p))}")
        lines.append(f"coeff.t{k}.meaning = {_EXPANSION_MEANING[args.family][k]}")
    constraints = bound_forced_identities(poly, multiplicity=envelope)
    labels = ["round1.t=+1", "round1.t=-1", "round2.t=+1", "round2.t=-1"]
    for label, value in zip(labels, constraints):
        lines.append(f"bound.{label} = {format_scalar(Fraction(value, D_p))}")
    forced = len(constraints) == 2 * envelope and all(v == 0 for v in constraints)
    lines.append(f"bound.compatible = {'true' if forced else 'false'}")
    _report("expand", doc, lines)
    return 0


def _cmd_probe(args) -> int:
    doc = read_document(args.input)
    R = build_tensor(doc)
    report = probe_unboundedness(R, threshold=args.threshold,
                                 budget=(args.pairs, args.rungs), seed=args.seed)
    lines = [f"threshold = {report.threshold!r}",
             f"budget = {args.pairs}x{args.rungs}",
             f"seed = {args.seed}",
             f"exceeded = {'true' if report.exceeded else 'false'}",
             f"max-abs = {report.max_abs!r}",
             f"max-kind = {report.max_kind or '(none)'}",
             f"evaluations = {report.evaluations}"]
    if report.witness is not None:
        w = report.witness
        lines += [f"witness.kind = {w.kind}",
                  f"witness.t = {format_scalar(w.t)}",
                  f"witness.value = {format_scalar(w.value)}",
                  f"witness.u = {_fmt_vec(w.u)}",
                  f"witness.v = {_fmt_vec(w.v)}"]
    _report("probe", doc, lines)
    return 0


def _cmd_verify(args) -> int:
    space = make_space(args.m, args.s)
    report = verify(args.theorem, space, trials=args.trials, seed=args.seed,
                    threshold=args.threshold)
    lines = [REPORT_HEADER, "command = verify",
             f"theorem = {report.theorem_id}",
             f"space = m={report.m} s={report.s}",
             f"trials = {report.trials}",
             f"seed = {report.seed}",
             f"status = {report.status}"]
    for idx, item in enumerate(report.items, start=1):
        lines.append(f"check.{idx} = {item}")
    _emit(lines)
    return 0 if report.passed else 1


def _cmd_lemma3(args) -> int:
    doc = read_document(args.input)
    R = build_tensor(doc)
    rep = lemma3_check(R, probes=args.probes, seed=args.seed)
    lines = [f"condition.a = {str(rep.condition_a).lower()}",
             f"condition.b = {str(rep.condition_b).lower()}",
             f"condition.c = {str(rep.condition_c).lower()}",
             f"agree = {str(rep.agree).lower()}"]
    if rep.verdict_c.is_constant:
        lines.append(f"value = {format_scalar(rep.verdict_c.value)}")
    _report("lemma3", doc, lines)
    return 0 if rep.agree else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: in-process callers
    run many commands, and parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Curvature algebra for almost Hermitian inner-product spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a model or random tensor document")
    p.add_argument("--model", choices=("constant", "space-form", "random"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--c", default="1", help="curvature constant (rational) for models")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-bianchi", action="store_true",
                   help="skip the Bianchi projection of random tensors")
    p.add_argument("--name", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check-symmetries", help="validate tensor symmetries in a file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--bianchi", action="store_true", help="also check the Bianchi sum")
    p.set_defaults(func=_cmd_check_symmetries)

    p = sub.add_parser("classify", help="constancy verdicts for all three curvatures")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=60)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("expand", help="pinching-family coefficient table")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--family", choices=("holomorphic", "complexified"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("probe", help="push curvature past a threshold near isotropic planes")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--threshold", type=float, default=1e6)
    p.add_argument("--pairs", type=int, default=64)
    p.add_argument("--rungs", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("verify", help="run one catalog theorem end to end")
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemma3", help="three-way equivalence report (definite, m > 2)")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=60)
    p.set_defaults(func=_cmd_lemma3)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"error: hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, OSError, ArithmeticError) as exc:
        # ArithmeticError: exact elimination could not certify its result
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
