import importlib.util
import io
import pathlib
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from curvlab import cli, linsolve
from curvlab.cli import main
from curvlab.harness import model_constant_sectional
from curvlab.io_format import (build_tensor, document_from_tensor, read_document,
                               serialize_document)
from curvlab.spaces import canonical_complex_structure, make_space

from conftest import run_python

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"


def _load_golden_commands() -> dict:
    """The command table of tools/make_golden.py, keyed by golden file name,
    with golden/ inputs made absolute so tests run from any directory."""
    spec = importlib.util.spec_from_file_location(
        "make_golden", ROOT / "tools" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: [str(ROOT / arg) if arg.startswith("golden/") else arg for arg in argv]
            for name, argv in {**module.TENSORS, **module.REPORTS}.items()}


GOLDEN_COMMANDS = _load_golden_commands()


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestGoldenCorpus:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_byte_identical_output(self, name):
        code, out = run_cli(GOLDEN_COMMANDS[name])
        assert code == 0
        assert out.encode("ascii") == (GOLDEN / name).read_bytes()

    def test_every_golden_file_has_a_command(self):
        # a golden file without a command would never be checked or regenerated
        assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(GOLDEN_COMMANDS)

    def test_repeat_run_is_byte_identical(self):
        argv = GOLDEN_COMMANDS["classify_spaceform.out"]
        assert run_cli(argv) == run_cli(argv)


class TestExitCodes:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"])[0] == 2

    def test_unknown_flag(self):
        assert run_cli(["probe", "--bogus"])[0] == 2

    def test_missing_file(self):
        assert run_cli(["classify", "-i", "/nonexistent.tensor"])[0] == 2

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.tensor"
        bad.write_text("not a tensor file\n")
        assert run_cli(["classify", "-i", str(bad)])[0] == 2

    @pytest.mark.parametrize("line,where", [
        (b"name = caf\xc3\xa9", "line 4, col 11:"),
        (b"R[1,2,2,1] = 1/0", "line 4, col 14:"),
        (b"R[1,2,2,1] = 1/000", "line 4, col 14:"),
    ])
    def test_hostile_file_is_a_located_parse_error(self, tmp_path, capsys, line, where):
        doc = tmp_path / "hostile.tensor"
        doc.write_bytes(b"curvlab-tensor/1\nm = 2\ns = 1\n" + line + b"\n")
        code, out = run_cli(["classify", "-i", str(doc)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: {where}")

    @pytest.mark.parametrize("model", ["constant", "space-form"])
    @pytest.mark.parametrize("c", ["abc", "nan", "1/3e", "1e5000", "1/0", "3.5", "1/-2",
                                   "3\n", "\u0663", "1" * 4301])
    def test_generate_refuses_a_constant_outside_the_document_grammar(self, capsys, model, c):
        code, out = run_cli(["generate", "--model", model, "--m", "1", "--s", "0", "--c", c])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: --c: ")

    def test_generate_writes_the_largest_accepted_constant(self, tmp_path):
        c = "9" * 4300 + "/7"
        doc = tmp_path / "big.tensor"
        assert run_cli(["generate", "--model", "constant", "--m", "1", "--s", "0",
                        "--c", c, "-o", str(doc)])[0] == 0
        R = build_tensor(read_document(doc))
        assert R.components[0, 1, 1, 0] == Fraction(int("9" * 4300), 7)

    def test_generate_reports_a_component_too_long_to_write(self, capsys):
        # the space form holds c/4, whose denominator here has 4301 digits
        code, out = run_cli(["generate", "--model", "space-form", "--m", "2", "--s", "0",
                             "--c", "1/" + "9" * 4300])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: a component has too many digits to write\n"

    def test_oversized_dimension_exits_quickly(self, tmp_path):
        text = (GOLDEN / "constant_2_1.tensor").read_text()
        big = tmp_path / "m40.tensor"
        big.write_text(text.replace("m = 2\n", "m = 40\n", 1))
        done = run_python(["-m", "curvlab.cli", "classify", "-i", str(big)], timeout=10)
        assert done.returncode == 2
        assert "m=40" in done.stderr

    def test_hypothesis_violation(self):
        code, _ = run_cli(["verify", "--theorem", "thm1", "--m", "2", "--s", "0",
                           "--trials", "1"])
        assert code == 2

    def test_verify_failure_exits_one(self):
        # unreachable threshold forces the unboundedness check to fail
        code, out = run_cli(["verify", "--theorem", "thm1", "--m", "2", "--s", "1",
                             "--trials", "1", "--seed", "5", "--threshold", "1e300"])
        assert code == 1
        assert "status = fail" in out

    def test_check_symmetries_failure_exits_one(self, tmp_path):
        doc = tmp_path / "asym.tensor"
        doc.write_text("curvlab-tensor/1\nm = 1\ns = 0\nR[1,2,2,1] = 1\n")
        code, out = run_cli(["check-symmetries", "-i", str(doc)])
        assert code == 1
        assert "check.antisym-12 = fail" in out

    @pytest.mark.parametrize("command", ["check-symmetries", "classify"])
    @pytest.mark.parametrize("entry", ["R[1,2,2,9] = 1", "R[0,2,2,1] = 1"])
    def test_entry_index_out_of_range(self, tmp_path, command, entry):
        doc = tmp_path / "range.tensor"
        doc.write_text(f"curvlab-tensor/1\nm = 1\ns = 0\n{entry}\n")
        assert run_cli([command, "-i", str(doc)])[0] == 2

    def test_zero_probes_rejected(self):
        code, _ = run_cli(["classify", "-i", str(GOLDEN / "spaceform_3_0.tensor"),
                           "--probes", "0"])
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_rejected(self, trials):
        code, out = run_cli(["verify", "--theorem", "lemma1", "--m", "2", "--s", "1",
                             "--trials", trials])
        assert code == 2
        assert "status = pass" not in out

    @pytest.mark.parametrize("budget", [["--pairs", "0"], ["--rungs", "-1"]])
    def test_empty_probe_budget_rejected(self, budget):
        code, out = run_cli(["probe", "-i", str(GOLDEN / "random_2_1.tensor"), *budget])
        assert code == 2
        assert "exceeded" not in out

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
    def test_degenerate_probe_threshold_rejected(self, threshold):
        code, out = run_cli(["probe", "-i", str(GOLDEN / "random_2_1.tensor"),
                             "--threshold", threshold])
        assert code == 2
        assert "exceeded" not in out
        code, out = run_cli(["verify", "--theorem", "thm1", "--m", "2", "--s", "1",
                             "--trials", "1", "--threshold", threshold])
        assert code == 2
        assert "status" not in out

    def test_uncertified_elimination_exits_two(self, monkeypatch, capsys):
        # with a tiny prime the echelon basis cannot be lifted and certified;
        # the ArithmeticError becomes an error line, not a traceback
        monkeypatch.setattr(linsolve, "_PRIME", 2)
        code, out = run_cli(["verify", "--theorem", "lemma1", "--m", "2", "--s", "1",
                             "--trials", "1"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_of_memory_exits_two(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "verify", exhausted)
        code, _ = run_cli(["verify", "--theorem", "lemma1", "--m", "2", "--s", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_invariant_violation_named(self, tmp_path, capsys):
        doc = tmp_path / "badj.tensor"
        doc.write_text("curvlab-tensor/1\nm = 1\ns = 0\nJ = custom\n"
                       "J[1] = 1 0\nJ[2] = 0 1\n")
        code, _ = run_cli(["classify", "-i", str(doc)])
        assert code == 2
        assert "J.square" in capsys.readouterr().err


class TestCommandBehavior:
    def test_parser_is_built_once_and_reused(self):
        assert cli.build_parser() is cli.build_parser()
        # a rejected command and a command's options leave the shared parser as it was
        assert run_cli(["probe", "--bogus"])[0] == 2
        assert run_cli(["probe", "-i", str(GOLDEN / "random_2_1.tensor"), "--pairs", "1",
                        "--seed", "9"])[0] == 0
        for name in ("probe_constant.out", "probe_random.out"):
            code, out = run_cli(GOLDEN_COMMANDS[name])
            assert code == 0 and out.encode("ascii") == (GOLDEN / name).read_bytes()

    def test_generate_to_file_and_classify(self, tmp_path):
        out_file = tmp_path / "t.tensor"
        code, _ = run_cli(["generate", "--model", "space-form", "--c", "4",
                           "--m", "3", "--s", "0", "-o", str(out_file)])
        assert code == 0
        code, out = run_cli(["classify", "-i", str(out_file), "--probes", "10"])
        assert code == 0
        assert "holomorphic.value = 4" in out
        assert "antiholomorphic.value = 1" in out
        assert "biholomorphic.value = 2" in out

    def test_expand_vanishing_expansion(self, tmp_path):
        flat = tmp_path / "flat.tensor"
        assert run_cli(["generate", "--model", "constant", "--m", "2", "--s", "1",
                        "--c", "0", "-o", str(flat)])[0] == 0
        code, out = run_cli(["expand", "-i", str(flat), "--family", "holomorphic"])
        assert code == 0
        for k in range(5):
            assert f"coeff.t{k} = 0\n" in out
        for label in ("round1.t=+1", "round1.t=-1", "round2.t=+1", "round2.t=-1"):
            assert f"bound.{label} = 0\n" in out
        assert "bound.compatible = true\n" in out

    @pytest.mark.parametrize("document,family,message", [
        # the frame is drawn before the expansion checks the space
        ("random_2_1.tensor", "complexified", "error: antiholomorphic pattern (1, 1) needs 2 "
         "positive and 0 negative J-blocks; space has 1 and 1\n"),
        ("random_3_1.tensor", "complexified",
         "error: complexified family expansion is a definite-metric tool\n"),
        ("random_3_0.tensor", "holomorphic", "error: antiholomorphic pattern (1, -1) needs 1 "
         "positive and 1 negative J-blocks; space has 3 and 0\n"),
    ])
    def test_expand_errors_keep_their_order(self, capsys, document, family, message):
        code, out = run_cli(["expand", "-i", str(GOLDEN / document), "--family", family])
        assert (code, out, capsys.readouterr().err) == (2, "", message)

    def test_expand_with_custom_J_is_refused(self, tmp_path, capsys):
        space = make_space(2, 1, J=-canonical_complex_structure(2))
        doc = tmp_path / "flipped.tensor"
        doc.write_text(serialize_document(document_from_tensor(
            model_constant_sectional(space, 1), name="flipped")), encoding="ascii")
        code, _ = run_cli(["expand", "-i", str(doc), "--family", "holomorphic"])
        assert (code, capsys.readouterr().err) == (
            2, "error: antiholomorphic tuples require the canonical J\n")

    @pytest.mark.parametrize("command", [["probe", "--pairs", "4"],
                                         ["expand", "--family", "holomorphic"]])
    def test_a_spelled_out_canonical_J_reads_as_canonical(self, tmp_path, command):
        # a custom J block equal to the canonical J gives a J of Fractions
        golden = GOLDEN / "random_2_1.tensor"
        rows = "\n".join(f"J[{r}] = " + " ".join(map(str, row))
                         for r, row in enumerate(canonical_complex_structure(2), start=1))
        doc = tmp_path / "spelled.tensor"
        doc.write_text(golden.read_text(encoding="ascii").replace(
            "J = canonical", "J = custom\n" + rows), encoding="ascii")
        name, *options = command
        assert (run_cli([name, "-i", str(doc), *options])
                == run_cli([name, "-i", str(golden), *options]))

    def test_probe_bounded_report(self):
        code, out = run_cli(["probe", "-i", str(GOLDEN / "constant_2_1.tensor")])
        assert code == 0
        assert "exceeded = false" in out
        assert "max-abs = 3.0" in out

    def test_classify_with_custom_J_keeps_the_holomorphic_verdict(self, tmp_path):
        # antiholomorphic frames need the canonical J; the holomorphic verdict
        # is still reported, and the other two are marked unavailable
        space = make_space(3, 0, J=-canonical_complex_structure(3))
        doc = tmp_path / "flipped.tensor"
        doc.write_text(serialize_document(document_from_tensor(
            model_constant_sectional(space, 1), name="flipped")), encoding="ascii")
        code, out = run_cli(["classify", "-i", str(doc)])
        assert code == 0
        assert out.splitlines()[-4:] == [
            "holomorphic.status = constant", "holomorphic.value = 1",
            "antiholomorphic.status = unavailable (needs the canonical J)",
            "biholomorphic.status = unavailable (needs the canonical J)"]

    def test_float_backend_classify(self):
        code, out = run_cli(["classify", "-i", str(GOLDEN / "spaceform_3_0.tensor"),
                             "--backend", "float", "--probes", "5"])
        assert code == 0
        assert "backend = float" in out
        assert "holomorphic.status = constant" in out

    def test_lemma3_disagreement_impossible_on_models(self):
        code, out = run_cli(["lemma3", "-i", str(GOLDEN / "spaceform_3_0.tensor"),
                             "--probes", "5"])
        assert code == 0
        assert "agree = true" in out


NUMPY_MODULES_SCRIPT = """
import contextlib, io, sys
import numpy, curvlab

def numpy_modules():
    return {name for name in sys.modules if name.split(".")[0] == "numpy"}

before = numpy_modules()
from curvlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in sys.argv[1:]:
        assert main(argv.split()) == 0, argv
print(" ".join(sorted(numpy_modules() - before)))
"""


def test_commands_load_no_numpy_module_past_the_imports():
    # Memory guard: a numpy module loaded on first use (numpy.ma, which a
    # bare 1-D np.unique pulls in, costs about 1.3 MiB of RSS) would raise
    # every command's peak RSS.  impose (through verify), classify on both
    # backends, probe and expand run in a fresh process, and load no numpy
    # module that `import numpy, curvlab` did not.
    commands = [
        "verify --theorem thmA --m 3 --s 1 --trials 1",
        "verify --theorem thm6 --m 4 --s 0 --trials 1",
        f"classify -i {GOLDEN / 'random_3_1.tensor'} --probes 6",
        f"classify -i {GOLDEN / 'random_3_1.tensor'} --probes 6 --backend float",
        f"probe -i {GOLDEN / 'random_2_1.tensor'}",
        f"expand -i {GOLDEN / 'random_3_1.tensor'} --family holomorphic --seed 5",
    ]
    done = run_python(["-c", NUMPY_MODULES_SCRIPT, *commands], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
