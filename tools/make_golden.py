#!/usr/bin/env python3
"""Regenerate the golden CLI corpus under golden/.

Every artifact is produced through the CLI entry point with fixed seeds, so
test_cli.py can re-run the same commands and demand byte equality.
"""

import io
import pathlib
import sys
from contextlib import redirect_stdout

from curvlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"

TENSORS = {
    "spaceform_3_0.tensor": ["generate", "--model", "space-form", "--c", "4",
                             "--m", "3", "--s", "0"],
    "constant_2_1.tensor": ["generate", "--model", "constant", "--c", "3",
                            "--m", "2", "--s", "1"],
    "random_2_1.tensor": ["generate", "--model", "random", "--m", "2",
                          "--s", "1", "--seed", "7"],
    "random_3_1.tensor": ["generate", "--model", "random", "--m", "3",
                          "--s", "1", "--seed", "11"],
    "random_3_0.tensor": ["generate", "--model", "random", "--m", "3",
                          "--s", "0", "--seed", "13"],
    "spaceform_3_1.tensor": ["generate", "--model", "space-form", "--c", "2",
                             "--m", "3", "--s", "1"],
}

REPORTS = {
    "classify_spaceform.out": ["classify", "-i", "golden/spaceform_3_0.tensor",
                               "--probes", "20"],
    "classify_random.out": ["classify", "-i", "golden/random_2_1.tensor"],
    "classify_random_3_1.out": ["classify", "-i", "golden/random_3_1.tensor",
                                "--probes", "6"],
    "classify_random_3_1_float.out": ["classify", "-i", "golden/random_3_1.tensor",
                                      "--probes", "6", "--backend", "float"],
    "classify_spaceform_float.out": ["classify", "-i", "golden/spaceform_3_0.tensor",
                                     "--probes", "20", "--backend", "float"],
    "expand_constant_holomorphic.out": ["expand", "-i", "golden/constant_2_1.tensor",
                                        "--family", "holomorphic", "--seed", "5"],
    "expand_spaceform_complexified.out": ["expand", "-i", "golden/spaceform_3_0.tensor",
                                          "--family", "complexified", "--seed", "5"],
    "expand_random_3_0_complexified.out": ["expand", "-i", "golden/random_3_0.tensor",
                                           "--family", "complexified", "--seed", "5"],
    "expand_random_3_1_holomorphic.out": ["expand", "-i", "golden/random_3_1.tensor",
                                          "--family", "holomorphic", "--seed", "5"],
    "probe_constant.out": ["probe", "-i", "golden/constant_2_1.tensor"],
    "probe_random.out": ["probe", "-i", "golden/random_2_1.tensor"],
    "probe_spaceform_3_1.out": ["probe", "-i", "golden/spaceform_3_1.tensor"],
    "verify_lemma1.out": ["verify", "--theorem", "lemma1", "--m", "2", "--s", "1",
                          "--trials", "3", "--seed", "7"],
    "verify_thm5.out": ["verify", "--theorem", "thm5", "--m", "2", "--s", "0",
                        "--trials", "2", "--seed", "3"],
    "verify_thm7.out": ["verify", "--theorem", "thm7", "--m", "3", "--s", "0",
                        "--trials", "1", "--seed", "3"],
    "verify_thm5_4_0.out": ["verify", "--theorem", "thm5", "--m", "4", "--s", "0",
                            "--trials", "2", "--seed", "3"],
    "verify_thm7_4_0.out": ["verify", "--theorem", "thm7", "--m", "4", "--s", "0",
                            "--trials", "2", "--seed", "3"],
    "verify_remark1_3_1.out": ["verify", "--theorem", "remark1", "--m", "3",
                               "--s", "1", "--trials", "1", "--seed", "3"],
    "verify_remark1_3_2.out": ["verify", "--theorem", "remark1", "--m", "3",
                               "--s", "2", "--trials", "1", "--seed", "3"],
    "verify_thm4.out": ["verify", "--theorem", "thm4", "--m", "3", "--s", "1",
                        "--trials", "1", "--seed", "3"],
    "verify_thm1_2_1.out": ["verify", "--theorem", "thm1", "--m", "2", "--s", "1",
                            "--trials", "2", "--seed", "3"],
    "verify_thm2_3_1.out": ["verify", "--theorem", "thm2", "--m", "3", "--s", "1",
                            "--trials", "1", "--seed", "3"],
    "verify_thmA_3_1.out": ["verify", "--theorem", "thmA", "--m", "3", "--s", "1",
                            "--trials", "2", "--seed", "3"],
    "verify_thm3_3_1.out": ["verify", "--theorem", "thm3", "--m", "3", "--s", "1",
                            "--trials", "2", "--seed", "3"],
    "verify_thm6_3_0.out": ["verify", "--theorem", "thm6", "--m", "3", "--s", "0",
                            "--trials", "2", "--seed", "3"],
    "verify_thmA_6_3.out": ["verify", "--theorem", "thmA", "--m", "6", "--s", "3",
                            "--trials", "2", "--seed", "3"],
    "lemma3_spaceform.out": ["lemma3", "-i", "golden/spaceform_3_0.tensor",
                             "--probes", "10"],
    "check_spaceform.out": ["check-symmetries", "-i", "golden/spaceform_3_0.tensor",
                            "--bianchi"],
}


def capture(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"command {argv} exited {code}")
    return buf.getvalue()


def run() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in TENSORS.items():
        (GOLDEN / name).write_text(capture(argv), encoding="ascii")
        print(f"wrote golden/{name}")
    for name, argv in REPORTS.items():
        (GOLDEN / name).write_text(capture(argv), encoding="ascii")
        print(f"wrote golden/{name}")


if __name__ == "__main__":
    import os
    os.chdir(ROOT)
    run()
