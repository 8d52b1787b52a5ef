"""Each demo script runs to completion and prints its report."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    done = run_python([str(ROOT / "demos" / name)], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
