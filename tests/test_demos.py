import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"
DEMOS = sorted(p.stem for p in (REPO / "demos").glob("*.py"))


def test_every_demo_has_its_output():
    assert DEMOS and DEMOS == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_its_recorded_output(name):
    # demo output is part of the behaviour spec: any change to a printed
    # number shows up as a line difference
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(REPO / "demos" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == (EXPECTED / f"{name}.txt").read_text().splitlines()
