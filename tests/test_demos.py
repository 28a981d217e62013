"""The demo scripts run from start to end.

Each demo is copied to a temporary directory and run in-process there, so
the files it writes land beside the copy and not in ``demos/output``.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("[0-9][0-9]_*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, capsys):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out.strip()
