"""Every demo script must run cleanly and produce its outputs."""

import runpy
import shutil
from pathlib import Path

import pytest

from quizbank import moodle_xml, serialize_bank

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMO_SCRIPTS = sorted(DEMO_DIR.glob("*.py"))


@pytest.fixture
def demo_copy(tmp_path):
    """Run demos from a scratch copy so repo checkouts stay clean."""

    def copy(script):
        target = tmp_path / script.name
        shutil.copy(script, target)
        return target

    return copy


@pytest.mark.parametrize("script", DEMO_SCRIPTS, ids=lambda p: p.stem)
def test_demo_runs(script, demo_copy, capsys):
    runpy.run_path(str(demo_copy(script)), run_name="__main__")
    capsys.readouterr()
    outputs = list((demo_copy(script).parent / "output").glob("*.xml"))
    assert outputs, f"{script.name} produced no bank"
    for output in outputs:
        # Read by the direct reader, not ElementTree, and written back unchanged.
        data = output.read_bytes()
        assert serialize_bank(moodle_xml._parse_own_layout(data.decode("utf-8"))) == data


def test_demos_exist():
    assert len(DEMO_SCRIPTS) >= 5
