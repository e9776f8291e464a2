"""The demos and the README quick start run end to end."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [path.stem for path in DEMOS] == [
        "bound_reproduction", "convergence_rates", "monte_carlo_validation",
        "telescope_and_increments"]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.strip()


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    slope, passed, z_score = capsys.readouterr().out.splitlines()
    # the values the block's comments promise
    assert abs(float(slope.removeprefix("D(n) ~ n^")) + 1.9) < 0.05
    assert passed == "True"
    assert abs(float(z_score.removeprefix("z = "))) < 3
