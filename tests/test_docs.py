"""The README quickstart and every demo script run as written; the module map is complete."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_readme_module_map_matches_the_package():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Module map", 1)[1].split("\n## ", 1)[0]
    mapped = set(re.findall(r"^\| `chainlab\.(\w+)` \|", section, re.MULTILINE))
    for name in sorted(mapped):
        importlib.import_module(f"chainlab.{name}")
    modules = {p.stem for p in (ROOT / "src" / "chainlab").glob("*.py")} - {"__init__", "__main__"}
    assert mapped == modules


def test_all_demos_collected():
    assert len(DEMOS) == 9


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("chainlab_demo_*")), "demo left its temp directory behind"
