import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_use_block() -> str:
    """The python block under the README's "Library use" heading."""
    section = README.read_text().split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README 'Library use' section has no python block"
    return match.group(1)


def test_library_use_example_runs_within_its_budget(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    out = capsys.readouterr().out
    match = re.search(r"PrivacyReport\(epsilon=([^,]+),", out)
    assert match, out
    assert float(match.group(1)) <= 3.0


def test_importing_the_package_loads_no_module():
    # The README's promise: the submodules are the API and the package is empty.
    code = "import sys, dpselect; print(sorted(m for m in sys.modules if 'dpselect.' in m))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
