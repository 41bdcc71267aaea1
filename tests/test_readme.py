import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
