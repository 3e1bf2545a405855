"""The README's library example runs against the current API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(_quick_start_code(), str(README), "exec"), {})
    support, nmse_db = capsys.readouterr().out.rsplit("]", 1)
    assert support.startswith("[")
    assert math.isfinite(float(nmse_db))
