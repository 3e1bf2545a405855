"""The README's library example runs against the current API, and its CLI tables match the CLI."""

import math
import re
from pathlib import Path

from test_cli import TINY

from cspilot import cli

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


def test_cli_section_lists_every_config_key_with_its_default():
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `([^`]+)` \| (`[^`]*`|empty) \|", section, re.MULTILINE))
    for name, experiment in cli.EXPERIMENTS.items():
        for key, (default, _) in experiment.keys.items():
            assert (key, f"`{default}`" if default else "empty") in rows, (name, key)


def test_cli_table_row_schemas_match_the_csv_headers(tmp_path):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    schemas = dict(re.findall(r"^\| `([^`]+)` \| [^|]* \| `([^`]+)` \|$", section, re.MULTILINE))
    assert set(schemas) == set(cli.EXPERIMENTS)
    for experiment, schema in schemas.items():
        out = tmp_path / f"{experiment}.csv"
        assert cli.main([experiment, "--out", str(out), *TINY[experiment]]) == 0
        header = next(ln for ln in out.read_text(encoding="utf-8").splitlines() if not ln.startswith("#"))
        assert header == schema, experiment
