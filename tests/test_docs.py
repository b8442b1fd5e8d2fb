"""The README's examples run as written, its odds-table CSV is the golden
report, and the package's export list names each public object once."""

import re
from pathlib import Path

import pennyflip as pf
from test_cli import GOLDEN_ODDS_CSV

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_odds_table_csv_is_the_golden_report():
    command = "$ pennyflip odds-table --format csv\n"
    shown = re.findall(
        rf"^```sh\n{re.escape(command)}(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE
    )
    assert shown == [GOLDEN_ODDS_CSV]


def test_every_export_resolves_once():
    assert len(pf.__all__) == len(set(pf.__all__))
    missing = [name for name in pf.__all__ if not hasattr(pf, name)]
    assert missing == []
