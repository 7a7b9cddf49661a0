"""README drift: the documented run inputs, CSV columns and modules are the
code's."""

import re
from pathlib import Path

from ubrsim.cli import SCENARIO_INPUTS
from ubrsim.netsim import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_run_inputs_table_lists_exactly_the_scenario_flags():
    rows = [line for line in section("Run inputs").splitlines()
            if line.startswith("| `")]
    flags = [re.match(r"`(--[\w-]+)", row.split("|")[1].strip()).group(1)
             for row in rows]
    assert flags == ["--" + key.replace("_", "-") for key in SCENARIO_INPUTS]


def test_readme_column_list_is_csv_columns():
    listed = re.search(r"Columns:\s*`([^`]*)`", section("Results CSV")).group(1)
    assert tuple(re.split(r",\s*", listed)) == CSV_COLUMNS


def test_readme_layout_table_lists_exactly_the_modules():
    listed = re.findall(r"^\| `ubrsim\.(\w+)` \|", section("Layout"), re.M)
    modules = [p.stem for p in (ROOT / "src" / "ubrsim").glob("*.py")
               if p.stem not in ("__init__", "__main__")]
    assert sorted(listed) == sorted(modules)
