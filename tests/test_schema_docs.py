"""The README's config schema lists every field of every table, with its
reader and its default, as the tables in ``latspec.cli`` and
``latspec.volume`` define them, and its table of limits lists every
``*_LIMIT`` constant with its value.  Run this file to print the lists."""

import importlib
import json
import re
from pathlib import Path

from latspec import cli, volume
from latspec.config import REQUIRED

README = Path(__file__).resolve().parents[1] / "README.md"


def _schema() -> dict:
    """Each documented table under its README heading."""
    out = {"Every config": cli.COMMON}
    out.update({f"`{name}`": table for name, table in cli.TABLES.items()})
    out["`spectral-report` of a Kronecker system"] = cli.KRONECKER_REPORT
    out.update({f"`system` of kind `{kind}`": table for kind, table in cli.SYSTEMS.items()})
    out["Kronecker `theta` entry"] = cli.THETA_ENTRY
    out.update({f"`set_b` of kind `{kind}`": table for kind, table in cli.SET_B.items()})
    out["`ergodic_set`"] = cli.ERGODIC_SET
    out["`bounds`"] = cli.BOUNDS
    out["`haystack`"] = cli.HAYSTACK
    out.update({f"Point set of kind `{kind}`": table for kind, table in volume.POINT_SETS.items()})
    return out


def _default(default) -> str:
    return "required" if default is REQUIRED else "none" if default is None else f"`{json.dumps(default)}`"


def render(heading: str, table: dict) -> str:
    if not table:
        return f"#### {heading}\n\nNo fields besides `kind`.\n"
    rows = [f"| `{name}` | {reader.__name__} | {_default(default)} |" for name, (reader, default) in table.items()]
    return "\n".join([f"#### {heading}", "", "| field | reader | default |", "|---|---|---|", *rows, ""])


def test_readme_lists_every_table_field_with_its_reader_and_default():
    text = README.read_text()
    missing = [heading for heading, table in _schema().items() if render(heading, table) not in text]
    assert not missing


def _limits() -> dict[str, int]:
    """Each module-level ``*_LIMIT`` constant of the package, under its home module."""
    out = {}
    for path in sorted(Path(volume.__file__).parent.glob("*.py")):
        for name in re.findall(r"^([A-Z_]+_LIMIT) = ", path.read_text(), re.M):
            out[f"{path.stem}.{name}"] = getattr(importlib.import_module(f"latspec.{path.stem}"), name)
    return out


def test_readme_lists_every_limit_with_its_value():
    # a row is | `module.NAME_LIMIT` | value | ...; a value is written as 2 * 10^7
    rows = re.findall(r"^\| `(\w+\.\w+_LIMIT)` \| ([0-9 *^]+) \|", README.read_text(), re.M)
    documented = {name: eval(value.replace("^", "**"), {"__builtins__": {}}) for name, value in rows}
    limits = _limits()
    # TABLE_LIMIT only chooses the int64 kernel path; it refuses nothing
    assert documented == {name: value for name, value in limits.items() if name != "kernels.TABLE_LIMIT"}
    assert len(rows) == len(documented)


if __name__ == "__main__":
    print("\n".join(render(heading, table) for heading, table in _schema().items()))
