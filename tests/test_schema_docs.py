"""The README's config schema lists every field of every table, with its
reader and its default, as the tables in ``latspec.cli`` and
``latspec.volume`` define them.  Run this file to print the lists."""

import json
from pathlib import Path

from latspec import cli, volume
from latspec.config import REQUIRED

README = Path(__file__).resolve().parents[1] / "README.md"


def _schema() -> dict:
    """Each documented table under its README heading."""
    out = {"Every config": cli.COMMON}
    out.update({f"`{name}`": table for name, table in cli.TABLES.items()})
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


if __name__ == "__main__":
    print("\n".join(render(heading, table) for heading, table in _schema().items()))
