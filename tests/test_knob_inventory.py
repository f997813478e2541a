"""The ``REPRO_*`` names the code reads are exactly the ones README's
"Environment knob reference" table documents."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
NAME = re.compile(r"REPRO_[A-Z_]*[A-Z]")


def names_in_source() -> set[str]:
    names = set()
    for top in ("src", "scripts"):
        for path in (REPO / top).rglob("*.py"):
            names.update(NAME.findall(path.read_text()))
    return names


def names_in_readme_reference() -> set[str]:
    readme = (REPO / "README.md").read_text()
    section = readme.split("### Environment knob reference", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return set(NAME.findall("\n".join(rows)))


def test_code_and_readme_name_the_same_knobs():
    in_code = names_in_source()
    in_readme = names_in_readme_reference()
    assert in_code == in_readme, (
        f"read but undocumented: {sorted(in_code - in_readme)}; "
        f"documented but not read: {sorted(in_readme - in_code)}"
    )

