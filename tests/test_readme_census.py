"""README's code census has one row per package under ``src/repro``.

Names only: the line counts in the table may age, but a package added or
removed without touching the census -- without saying which figure,
extension or piece of infrastructure it serves, which bench workload
executes it and what tests it -- fails here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_package_has_a_census_row():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("<!-- census:begin -->")[1].split("<!-- census:end -->")[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    packages = sorted(
        path.name for path in (ROOT / "src" / "repro").iterdir()
        if (path / "__init__.py").is_file()
    )
    assert packages, "no packages found under src/repro"
    assert sorted(rows) == packages
