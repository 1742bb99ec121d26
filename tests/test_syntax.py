"""Every source, test and perfbench file parses under the oldest Python
that pyproject.toml's ``requires-python`` admits, so syntax newer than that
floor (``except*``, for one) fails here, on any interpreter that runs the
suite."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_under_the_declared_minimum_python():
    floor = re.search(r'requires-python\s*=\s*">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = (3, int(floor.group(1)))
    sources = sorted([*ROOT.glob("src/clocksim/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")])
    assert len(sources) > 20
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=version)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == [], version
