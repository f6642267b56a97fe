import ast
import re
from pathlib import Path

import miscorr
from miscorr import errors

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in miscorr.__all__ if not hasattr(miscorr, name)]
    assert missing == []
    assert len(set(miscorr.__all__)) == len(miscorr.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from miscorr import *", namespace)
    assert set(miscorr.__all__) <= set(namespace)


def _error_table() -> dict[str, tuple[str, str]]:
    """Code -> (exit, refused by) of each row of the README's "Error codes"
    table, which must list a code once."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Error codes\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+) \| ([^|]+) \|", section, re.MULTILINE)
    assert len({code for code, _, _ in rows}) == len(rows)
    return {code: (status, who) for code, status, who in rows}


def _string_constants(path: Path, in_calls: bool = False) -> set[str]:
    """The string literals of a module; with ``in_calls``, only those passed
    to a call as a positional argument, as cli.py passes its codes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = ([arg for call in ast.walk(tree) if isinstance(call, ast.Call) for arg in call.args]
             if in_calls else ast.walk(tree))
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_the_readme_error_table_lists_each_code_once_and_a_test_names_each_cli_code():
    table = _error_table()
    classes = [c for c in vars(errors).values() if isinstance(c, type) and "code" in vars(c)]
    emitted = {s for s in _string_constants(ROOT / "src/miscorr/cli.py", in_calls=True)
               if re.fullmatch(r"[A-Z][A-Z_]+", s)}
    assert set(table) == {c.code for c in classes} | emitted
    for cls in classes:  # the CLI's exit status follows the class
        assert table[cls.code][0] == ("warning" if issubclass(cls, Warning) else
                                      "3" if issubclass(cls, errors.NumericalError) else "2")
    library_only = {code for code, (_, who) in table.items() if who == "library only"}
    assert not library_only & emitted
    # every code the CLI can emit is named, so produced, by a test other than this one
    named = set().union(*(_string_constants(path) for path in (ROOT / "tests").glob("test_*.py")
                          if path.name != Path(__file__).name))
    assert set(table) - library_only - named == set()
