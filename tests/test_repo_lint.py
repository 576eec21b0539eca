"""Repository checks that tier-1 can run without the CI tooling.

Two gates a deletion can break silently:

1. **Unused imports** — the F401 subset of the ``ruff.toml`` rule set,
   re-implemented with :mod:`ast`: a module-level import whose bound name is
   never read in the module and is not listed in ``__all__`` (a ``# noqa``
   on the import line, or a redundant ``import x as x`` re-export, exempts
   it, as in ruff).
2. **The CI workflow's references** — every repo path that
   ``.github/workflows/ci.yml`` names (scripts, test files, globs, the
   ``PYTHONPATH``) exists, and every ``REPRO_KERNEL`` value it loops over
   is an accepted variant.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

from repro.sparse import KERNEL_VARIANTS

ROOT = Path(__file__).resolve().parent.parent
LINTED_DIRS = ("src", "tests", "benchmarks", "examples")
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"


# ----------------------------------------------------------------------
# 1. F401: unused module-level imports
# ----------------------------------------------------------------------
def _module_level_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of every import outside a def/class body."""
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    yield alias.name.split(".")[0], node.lineno
                elif alias.asname != alias.name:
                    yield alias.asname, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield alias.asname or alias.name, node.lineno
        else:
            stack.extend(ast.iter_child_nodes(node))


def _names_read(tree: ast.Module) -> Set[str]:
    """Every name the module reads, ``__all__`` entries and string annotations included."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.update(
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for c in ast.walk(annotation):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    try:
                        quoted = ast.parse(c.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(
                        n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                    )
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every unused module-level import in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _names_read(tree)
    return sorted(
        (line, name)
        for name, line in _module_level_imports(tree)
        if name not in read and "# noqa" not in lines[line - 1]
    )


def _python_files() -> List[Path]:
    return sorted(p for d in LINTED_DIRS for p in (ROOT / d).rglob("*.py"))


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in _python_files()
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == [], "unused imports (ruff F401):\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source,expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.getcwd()\n", []),
        ("from typing import List, Dict\nx: List[int] = []\n", ["Dict"]),
        ("from a import b as c\n", ["c"]),
        ("from a import b as b\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b  # noqa: F401\n", []),
        ("from __future__ import annotations\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from a import B\n"
         "def f(x: 'B') -> None:\n    pass\n", []),
        ("import json\ndef f():\n    return json.dumps(1)\n", []),
        ("def f():\n    import json\n", []),
    ],
)
def test_unused_import_checker(source, expected):
    assert [name for _line, name in unused_imports(source)] == expected


# ----------------------------------------------------------------------
# 2. The CI workflow's references
# ----------------------------------------------------------------------
_PATH_TOKEN = re.compile(
    r"(?<![\w./${-])((?:\.\./)*[\w.*-]+(?:/[\w.*-]+)*\.(?:py|json|toml|md|cfg|txt))(?![\w/])"
)
#: flags after which the workflow names a file it writes, not one it reads
_OUTPUT_FLAG = re.compile(r"(?:--out|--records|>|\btee|(?<![\w-])path:)\s+(\S+)")


def _ci_lines() -> List[str]:
    return [
        line for line in CI_FILE.read_text(encoding="utf-8").splitlines()
        if not line.lstrip().startswith("#")
    ]


def _ci_path_references() -> List[Tuple[str, Path]]:
    """(token, directory it resolves against) for every path the workflow reads."""
    lines = _ci_lines()
    written = {Path(m).name for line in lines for m in _OUTPUT_FLAG.findall(line)}
    refs = []
    for line in lines:
        cd = re.search(r"\bcd\s+(\S+)\s*&&", line)
        base = ROOT / cd.group(1) if cd else ROOT
        for token in _PATH_TOKEN.findall(line):
            if Path(token).name not in written:
                refs.append((token, base))
        for token in re.findall(r"PYTHONPATH=([\w./]+)", line):
            refs.append((token, base))
    return refs


def test_ci_names_only_existing_repo_paths():
    refs = _ci_path_references()
    assert any(token == "tests/test_golden_ledger.py" for token, _ in refs)
    missing = [
        token for token, base in refs
        if not (list(base.glob(token)) if "*" in token else (base / token).exists())
    ]
    assert missing == [], f"ci.yml names paths that do not exist: {missing}"


def test_ci_kernel_loops_use_accepted_variants():
    loops = [
        re.search(r"for variant in ([\w ]+);", line) for line in _ci_lines()
    ]
    values = {v for m in loops if m for v in m.group(1).split()}
    assert values, "ci.yml no longer loops over REPRO_KERNEL values"
    assert values <= set(KERNEL_VARIANTS), values - set(KERNEL_VARIANTS)
