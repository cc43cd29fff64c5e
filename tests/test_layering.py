"""Import rule: no module imports a private (underscore, non-dunder) name from
another unit.

A unit is a top-level module or package under ``qpf`` (``qpf.cli``,
``qpf.hhl``, ``qpf.grid``, ``qpf.complexity``, ``qpf.qsim``, ...).  Modules
inside one package may share private helpers; crossing a unit boundary goes
through public names only.
"""

import ast
from pathlib import Path

import qpf

SRC = Path(qpf.__file__).resolve().parent


def unit_of(module: str) -> str:
    return ".".join(module.split(".")[:2])


def private_cross_unit_imports(root: Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        where = path.relative_to(root.parent)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:  # the rule reads absolute module names only
                found.append(f"{where}:{node.lineno} uses a relative import")
                continue
            if not node.module.startswith("qpf") or unit_of(node.module) == unit_of(module):
                continue
            found += [f"{where}:{node.lineno} imports {node.module}.{alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_private_imports_across_units():
    assert private_cross_unit_imports(SRC) == []


def test_rule_sees_a_cross_unit_private_import(tmp_path):
    pkg = tmp_path / "qpf"
    (pkg / "qsim").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "qsim" / "__init__.py").write_text("")
    (pkg / "qsim" / "simulate.py").write_text("from qpf.qsim.circuit import _ry_matrix\n")
    (pkg / "cli.py").write_text("import json\nfrom qpf.hhl import _pad_system, run_hhl\n")
    assert private_cross_unit_imports(pkg) == ["qpf/cli.py:2 imports qpf.hhl._pad_system"]
