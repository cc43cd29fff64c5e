"""Layering rules, read from the source with ``ast``.

Import rule: no module imports a private (underscore, non-dunder) name from
another unit.  A unit is a top-level module or package under ``qpf``
(``qpf.cli``, ``qpf.hhl``, ``qpf.grid``, ``qpf.complexity``, ``qpf.qsim``,
...).  Modules inside one package may share private helpers; crossing a unit
boundary goes through public names only.

Finiteness rule: ``isfinite`` appears only in ``qpf/errors.py``, whose checks
every entry point calls, and in two checks of computed output: the model
costs in ``complexity._finite_cost`` and the branch probability in
``simulate.post_select``.
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


# (module path under qpf, top-level function) that may test finiteness itself.
OUTPUT_CHECKS = {("complexity.py", "_finite_cost"), ("qsim/simulate.py", "post_select")}


def isfinite_outside_errors(root: Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        if where == "errors.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name == "isfinite" and (where, owner) not in OUTPUT_CHECKS:
                    found.append(f"qpf/{where}:{node.lineno} uses isfinite in {owner}")
    return found


def test_finiteness_is_checked_in_errors_only():
    assert isfinite_outside_errors(SRC) == []


def test_rule_sees_an_isfinite_outside_errors(tmp_path):
    pkg = tmp_path / "qpf"
    (pkg / "qsim").mkdir(parents=True)
    (pkg / "errors.py").write_text("import math\nok = math.isfinite\n")
    (pkg / "complexity.py").write_text(
        "import math\ndef _finite_cost(x):\n    return math.isfinite(x)\n")
    (pkg / "qsim" / "simulate.py").write_text(
        "from numpy import isfinite\ndef post_select(s):\n    return isfinite(s)\n")
    (pkg / "hhl.py").write_text(
        "import numpy as np\ndef fidelity(a):\n    return np.isfinite(a)\n")
    assert isfinite_outside_errors(pkg) == [
        "qpf/hhl.py:3 uses isfinite in fidelity",
        "qpf/qsim/simulate.py:1 uses isfinite in <module>",
    ]
