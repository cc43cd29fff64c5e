"""The README's examples and numbers, checked against the program.

Every ``$ qpf ...`` line in a ``sh`` block runs in process through
``qpf.cli.main`` and must exit 0; the lines shown under it, up to the next
blank or ``$`` line, must be its stdout (its first N lines after
``| head -N``).  Each ``print`` in the Library snippet prints exactly the
comment on its line.  Every ``scripts/*.py`` file and ``tests/*.py::name``
test the README cites must exist.
"""

import ast
import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qpf.cli import build_parser, main
from qpf.complexity import CROSSOVER_SAMPLES, MAX_SWEEP_STEPS, SEARCH_RANGE
from qpf.errors import InputError
from qpf.grid import MAX_BUSES, parse_network
from qpf.hhl import MAX_SYSTEM_QUBITS
from qpf.qsim import Circuit, Cnot, ControlledUnitary, UniformlyControlledRy, dump, h, ry
from qpf.qsim.circuit import MAX_EVOLUTION_QUBITS, MAX_QUBITS, UNITARY_TOL
from qpf.qsim.metrics import MAX_LOWERED_CNOTS
from qpf.qsim.simulate import MIN_POST_SELECT_PROB

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    """The bodies of the README's fenced blocks tagged ``language``."""
    blocks, tag, body = [], None, []
    for line in README.splitlines():
        if not line.startswith("```"):
            if tag is not None:
                body.append(line)
        elif tag is None:
            tag, body = line[3:], []
        else:
            if tag == language:
                blocks.append("\n".join(body) + "\n")
            tag = None
    return blocks


def _examples() -> list[tuple[str, list[str]]]:
    examples, shown = [], None
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("$ "):
                shown = []
                examples.append((line[2:], shown))
            elif not line:
                shown = None
            elif shown is not None:
                shown.append(line)
    return examples


EXAMPLES = _examples()


def test_every_example_shows_its_output():
    assert len(EXAMPLES) >= 6
    for command, shown in EXAMPLES:
        assert command.startswith("qpf ") and shown, command


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(capsys, command, shown):
    argv = shlex.split(command, comments=True)[1:]
    head = None
    if "|" in argv:
        argv, pipe = argv[: argv.index("|")], argv[argv.index("|") + 1 :]
        assert pipe[0] == "head" and len(pipe) == 2, command
        head = int(pipe[1].removeprefix("-"))
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[:head] == shown


def test_library_snippet_prints_its_comments():
    (snippet,) = _blocks("python")
    expected = [line.split("# ", 1)[1] for line in snippet.splitlines()
                if line.startswith("print(")]
    assert len(expected) >= 4
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(snippet, "README.md", "exec"), {})
    assert printed.getvalue().splitlines() == expected


def test_stated_defaults_are_the_parsers():
    # Giving an option its stated default changes nothing, and the first
    # format a row lists is the default.
    section = README.split("## Command line")[1].split("```sh")[0]
    stated = [(flag, value) for flag, value in re.findall(r"`(--[a-z-]+) ([a-z0-9. ]+)`", section)
              if flag not in ("--fixture", "--input")]
    rows = re.findall(r"^\| `(\w+)` \| ([\w ]+) \|.*\| `(\w+)`, `\w+` \|$", section, re.M)
    assert len(stated) >= 10 and len(rows) == 5
    parser, used = build_parser(), set()
    for command, reads, first_format in rows:
        base = [command, "--fixture", "wscc9"] if reads == "a network" else [command]
        defaults = parser.parse_args(base)
        assert defaults.format == first_format
        for flag, value in stated:
            try:
                given = parser.parse_args([*base, flag, *value.split()])
            except InputError:  # not an option of this command
                continue
            assert given == defaults, (command, flag, value)
            used.add(flag)
    assert used == {flag for flag, _ in stated}


def test_stated_limits_are_the_codes():
    text = " ".join(README.split())
    lo, hi = SEARCH_RANGE
    for phrase in [
        f"`qpf.qsim.circuit.MAX_QUBITS` = {MAX_QUBITS}",
        f"2^{MAX_QUBITS} amplitudes are {(2**MAX_QUBITS * 16) >> 20} MiB",
        f"unitary to {UNITARY_TOL:g}",
        f"probability below {MIN_POST_SELECT_PROB:g}",
        f"{CROSSOVER_SAMPLES}-point log grid over n ∈ [{lo:g}, 1e{round(math.log10(hi))}]",
        f"`steps` in [1, 10^{round(math.log10(MAX_SWEEP_STEPS))}]",
        f"`qpf.qsim.metrics.MAX_LOWERED_CNOTS` = {MAX_LOWERED_CNOTS // 10**7}·10^7",
        f"up to 2^β = {2**MAX_EVOLUTION_QUBITS} dimensions, "
        f"‖VᵀV − I‖_max ≤ {UNITARY_TOL:g}/(4·2^β)",
        f"`qpf.hhl.MAX_SYSTEM_QUBITS` = {MAX_SYSTEM_QUBITS} (2^{MAX_SYSTEM_QUBITS} = "
        f"{2**MAX_SYSTEM_QUBITS} dimensions, {2**MAX_SYSTEM_QUBITS + 1:,} buses",
        f"(`hhl.MAX_SYSTEM_QUBITS` = {MAX_SYSTEM_QUBITS})",
        f"more than {2**MAX_SYSTEM_QUBITS} dimensions (β over {MAX_SYSTEM_QUBITS} qubits)",
        f"more than `qpf.grid.MAX_BUSES` = {MAX_BUSES} buses",
        f"(`grid.MAX_BUSES` = {MAX_BUSES})",
        f"a network of more than {MAX_BUSES} buses, before any matrix is built",
    ]:
        assert phrase in text


def test_network_example_is_valid():
    (example,) = _blocks("json")
    network = parse_network(example)
    assert [bus.id for bus in network.buses] == [1, 2, 3]


def test_dump_example_is_dumps_output():
    (example,) = _blocks("")
    circuit = Circuit(3, [
        h(0),
        ry(2, 0.25),
        Cnot(1, 0),
        ControlledUnitary((0, 2), (1,), np.diag([1, 1j])),
        UniformlyControlledRy((1, 2), 0, [0.0, 0.1, 0.2, 0.3]),
    ])
    assert dump(circuit) == example


def _test_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)}
    return names


def test_cited_scripts_and_tests_exist():
    scripts = re.findall(r"scripts/\w+\.py", README)
    tests = re.findall(r"(tests/\w+\.py)::([\w:]+)", README)
    assert scripts and tests
    for script in scripts:
        assert (ROOT / script).is_file(), script
    for path, name in tests:
        assert name in _test_names(ROOT / path), f"{path}::{name}"
