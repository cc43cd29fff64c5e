"""Exact stdout and exit code of the golden CLI commands on wscc9.

Each expected stdout is a file under ``tests/golden``, named after its
command.  The full-precision JSON of ``qpf solve --method hhl`` is not pinned
here: its last bits depend on the BLAS build.
"""

from pathlib import Path

import pytest

from qpf.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["metrics", "--fixture", "wscc9", "--alpha", alpha, "--format", fmt],
     f"metrics-wscc9-alpha{alpha}.{fmt}")
    for alpha in ("3", "5", "11")
    for fmt in ("json", "text")
] + [
    (["solve", "--fixture", "wscc9", "--method", "hhl", "--alpha", alpha, "--format", "text"],
     f"solve-hhl-wscc9-alpha{alpha}.text")
    for alpha in ("3", "4", "5", "6")
]


@pytest.mark.parametrize("argv, golden", CASES, ids=[name for _, name in CASES])
def test_golden_stdout_and_exit_code(capsys, argv, golden):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert captured.err == ""
