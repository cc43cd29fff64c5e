"""Exact stdout, stderr and exit code of the golden CLI commands.

Each expected stdout is a file under ``tests/golden``, named after its
command; a large one is pinned by its sha256.  The full-precision JSON of
``qpf solve --method hhl`` is not pinned here: its last bits depend on the
BLAS build.  The full-precision JSON of ``qpf sweep`` is: it rests on the C
library's ``log`` alone.
"""

import hashlib
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

# One seeded cost-model parameter set (the first seed-1 draw of the benchmark).
SEEDED = ["--s", "7.0", "--k", "0.4762", "--eps-classical", "0.0518",
          "--eps-quantum", "0.5718", "--base-ratio", "31.87",
          "--log-n-base", "e", "--log-eps-base", "10"]

CASES += [
    (["crossover"] + SEEDED, "crossover-seeded.json"),
    (["crossover", "--format", "text"] + SEEDED, "crossover-seeded.text"),
    (["sweep"], "sweep-default.csv"),
]

DIGESTS = [
    (["sweep", "--format", "json", "--steps", "500", "--range", "2", "1e9"] + SEEDED,
     "ca994c0324e7b0edf0c523e1149a908cf11e7461abc9b830506af08f2184a170"),
    # Cells from 3.3e-05 to 1e9: both ends leave the plain %.6g range.
    (["sweep", "--steps", "1000", "--range", "2", "1e9", "--k", "1e-4"],
     "fedbf0d8b78b4be59fcc6ba2e0cc4944ef12cb41db9b72333d97ade2e00f1825"),
]

FAILURES = [
    (["crossover", "--s", "1e200"], 2, "numerical error: model cost at n = 2 is not finite\n"),
    (["sweep", "--s", "1e200"], 2, "numerical error: model cost at n = 10 is not finite\n"),
    (["sweep", "--steps", "5", "--range", "2", "1e300", "--s", "1e100"], 2,
     "numerical error: model cost at n = 1.18921e+225 is not finite\n"),
    (["crossover", "--base-ratio", "1e300"], 2,
     "numerical error: no crossover in [2, 1e+07]: quantum model dominates\n"),
    (["sweep", "--range", "10", "inf"], 1, "error: need 2 <= lo <= hi < inf\n"),
]


@pytest.mark.parametrize("argv, golden", CASES, ids=[name for _, name in CASES])
def test_golden_stdout_and_exit_code(capsys, argv, golden):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert captured.err == ""


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[" ".join(a[:8]) for a, _ in DIGESTS])
def test_golden_stdout_digest(capsys, argv, digest):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
    assert captured.err == ""


@pytest.mark.parametrize("argv, code, stderr", FAILURES, ids=[" ".join(a) for a, _, _ in FAILURES])
def test_golden_failure(capsys, argv, code, stderr):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr
