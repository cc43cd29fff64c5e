"""``scripts/bench_pairs.py``'s summary, on canned ``perfbench/run.py`` output."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = [{"name": "latency_tail_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.2}]


def run_output(tail_s: float, ops_s: float, correct: bool = True) -> str:
    """stdout of one run as ``perfbench/run.py --trace 0`` prints it."""
    result = {"correct": correct, "attempted": 400, "failed": 0 if correct else 3,
              "metrics": {"latency_tail_s": {"value": tail_s, "unit": "s"},
                          "throughput_ops_s": {"value": ops_s, "unit": "1/s"}}}
    return (f'# env {{"numpy": "2.0"}}\n'
            f"# latency_tail_s = {tail_s:.6g} s (p95, n=412; wall {tail_s:.6g} s)\n"
            f"# throughput_ops_s = {ops_s:.6g} 1/s (412 ops in 17 s)\n"
            f"{json.dumps(result)}\n")


def runs(values) -> list[dict]:
    return [bench_pairs.parse_run(run_output(*v)) for v in values]


def test_parse_run_reads_the_last_line_and_the_tail_percentile():
    result = bench_pairs.parse_run(run_output(0.0976, 24.3, correct=False))
    assert result["metrics"]["latency_tail_s"]["value"] == 0.0976
    assert (result["correct"], result["tail"]) == (False, "p95 n=412")


def test_a_clear_gain_holds_in_each_metric_direction():
    parent = runs([(0.095 + 0.001 * i, 24.0 + 0.1 * i) for i in range(10)])
    change = runs([(0.075 + 0.001 * i, 29.0 + 0.1 * i) for i in range(10)])
    tail, ops = bench_pairs.summarize(parent, change, SPEC)
    assert (tail["wins"], tail["pairs"], ops["wins"]) == (10, 10, 10)
    assert tail["parent"] == pytest.approx((0.09725, 0.0995, 0.10175))
    assert tail["change"][1] == pytest.approx(0.0795)
    assert tail["gap"] == pytest.approx(0.02) and tail["iqr"] == pytest.approx(0.0045)
    assert ops["gap"] == pytest.approx(5.0) and tail["holds"] and ops["holds"]
    assert "wins 10/10" in bench_pairs.format_row(tail)
    assert bench_pairs.format_row(ops).endswith("rule holds")


def test_eight_wins_of_ten_fail_the_rule():
    parent = runs([(0.100, 24.0)] * 10)
    change = runs([(0.050, 24.0)] * 8 + [(0.100, 24.0), (0.200, 24.0)])
    tail, ops = bench_pairs.summarize(parent, change, SPEC)
    assert (tail["wins"], tail["gap"], tail["iqr"]) == (8, 0.05, 0.0)
    assert not tail["holds"]
    assert ops["wins"] == 0 and not ops["holds"]  # a tie is no win


def test_a_gap_within_the_parent_iqr_fails_the_rule():
    parent = runs([(0.08 + 0.004 * i, 24.0) for i in range(10)])
    change = runs([(0.08 + 0.004 * i - 0.001, 24.0) for i in range(10)])
    (tail, _) = bench_pairs.summarize(parent, change, SPEC)
    assert tail["wins"] == 10 and tail["gap"] == pytest.approx(0.001)
    assert tail["iqr"] == pytest.approx(0.018) and not tail["holds"]


def test_script_refuses_fewer_than_two_pairs():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           "--parent", ".", "--change", ".", "--workload", "x",
                           "--pairs", "1"], capture_output=True, text=True)
    assert done.returncode == 2 and "--pairs must be at least 2" in done.stderr


def test_each_checkout_runs_with_its_own_compiled_file_prefix(tmp_path, monkeypatch, capsys):
    checkouts = {name: tmp_path / name for name in ("parent", "change")}
    for checkout in checkouts.values():
        checkout.mkdir()
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    runs_seen = []

    def fake_run(argv, cwd, env, **kwargs):
        assert "PYTHONDONTWRITEBYTECODE" not in env
        runs_seen.append((Path(cwd), Path(env["PYTHONPYCACHEPREFIX"])))
        return subprocess.CompletedProcess(argv, 0, run_output(0.09, 24.0), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    args = ["--workload", "grid-scale-sim", "--pairs", "3"]
    for name, checkout in checkouts.items():
        args += [f"--{name}", str(checkout)]
    assert bench_pairs.main(args) == 0
    assert "rule fails" in capsys.readouterr().out
    prefixes = {cwd: {prefix for c, prefix in runs_seen if c == cwd} for cwd, _ in runs_seen}
    assert len(runs_seen) == 6 and set(prefixes) == set(checkouts.values())
    (parent_prefix,), (change_prefix,) = (prefixes[checkouts[n]] for n in ("parent", "change"))
    assert parent_prefix != change_prefix
    for prefix in (parent_prefix, change_prefix):
        assert prefix.is_absolute() and not prefix.exists()  # removed at exit
        assert not any(prefix.is_relative_to(c) for c in checkouts.values())
