import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qpf.cli as cli
import qpf.hhl as hhl_module
from qpf.cli import build_parser, main
from qpf.grid import build_reduced_system, load_network
from qpf.hhl import HHLConfig, run_hhl

THREE_BUS = {
    "base_mva": 100.0,
    "buses": [
        {"id": 1, "slack": True, "p_pu": 0.0},
        {"id": 2, "slack": False, "p_pu": 0.5},
        {"id": 3, "slack": False, "p_pu": -0.5},
    ],
    "branches": [
        {"from": 1, "to": 2, "x_pu": 0.2},
        {"from": 2, "to": 3, "x_pu": 0.4},
    ],
}

ZERO_INJECTION = {**THREE_BUS, "buses": [
    {"id": 1, "slack": True, "p_pu": 0.0},
    {"id": 2, "slack": False, "p_pu": 0.0},
    {"id": 3, "slack": False, "p_pu": 0.0},
]}

TWO_BUS = {
    "base_mva": 100.0,
    "buses": [
        {"id": 1, "slack": True, "p_pu": -0.5},
        {"id": 2, "slack": False, "p_pu": 0.5},
    ],
    "branches": [{"from": 1, "to": 2, "x_pu": 0.2}],
}

# Reduced dimension 3, so the HHL pipeline pads it to 4.
FOUR_BUS_CHAIN = {
    "base_mva": 100.0,
    "buses": [
        {"id": 1, "slack": True, "p_pu": 0.0},
        {"id": 2, "slack": False, "p_pu": 0.5},
        {"id": 3, "slack": False, "p_pu": -0.2},
        {"id": 4, "slack": False, "p_pu": -0.3},
    ],
    "branches": [
        {"from": 1, "to": 2, "x_pu": 0.2},
        {"from": 2, "to": 3, "x_pu": 0.4},
        {"from": 3, "to": 4, "x_pu": 0.3},
    ],
}


def write_network(tmp_path, network, name="network.json"):
    path = tmp_path / name
    path.write_text(json.dumps(network))
    return str(path)


@pytest.fixture
def three_bus_path(tmp_path):
    return write_network(tmp_path, THREE_BUS, "three_bus.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveClassical:
    def test_wscc9_json(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--fixture", "wscc9", "--method", "classical"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "classical"
        assert payload["bus_order"] == [2, 3, 4, 5, 6, 7, 8, 9]
        np.testing.assert_allclose(
            payload["angles_rad"],
            [0.1709727826086957, 0.08832343478260873, -0.038591999999999994,
             -0.07091971739130433, -0.065242, 0.06909778260869569,
             0.014354304347826129, 0.038513434782608734],
            atol=1e-12,
        )

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--fixture", "wscc9", "--format", "text"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bus    angle_rad"
        assert len(lines) == 9

    def test_input_file(self, capsys, three_bus_path):
        code, out, _ = run_cli(capsys, "solve", "--input", three_bus_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["bus_order"] == [2, 3]
        np.testing.assert_allclose(payload["angles_rad"], [0.0, -0.2], atol=1e-12)

    def test_out_file(self, capsys, three_bus_path, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "solve", "--input", three_bus_path, "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["bus_order"] == [2, 3]

    def test_deterministic(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "solve", "--fixture", "wscc9")
            outputs.add(out)
        assert len(outputs) == 1


class TestSolveHhl:
    def test_small_network(self, capsys, three_bus_path):
        code, out, _ = run_cli(
            capsys, "solve", "--input", three_bus_path,
            "--method", "hhl", "--alpha", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bus_order"] == [2, 3]
        assert payload["metrics"]["width"] == 8  # 1 solution + 6 clock + ancilla
        assert payload["config"]["alpha"] == 6
        assert 0 < payload["fidelity"] <= 1
        assert len(payload["solution_unit"]) == 2

    def test_text_format(self, capsys, three_bus_path):
        code, out, _ = run_cli(
            capsys, "solve", "--input", three_bus_path,
            "--method", "hhl", "--alpha", "4", "--format", "text",
        )
        assert code == 0
        assert out.startswith("fidelity")
        assert "width/depth/cnots" in out

    def test_post_selection_failure_exit_code(self, capsys, three_bus_path):
        code, _, err = run_cli(
            capsys, "solve", "--input", three_bus_path,
            "--method", "hhl", "--alpha", "3", "--c-override", "1e-12",
        )
        assert code == 3
        assert err.startswith("post-selection error:")
        assert len(err.strip().splitlines()) == 1


class TestStats:
    def test_wscc9(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--fixture", "wscc9")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 8
        assert payload["s"] == 4
        assert payload["k_ratio"] == pytest.approx(0.0169147, abs=1e-6)
        assert len(payload["eigenvalues"]) == 8

    def test_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--fixture", "wscc9", "--format", "text"
        )
        assert code == 0
        assert "k_ratio" in out


class TestMetrics:
    def test_small_network(self, capsys, three_bus_path):
        code, out, _ = run_cli(
            capsys, "metrics", "--input", three_bus_path, "--alpha", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["width"] == 5
        assert payload["depth"] > 0
        assert payload["cnot_count"] > 0

    def test_padded_network_matches_run_hhl(self, capsys, tmp_path):
        path = write_network(tmp_path, FOUR_BUS_CHAIN)
        code, out, _ = run_cli(capsys, "metrics", "--input", path, "--alpha", "3")
        assert code == 0
        expected = run_hhl(build_reduced_system(load_network(path)), HHLConfig(alpha=3)).metrics
        assert expected.width == 6  # 2 solution + 3 clock + ancilla
        assert json.loads(out) == {"width": expected.width, "depth": expected.depth,
                                   "cnot_count": expected.cnot_count}


@pytest.mark.parametrize("command", [["metrics"], ["solve", "--method", "hhl"]])
@pytest.mark.parametrize("network, message", [(ZERO_INJECTION, "zero"), (TWO_BUS, ">= 2")])
def test_hhl_commands_reject_same_inputs(capsys, tmp_path, command, network, message):
    path = write_network(tmp_path, network)
    code, out, err = run_cli(capsys, *command, "--input", path)
    assert code == 1
    assert message in err
    assert out == ""


# Reduced dimension 128 at alpha 1: 2.87e8 CNOTs by the bound, over the budget.
CHAIN_129 = {
    "base_mva": 100.0,
    "buses": [{"id": 1, "slack": True, "p_pu": 0.0}] + [
        {"id": i, "slack": False, "p_pu": 0.1 if i % 2 else -0.1} for i in range(2, 130)],
    "branches": [{"from": i, "to": i + 1, "x_pu": 0.1} for i in range(1, 129)],
}


@pytest.mark.parametrize("command", [["metrics"], ["solve", "--method", "hhl"]])
def test_hhl_commands_refuse_a_circuit_over_the_cnot_budget(capsys, tmp_path, command,
                                                            monkeypatch):
    def never(circuit):
        raise AssertionError("lowered past the CNOT budget")

    monkeypatch.setattr(sys.modules["qpf.qsim.metrics"], "lower_to_basis", never)
    path = write_network(tmp_path, CHAIN_129)
    code, out, err = run_cli(capsys, *command, "--input", path, "--alpha", "1")
    assert (code, out) == (1, "")
    assert err == ("error: circuit lowers to up to 286836804 CNOTs, "
                   "over the 50000000-CNOT limit\n")


class TestCrossover:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "crossover")
        assert code == 0
        payload = json.loads(out)
        assert 100 <= payload["n_star"] <= 300
        assert payload["constant_ratio"] == 34.0
        assert "log_2" in payload["convention"]
        assert payload["params"]["classical"]["s"] == 6.0

    def test_quantum_side_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "crossover", "--s-quantum", "4", "--k-quantum", "0.05"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["quantum"] == {"s": 4.0, "k": 0.05, "epsilon": 0.37}
        assert payload["params"]["classical"]["s"] == 6.0

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "crossover", "--format", "text")
        assert code == 0
        assert out.startswith("n_star")

    def test_no_crossover_is_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "crossover", "--base-ratio", "1e-9")
        assert code == 2
        assert err.startswith("numerical error:")
        assert len(err.strip().splitlines()) == 1

    def test_deterministic(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "crossover")
            outputs.add(out)
        assert len(outputs) == 1


class TestSweep:
    def test_csv_default(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,classical_cost,quantum_cost_scaled"
        assert len(lines) == 6

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--steps", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["header"] == ["n", "classical_cost", "quantum_cost_scaled"]
        assert len(payload["rows"]) == 4

    def test_custom_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--range", "2", "2", "--steps", "1"
        )
        assert code == 0
        assert len(out.splitlines()) == 2


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],  # missing network source
            ["solve", "--fixture", "wscc9", "--input", "x.json"],  # exclusive
            ["solve", "--fixture", "nosuch"],
            ["solve", "--fixture", "wscc9", "--method", "warp"],
            ["stats", "--input", "/nonexistent/net.json"],
            ["sweep", "--range", "1", "100"],  # lo < 2
            ["crossover", "--log-n-base", "7"],
            ["frobnicate"],
            [],
            ["sweep", "--steps", "3", "--range", "10", "inf"],
            ["sweep", "--steps", "2", "--s", "inf"],
            ["sweep", "--base-ratio", "-5"],
            ["crossover", "--s", "inf"],
            ["crossover", "--k", "inf"],
            ["crossover", "--base-ratio", "inf"],
        ],
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["crossover", "--s", "1e200"],
            ["sweep", "--s", "1e200"],
            ["sweep", "--steps", "2", "--range", "10", "1e308"],
        ],
    )
    def test_model_overflow_is_numerical_failure(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("numerical error:")
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize("steps", ["1000001", "1000000000000"])
    def test_oversized_sweep_fails_before_sampling(self, capsys, monkeypatch, steps):
        def refuse(*args, **kwargs):
            raise AssertionError("np.geomspace called for an oversized sweep")

        monkeypatch.setattr(np, "geomspace", refuse)
        code, out, err = run_cli(capsys, "sweep", "--steps", steps)
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize("command", [["metrics"], ["solve", "--method", "hhl"]])
    def test_oversized_clock_fails_before_building(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--fixture", "wscc9", "--alpha", "64")
        assert code == 1
        assert err.startswith("error:")
        assert "68 qubits" in err
        assert "24-qubit limit" in err
        assert out == ""

    @pytest.mark.parametrize("alpha", ["20000", "1000000000"])
    @pytest.mark.parametrize("command", [["metrics"], ["solve", "--method", "hhl"]])
    def test_huge_clock_fails_on_one_line(self, capsys, monkeypatch, command, alpha):
        def never(*args):
            raise AssertionError("built past the size budget")

        monkeypatch.setattr(hhl_module, "eigendecompose", never)
        code, out, err = run_cli(capsys, *command, "--fixture", "wscc9", "--alpha", alpha)
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert f"{int(alpha) + 4} qubits" in err
        assert "24-qubit limit" in err
        assert out == ""

    @pytest.mark.parametrize("command", [["stats"], ["metrics"], ["solve", "--method", "hhl"]])
    def test_spectrum_past_the_float_range_is_refused(self, capsys, tmp_path, command):
        # Susceptances of 1 / 1.2e-308 put the top eigenvalue past the float range.
        network = {**THREE_BUS, "branches": [{**branch, "x_pu": 1.2e-308}
                                             for branch in THREE_BUS["branches"]]}
        path = write_network(tmp_path, network)
        code, out, err = run_cli(capsys, *command, "--input", str(path))
        assert code == 1
        assert err == "error: non-finite eigenvalue\n"
        assert "Infinity" not in out

    def test_invalid_network_schema(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base_mva": 100.0, "buses": [], "branches": []}))
        code, _, err = run_cli(capsys, "solve", "--input", str(bad))
        assert code == 1
        assert err.startswith("error:")

    def test_out_path_with_nul_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "crossover", "--out", "a\x00b")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "\x00" not in err

    @pytest.mark.parametrize("path", ["a\x00b", "a\x1bb\n.json"])
    def test_input_path_with_a_control_byte_is_quoted(self, capsys, path):
        code, out, err = run_cli(capsys, "stats", "--input", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
        assert not any(ord(ch) < 0x20 for ch in err[:-1])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "solve" in capsys.readouterr().out


def test_verbose_banner(capsys):
    code, out, err = run_cli(capsys, "--verbose", "crossover", "--format", "text")
    assert code == 0
    assert err.startswith("qpf ")
    assert "n_star" in out


def test_console_script_smoke():
    qpf = shutil.which("qpf")
    argv = [qpf] if qpf else [sys.executable, "-m", "qpf.cli"]
    proc = subprocess.run(
        argv + ["solve", "--fixture", "wscc9"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["method"] == "classical"


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_shared_parser_answers_every_call_alike(capsys, tmp_path, fresh_parser):
    sequence = [
        ["crossover", "--bogus"],
        ["--verbose", "crossover"],
        ["sweep"],
        ["metrics", "--fixture", "wscc9", "--alpha", "3"],
        ["sweep", "--out", str(tmp_path / "missing" / "rows.csv")],
        ["crossover", "--out", "a\x00b"],
    ]

    def run_all():
        return [run_cli(capsys, *argv) for argv in sequence]

    first = run_all()
    assert [code for code, _, _ in first] == [1, 0, 0, 0, 1, 1]
    assert run_all() == first
    cli._parser.cache_clear()
    assert run_all() == first


def test_main_builds_the_parser_once(capsys, monkeypatch, fresh_parser):
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    for argv in (["crossover"], ["sweep", "--steps", "3"], ["frobnicate"], ["crossover"]):
        run_cli(capsys, *argv)
    assert len(built) == 1


def test_build_parser_returns_a_fresh_parser(capsys, fresh_parser):
    edited = build_parser()
    assert edited is not build_parser()
    edited.set_defaults(verbose=True)
    code, _, err = run_cli(capsys, "crossover")
    assert code == 0 and err == ""


def test_sweep_range_default_survives_a_sweep(capsys):
    assert run_cli(capsys, "sweep", "--steps", "2")[0] == 0
    default = cli._parser().parse_args(["sweep"]).range
    assert isinstance(default, list) and default == [10.0, 2000.0]
