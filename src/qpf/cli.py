"""`qpf` command-line interface.

Subcommands: solve, stats, metrics, crossover, sweep.  Output is JSON by
default (text/csv where noted) and deterministic for fixed inputs.  Exit
codes: 0 success, 1 usage or input error, 2 numerical failure, 3
post-selection failure.

In process, ``main(argv)`` returns the exit code and builds its parser once
per process; every later call only parses.  ``build_parser()`` returns a
fresh parser on every call, so editing one does not change what ``main`` does.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from qpf import __version__
from qpf.complexity import (
    LOG_BASES,
    ComplexityParams,
    find_crossover,
    sweep,
    sweep_csv,
)
from qpf.errors import InputError, NumericalError, PostSelectionError
from qpf.grid import (
    Network,
    build_reduced_system,
    load_fixture,
    load_network,
    network_stats,
    solve_dc,
)
from qpf.hhl import HHLConfig, plan_hhl, run_hhl
from qpf.qsim import metrics as circuit_metrics

# `qpf --help` shows the docstring without its last paragraph, which is for
# in-process callers.
_DESCRIPTION = __doc__.rsplit("\n\n", 1)[0]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise InputError(message)


def _add_network_source(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", help="built-in network name (wscc9)")
    group.add_argument("--input", help="path to a network JSON file")


def _add_output(parser, formats=("json", "text")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", help="write to this path instead of stdout")


def _complexity_args(parser) -> None:
    parser.add_argument("--s", type=float, default=6.0, help="sparsity, both models")
    parser.add_argument("--k", type=float, default=0.1, help="condition parameter, both models")
    parser.add_argument("--s-quantum", type=float, default=None,
                        help="override sparsity for the quantum model")
    parser.add_argument("--k-quantum", type=float, default=None,
                        help="override condition parameter for the quantum model")
    parser.add_argument("--eps-classical", type=float, default=0.1)
    parser.add_argument("--eps-quantum", type=float, default=0.37)
    parser.add_argument("--base-ratio", type=float, default=34.0,
                        help="quantum per-unit cost handicap (constant_ratio)")
    parser.add_argument("--log-n-base", choices=LOG_BASES, default="2")
    parser.add_argument("--log-eps-base", choices=LOG_BASES, default="e")


def build_parser() -> _Parser:
    """A fresh ``qpf`` parser; ``main`` builds one per process and reuses it."""
    parser = _Parser(prog="qpf", description=_DESCRIPTION)
    parser.add_argument("--verbose", action="store_true",
                        help="print version banner to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve DC power flow")
    _add_network_source(p_solve)
    p_solve.add_argument("--method", choices=["classical", "hhl"], default="classical")
    p_solve.add_argument("--alpha", type=int, default=5, help="clock qubits (hhl)")
    p_solve.add_argument("--t-override", type=float, default=None)
    p_solve.add_argument("--c-override", type=float, default=None)
    _add_output(p_solve)

    p_stats = sub.add_parser("stats", help="n, s, spectral ratio of the reduced system")
    _add_network_source(p_stats)
    _add_output(p_stats)

    p_metrics = sub.add_parser("metrics", help="lowered HHL circuit metrics")
    _add_network_source(p_metrics)
    p_metrics.add_argument("--alpha", type=int, default=5)
    _add_output(p_metrics)

    p_cross = sub.add_parser("crossover", help="classical-vs-quantum crossover dimension")
    _complexity_args(p_cross)
    _add_output(p_cross)

    p_sweep = sub.add_parser("sweep", help="cost-model samples over an n range")
    _complexity_args(p_sweep)
    p_sweep.add_argument("--range", type=float, nargs=2, default=[10.0, 2000.0],
                         metavar=("LO", "HI"))
    p_sweep.add_argument("--steps", type=int, default=100)
    _add_output(p_sweep, formats=("csv", "json"))

    return parser


@functools.cache
def _parser() -> _Parser:
    # Reads the module-global `build_parser`, so a patched one is what gets cached.
    return build_parser()


def _load(args) -> Network:
    if args.fixture is not None:
        return load_fixture(args.fixture)
    return load_network(args.input)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            handle = open(args.out, "w", encoding="utf-8")
        except ValueError as exc:  # a NUL in the path
            raise InputError(f"cannot write {args.out!r}: {exc}") from exc
        with handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_solve(args) -> str:
    network = _load(args)
    system = build_reduced_system(network)
    if args.method == "classical":
        theta = solve_dc(system)
        if args.format == "text":
            lines = ["bus    angle_rad"]
            lines += [f"{bus:<6d} {val: .6f}" for bus, val in zip(system.bus_order, theta)]
            return "\n".join(lines) + "\n"
        return _json({
            "method": "classical",
            "bus_order": list(system.bus_order),
            "angles_rad": [float(v) for v in theta],
        })
    config = HHLConfig(alpha=args.alpha, t_override=args.t_override,
                       c_override=args.c_override)
    result = run_hhl(system, config)
    payload = result.to_dict()
    payload["bus_order"] = list(system.bus_order)
    if args.format == "text":
        lines = [
            f"fidelity             {result.fidelity:.6f}",
            f"success_probability  {result.success_probability:.6f}",
            f"recovered_norm       {result.recovered_norm:.6f}",
            f"residual_clock_leak  {result.residual_clock_leak:.6f}",
            f"width/depth/cnots    {result.metrics.width}/"
            f"{result.metrics.depth}/{result.metrics.cnot_count}",
            "bus    solution_unit",
        ]
        lines += [f"{bus:<6d} {val: .6f}"
                  for bus, val in zip(system.bus_order, result.solution_unit)]
        return "\n".join(lines) + "\n"
    return _json(payload)


def _cmd_stats(args) -> str:
    stats = network_stats(_load(args))
    payload = {
        "n": stats.n,
        "s": stats.s,
        "k_ratio": stats.k_ratio,
        "eigenvalues": list(stats.eigenvalues),
    }
    if args.format == "text":
        return (
            f"n        {stats.n}\n"
            f"s        {stats.s}\n"
            f"k_ratio  {stats.k_ratio:.6f}\n"
            "eigenvalues " + " ".join(f"{v:.6f}" for v in stats.eigenvalues) + "\n"
        )
    return _json(payload)


def _cmd_metrics(args) -> str:
    system = build_reduced_system(_load(args))
    result = circuit_metrics(plan_hhl(system, HHLConfig(alpha=args.alpha)).circuit)
    if args.format == "text":
        return (f"width  {result.width}\ndepth  {result.depth}\n"
                f"cnots  {result.cnot_count}\n")
    return _json(asdict(result))


def _params(args) -> tuple[ComplexityParams, ComplexityParams]:
    classical = ComplexityParams(
        s=args.s, k=args.k, epsilon=args.eps_classical,
        log_n_base=args.log_n_base, log_eps_base=args.log_eps_base,
    )
    quantum = ComplexityParams(
        s=args.s if args.s_quantum is None else args.s_quantum,
        k=args.k if args.k_quantum is None else args.k_quantum,
        epsilon=args.eps_quantum,
        log_n_base=args.log_n_base, log_eps_base=args.log_eps_base,
    )
    return classical, quantum


def _cmd_crossover(args) -> str:
    classical, quantum = _params(args)
    report = find_crossover(classical, quantum, args.base_ratio)
    payload = {
        "n_star": report.n_star,
        "constant_ratio": report.constant_ratio,
        "convention": report.convention,
        "params": {
            "classical": {"s": classical.s, "k": classical.k,
                          "epsilon": classical.epsilon},
            "quantum": {"s": quantum.s, "k": quantum.k, "epsilon": quantum.epsilon},
        },
    }
    if args.format == "text":
        return (
            f"n_star          {report.n_star:.4f}\n"
            f"constant_ratio  {report.constant_ratio:g}\n"
            f"convention      {report.convention}\n"
        )
    return _json(payload)


def _cmd_sweep(args) -> str:
    classical, quantum = _params(args)
    rows = sweep(classical, quantum, args.base_ratio,
                 (args.range[0], args.range[1]), args.steps)
    if args.format == "json":
        return _json({
            "header": ["n", "classical_cost", "quantum_cost_scaled"],
            "rows": rows.tolist(),
        })
    return sweep_csv(rows)


_COMMANDS = {
    "solve": _cmd_solve,
    "stats": _cmd_stats,
    "metrics": _cmd_metrics,
    "crossover": _cmd_crossover,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.verbose:
            print(f"qpf {__version__}", file=sys.stderr)
        _emit(args, _COMMANDS[args.command](args))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except PostSelectionError as exc:
        print(f"post-selection error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
