#!/usr/bin/env python3
"""Why the packaged WSCC 9-bus data does not reproduce the stored reference
angle vector, the strict xfail ``test_criterion_1_classical_reference_vector``.

    python3 scripts/explain_reference.py

Run from the root of a source checkout; qpf is imported from its ``src``
directory, and nothing but numpy and the standard library does the rest.
``REFERENCE`` is the vector ``REFERENCE_CLASSICAL`` of
``tests/test_acceptance.py`` (buses 2..9, slack bus 1), held to 5e-3 per
element there.  The script prints:

* the injections the reference implies, B theta_ref, next to the fixture's,
  with both sums: a relabeling of the injections keeps their sum, so no
  relabeling makes the fixture's injections equal B theta_ref;
* the gap max |theta - theta_ref| in the documented bus order, and order-free
  (the best over every order of the angle vector, which the sorted matching
  attains);
* the best gap over the 8! ways to assign the fixture's eight injections to
  the non-slack buses with bus 1 as the slack, and over the 9! ways once the
  slack may be any of the nine buses (the other eight angles compared in
  ascending bus order);
* the best gap over single changes to the data: one branch removed (if the
  network stays connected), one reactance halved or doubled, or one
  injection zeroed.
"""

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qpf.grid import build_reduced_system, full_susceptance, load_fixture, solve_dc  # noqa: E402

REFERENCE = np.array([0.1157, 0.0948, -0.0713, -0.1316, -0.0644, 0.0118, -0.0514, 0.0220])
TOLERANCE = 5e-3


def gap(theta) -> np.ndarray:
    """max |theta - REFERENCE| over the last axis."""
    return np.abs(np.asarray(theta) - REFERENCE).max(axis=-1)


def best_relabeling(network, slack_free: bool) -> tuple[float, int]:
    """Least gap over the assignments of the network's non-slack injections to
    the non-slack buses, and the slack bus that attains it; the slack is the
    network's (8! assignments) or, with ``slack_free``, any bus (9 x 8! = 9!)."""
    system = build_reduced_system(network)
    full = full_susceptance(network)
    ids = sorted(b.id for b in network.buses)
    orders = np.array(list(itertools.permutations(range(len(system.p)))))
    injections = system.p[orders]  # one row per assignment
    best = (np.inf, 0)
    for slack in ids if slack_free else [network.slack_id]:
        keep = [i for i, bus_id in enumerate(ids) if bus_id != slack]
        inverse = np.linalg.inv(full[np.ix_(keep, keep)])
        best = min(best, (float(gap(injections @ inverse.T).min()), slack))
    return best


def single_changes(network):
    """(label, changed network) for each one-change variant of the data."""
    def swap(field, k, *new):
        items = getattr(network, field)
        return dataclasses.replace(network, **{field: items[:k] + new + items[k + 1:]})

    for k, br in enumerate(network.branches):
        name = f"branch {br.from_bus}-{br.to_bus}"
        yield f"{name} removed", swap("branches", k)
        yield f"{name} x halved", swap("branches", k, dataclasses.replace(br, x_pu=br.x_pu / 2))
        yield f"{name} x doubled", swap("branches", k, dataclasses.replace(br, x_pu=br.x_pu * 2))
    for k, bus in enumerate(network.buses):
        if not bus.slack and bus.p_pu != 0.0:
            zeroed = dataclasses.replace(bus, p_pu=0.0)
            yield f"bus {bus.id} injection zeroed", swap("buses", k, zeroed)


def best_single_change(network) -> tuple[float, str]:
    """Least gap over ``single_changes`` that leave the network connected."""
    best = (np.inf, "")
    for label, changed in single_changes(network):
        system = build_reduced_system(changed)
        eigenvalues = np.linalg.eigvalsh(system.b)
        if eigenvalues[0] <= 1e-9 * eigenvalues[-1]:  # an island without the slack
            continue
        best = min(best, (float(gap(solve_dc(system))), label))
    return best


def gaps(network) -> dict[str, float]:
    """Each gap the module docstring lists, by a label naming it."""
    theta = solve_dc(build_reduced_system(network))
    any_order = np.abs(np.sort(theta) - np.sort(REFERENCE)).max()
    eight, _ = best_relabeling(network, False)
    nine, slack = best_relabeling(network, True)
    change, label = best_single_change(network)
    return {
        "gap in the documented bus order": float(gap(theta)),
        "gap in any order (sorted matching)": float(any_order),
        "best of 8! injection assignments, slack bus 1": eight,
        f"best of 9!, slack free (at bus {slack})": nine,
        f"best single change ({label})": change,
    }


def main() -> None:
    network = load_fixture("wscc9")
    system = build_reduced_system(network)
    implied = system.b @ REFERENCE
    print("bus  B theta_ref  fixture p")
    for bus_id, want, have in zip(system.bus_order, implied, system.p):
        print(f"{bus_id:>3}  {want:>11.3f}  {have:>9.3f}")
    print(f"sum  {implied.sum():>11.3f}  {system.p.sum():>9.3f}")
    for label, value in gaps(network).items():
        print(f"{label + ':':<48}{value:.4f}")
    print(f"{'tolerance:':<48}{TOLERANCE:g}")


if __name__ == "__main__":
    main()
