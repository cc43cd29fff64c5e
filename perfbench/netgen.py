"""Seeded ring-plus-chord test networks in the qpf network JSON schema.

Bus 1 is the slack.  Every bus sits on a ring, so the graph is connected;
``num_buses // 4`` extra chords between non-neighbouring buses give the
reduced matrix a less regular spectrum.  A network of ``2**beta + 1`` buses
reduces (slack removed) to a system of dimension ``2**beta``, so the HHL
pipeline runs on it without padding.

Only numpy is used: the generator shares no code with qpf.
"""

from __future__ import annotations

import json

import numpy as np


def ring_chord_network(num_buses: int, seed: int) -> dict:
    """Network dict (``base_mva``/``buses``/``branches``) fixed by ``seed``."""
    if num_buses < 5:
        raise ValueError("a ring with chords needs at least 5 buses")
    rng = np.random.default_rng(seed)
    buses = [{"id": 1, "slack": True, "p_pu": 0.0}]
    buses += [
        {"id": i, "slack": False, "p_pu": round(float(rng.uniform(-1.0, 1.0)), 4)}
        for i in range(2, num_buses + 1)
    ]
    pairs = [(i, i + 1) for i in range(1, num_buses)] + [(1, num_buses)]
    taken = set(pairs)
    chords = num_buses // 4
    while chords:
        a, b = sorted(int(v) for v in rng.choice(num_buses, size=2, replace=False) + 1)
        if (a, b) in taken:
            continue
        taken.add((a, b))
        pairs.append((a, b))
        chords -= 1
    branches = [
        {"from": a, "to": b, "x_pu": round(float(rng.uniform(0.05, 0.25)), 4)}
        for a, b in pairs
    ]
    return {"base_mva": 100.0, "buses": buses, "branches": branches}


def network_json(num_buses: int, seed: int) -> str:
    return json.dumps(ring_chord_network(num_buses, seed))
