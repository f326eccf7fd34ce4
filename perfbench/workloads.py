"""Seeded run configurations for the benchmark workloads.

Every random draw comes from one numpy Generator seeded with the run's
``--seed``, so a seed always yields the same config texts. The draws move
wavelengths, slit positions, source states and qubit frequencies. They never
move point counts, slit counts, cutoffs or experiment kinds, which set how
much work each workload does, so runs with different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

FRINGE_POINTS = 50_001
MIXED_POINTS = 10_001
MIXED_SLITS = 16
MIXED_CUTOFF = 64
COMPARE_POINTS = 20_001
QUBIT_CUTOFFS = (16, 8)
SWEEP_POINTS = 101


@dataclass(frozen=True)
class Invocation:
    """One CLI run: the config the program reads and the flags it is given."""

    name: str
    kind: str
    config: dict
    args: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        return json.dumps(self.config, indent=1, sort_keys=True) + "\n"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    @property
    def far_field(self) -> bool:
        return "--far-field" in self.args


def _fringe_period(geometry: dict, pitch: float) -> float:
    return geometry["wavelength"] * geometry["screen_z"] / pitch


def _geometry(rng: np.random.Generator, slits: list[float]) -> dict:
    return {
        "source": [float(rng.uniform(-1e-4, 1e-4)), -float(rng.uniform(0.5, 1.5))],
        "slits": slits,
        "screen_z": float(rng.uniform(0.5, 2.0)),
        "wavelength": float(rng.uniform(400e-9, 700e-9)),
    }


def _scan(rng: np.random.Generator, half_width: float, n_points: int) -> dict:
    centre = float(rng.uniform(-0.1, 0.1)) * half_width
    return {"x_min": centre - half_width, "x_max": centre + half_width, "n_points": n_points}


def _slit_scan(rng: np.random.Generator, n_slits: int, n_points: int) -> tuple[dict, dict]:
    """Slits on a jittered grid and a scan over a few fringe periods."""
    pitch = float(rng.uniform(5e-6, 20e-6))
    jitter = rng.uniform(-0.2, 0.2, n_slits)
    slits = [float((j - (n_slits - 1) / 2 + jitter[j]) * pitch) for j in range(n_slits)]
    geometry = _geometry(rng, slits)
    periods = float(rng.uniform(2.0, 4.0))
    return geometry, _scan(rng, periods * _fringe_period(geometry, pitch), n_points)


def _fringe(rng, name, n_slits, n_points, source_state) -> Invocation:
    geometry, scan = _slit_scan(rng, n_slits, n_points)
    config = {
        "experiment": "fringe",
        "geometry": geometry,
        "source_state": source_state,
        "scan": scan,
    }
    return Invocation(name, "fringe", config)


def _compare(rng, name, n_points, far_field=False) -> Invocation:
    geometry, scan = _slit_scan(rng, 2, n_points)
    config = {"experiment": "compare", "geometry": geometry, "scan": scan}
    return Invocation(name, "compare", config, ("--far-field",) if far_field else ())


def _qubit(rng, name, cutoff) -> Invocation:
    omega = float(rng.uniform(0.5, 2.0))
    t_max = float(rng.uniform(1.0, 2.0)) * 2.0 * math.pi / omega
    config = {
        "experiment": "qubit",
        "qubit": {"omega": omega, "cutoff": cutoff},
        "scan": {"t_max": t_max, "n_points": SWEEP_POINTS},
    }
    return Invocation(name, "qubit", config)


def screen_scan(rng: np.random.Generator) -> list[Invocation]:
    """Three large exact-mode scans; the qubit code does not run."""
    return [
        _fringe(rng, "fringe_fock", 2, FRINGE_POINTS, {"fock": 1, "cutoff": 16}),
        _fringe(
            rng,
            "fringe_thermal",
            MIXED_SLITS,
            MIXED_POINTS,
            {"thermal": float(rng.uniform(0.5, 3.0)), "cutoff": MIXED_CUTOFF},
        ),
        _compare(rng, "compare", COMPARE_POINTS),
    ]


def qubit_curve(rng: np.random.Generator) -> list[Invocation]:
    """Flip curves at two cutoffs; the slit code does not run."""
    return [_qubit(rng, f"qubit_c{cutoff}", cutoff) for cutoff in QUBIT_CUTOFFS]


def cli_sweep(rng: np.random.Generator) -> list[Invocation]:
    """Two dozen small runs of every experiment, in a seeded order."""
    runs = []
    for i in range(4):
        n_slits = int(rng.integers(2, 5))
        state = {"fock": int(rng.integers(1, 4)), "cutoff": 16}
        runs.append(_fringe(rng, f"fringe_fock_{i}", n_slits, SWEEP_POINTS, state))
    for i in range(4):
        n_slits = int(rng.integers(2, 5))
        radius, phase = rng.uniform(0.3, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        alpha = [float(radius * math.cos(phase)), float(radius * math.sin(phase))]
        state = {"coherent": alpha, "cutoff": 16}
        runs.append(_fringe(rng, f"fringe_coherent_{i}", n_slits, SWEEP_POINTS, state))
    runs += [_qubit(rng, f"qubit_{i}", 8) for i in range(6)]
    runs += [_compare(rng, f"compare_{i}", SWEEP_POINTS, far_field=i % 2 == 1) for i in range(8)]
    runs += [Invocation(f"verify_{i}", "verify", {"experiment": "verify"}) for i in range(2)]
    order = rng.permutation(len(runs))
    return [runs[i] for i in order]


WORKLOADS = {"screen_scan": screen_scan, "qubit_curve": qubit_curve, "cli_sweep": cli_sweep}


def generate(workload: str, seed: int) -> list[Invocation]:
    return WORKLOADS[workload](np.random.default_rng(seed))
