"""Scenario configs for the benchmark workloads, generated from a seed.

Each workload is one `oqcsim run` job a user waits on.  The config is
the only thing the program under test receives; the seed fixes every
value in it, so the same seed gives the same config byte for byte.
Varying the seed changes the inputs (lattice draw, Rabi values) but not
the amount of work, which keeps run times comparable across seeds.
"""
from __future__ import annotations

import math
import random

DEFAULT_SEED = 20240101

TWO_PI = 2.0 * math.pi

# Nd3+:CaF2 reference scenario (the bundled nd_caf2_ensemble config) at a
# box large enough that the ensemble stages dominate the run.
ENSEMBLE_BOX_SIZE = 250
ENSEMBLE_CONCENTRATION = 0.01
CHANNEL_MIN_GAP_HZ = 3.0e8

CLOSED_N_DELTA = 80          # delta/Omega values, geometric from 1 to 200
CLOSED_N_RABI = 50           # Rabi values per delta/Omega
CLOSED_DELTA_RANGE = (1.0, 200.0)
CLOSED_RABI_RANGE_HZ = (0.5e9, 5.0e9)

# Fidelity oscillates in delta/Omega between these points (off-resonant
# Rabi cycling), so monotonicity in delta/Omega is only checked on a grid
# that steps over the oscillation, as the bundled blockade sweep does.
NOISY_DELTA_OVER_OMEGA = [3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 100.0]
NOISY_GAMMA_H_HZ = [1.0e5, 1.0e6, 1.0e7, 1.0e8]
NOISY_RABI_RANGE_HZ = (0.5e9, 2.0e9)


def ensemble_box(seed: int) -> dict:
    return {
        "seed": seed,
        "species": {"use": "Nd3+", "host": "CaF2"},
        "crystal": {
            "concentration": ENSEMBLE_CONCENTRATION,
            "gamma_inh_hz": 1.0e12,
            "gamma_h_hz": 1.0e6,
            "box_size": ENSEMBLE_BOX_SIZE,
            "distribution": "gaussian",
            "n_ensemble": 50,
            "pair_radius": 2.0,
            "channel_min_gap_hz": CHANNEL_MIN_GAP_HZ,
            "export_centers": True,
            "export_channels": True,
        },
        "pulses": {
            "carrier_cm": 11530.0,
            "radiative_lifetime_s": 4.3e-4,
            "gamma_l_hz": 1.0e8,
            "cross_section_cm2": 1.0e-7,
        },
        "interactions": {"kappa": 3.0},
    }


def _geometric(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _log_uniform_sorted(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return sorted(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n))


def closed_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    rabi = [TWO_PI * f for f in _log_uniform_sorted(rng, *CLOSED_RABI_RANGE_HZ, CLOSED_N_RABI)]
    return {
        "seed": seed,
        "gate": {
            "type": "canonical_cz",
            "rabi_rad_s": TWO_PI * 1.0e9,
            "delta_shift_rad_s": TWO_PI * 2.0e10,
            "gamma_l_hz": 1.0e9,
            "noise": {"lifetimes": False, "dephasing": False},
            "gate_target": "cz",
            "export_trajectory": True,
            "trajectory_input": "11",
        },
        "sweep": {"grid": {
            "delta_over_omega": _geometric(*CLOSED_DELTA_RANGE, CLOSED_N_DELTA),
            "rabi_rad_s": rabi,
        }},
    }


def noisy_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    rabi = TWO_PI * _log_uniform_sorted(rng, *NOISY_RABI_RANGE_HZ, 1)[0]
    pair = {"mean_excitation_cm": 11530.0, "half_detuning_cm": 0.5,
            "exchange_cm": 5.0, "f1": 1.0}

    def pulse(qubit, transition):
        return {"qubit": qubit, "transition": transition, "area": "pi", "rabi_rad_s": rabi}

    return {
        "seed": seed,
        "gate": {
            "type": "pair_center",
            "rabi_rad_s": rabi,
            "gamma_l_hz": 1.0e9,
            "gamma_h_hz": 1.0e6,
            "noise": {"lifetimes": True, "dephasing": True},
            "pair_center": {
                "control": dict(pair),
                "target": dict(pair),
                "distance_lu": 1.5,
                "tau_single_s": 4.3e-4,
                "mode": "perturbative",
            },
            # the bundled pair_center_cnot sequence
            "sequence": [
                pulse("control", ["1", "1p"]),
                pulse("target", ["1", "1p"]),
                pulse("target", ["1p", "1"]),
                pulse("control", ["1p", "1"]),
            ],
            "export_trajectory": True,
            "trajectory_input": "11",
        },
        "sweep": {"grid": {
            "delta_over_omega": list(NOISY_DELTA_OVER_OMEGA),
            "gamma_h_hz": list(NOISY_GAMMA_H_HZ),
        }},
    }


WORKLOADS = {
    "ensemble_box": ensemble_box,
    "closed_sweep": closed_sweep,
    "noisy_sweep": noisy_sweep,
}


def make_config(name: str, seed: int) -> dict:
    return WORKLOADS[name](seed)
