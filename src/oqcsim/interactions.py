"""Blockade-shift models and the addressability predicate.

Two conditional-shift mechanisms are modeled as orientation-averaged
power laws in the center separation R (lattice units):

* static quadrupole-quadrupole:  delta = C_qq sqrt(u2_a u2_b) / R^5,
  scaled by the squared diagonal U(2) elements of the two levels;
* exchange dipole-dipole:        delta = C_dd sqrt(f_a f_b) / R^3,
  scaled by the oscillator strengths (2 f1 for bright pair states).

Default constants are calibrated once against the reference dopant
scenario (concentration 0.01 on a simple-cubic lattice, where the
median nearest-neighbor spacing is sqrt(6) a): a unit moment product at
that spacing gives a 1 GHz shift, matching the GHz-scale quadrupole
blockade the scenario is designed around.  Both constants are
overridable per model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError
from .ensemble import (CenterSet, CrystalSpec, ensemble_neighborhood,
                       nearest_neighbor_distances, sample_lattice)

# median dopant nearest-neighbor spacing at the reference concentration 0.01
REFERENCE_SPACING = math.sqrt(6.0)

C_QQ_DEFAULT = 1e9 * REFERENCE_SPACING**5    # Hz (lattice units)^5
C_DD_DEFAULT = 1e9 * REFERENCE_SPACING**3    # Hz (lattice units)^3


@dataclass(frozen=True)
class BlockadeModel:
    """Coupling constants and feasibility margin for blockade estimates."""

    c_qq: float = C_QQ_DEFAULT
    c_dd: float = C_DD_DEFAULT
    blockade_margin: float = 3.0

    def __post_init__(self):
        if self.c_qq < 0 or self.c_dd < 0:
            raise ValidationError("coupling constants must be >= 0")
        if self.blockade_margin < 1:
            raise ValidationError("blockade margin must be >= 1")


DEFAULT_MODEL = BlockadeModel()


def quadrupole_shift(u2_a: float, u2_b: float, r: float,
                     model: BlockadeModel = DEFAULT_MODEL) -> float:
    """Static quadrupole-quadrupole shift (Hz) at separation r.

    Zero if either level carries no quadrupole moment (u2 = 0).
    """
    if r <= 0:
        raise DomainError("separation must be > 0")
    if u2_a < 0 or u2_b < 0:
        raise DomainError("U(2) elements must be >= 0")
    return model.c_qq * math.sqrt(u2_a * u2_b) / r**5


def dipole_shift(f_a: float, f_b: float, r: float,
                 model: BlockadeModel = DEFAULT_MODEL) -> float:
    """Exchange dipole-dipole shift (Hz) between states of strengths f_a, f_b."""
    if r <= 0:
        raise DomainError("separation must be > 0")
    if f_a < 0 or f_b < 0:
        raise DomainError("oscillator strengths must be >= 0")
    return model.c_dd * math.sqrt(f_a * f_b) / r**3


class FeasibilityResult(NamedTuple):
    feasible: bool
    margin: float      # delta / (kappa * Gamma_L)


def blockade_feasible(delta: float, gamma_l: float,
                      kappa: float | None = None,
                      model: BlockadeModel = DEFAULT_MODEL) -> FeasibilityResult:
    """Whether a shift delta blocks a pulse of spectral width Gamma_L.

    Feasible iff delta > kappa * Gamma_L (strict); kappa defaults to the
    model margin.  The returned margin is delta / (kappa * Gamma_L), so
    1.0 sits exactly on the (infeasible) boundary.
    """
    if gamma_l <= 0:
        raise DomainError("Gamma_L must be > 0")
    if kappa is None:
        kappa = model.blockade_margin
    if kappa < 1:
        raise DomainError("kappa must be >= 1")
    margin = delta / (kappa * gamma_l)
    return FeasibilityResult(margin > 1.0, margin)


@dataclass(frozen=True)
class EnsembleShiftReport:
    """Pairwise-shift statistics over one sampled dopant neighborhood."""

    n_ensemble: int
    nn_distances: tuple[float, ...]
    shifts_hz: tuple[float, ...]
    median_shift_hz: float
    feasible: bool
    margin: float


def ensemble_blockade_report(centers: CenterSet, u2_a: float, u2_b: float,
                             gamma_l: float, n_ensemble: int = 50,
                             model: BlockadeModel = DEFAULT_MODEL) -> EnsembleShiftReport:
    """Median nearest-neighbor quadrupole shift over a sampled ensemble.

    Takes the reference dopant of the sampled centers plus its
    n_ensemble nearest neighbors, computes each member's shift to its
    nearest in-ensemble partner, and applies the feasibility predicate
    to the median shift.
    """
    idx = ensemble_neighborhood(centers, n_ensemble)
    nn = nearest_neighbor_distances(centers.positions[idx], centers.box_size)
    shifts = np.array([quadrupole_shift(u2_a, u2_b, r, model) for r in nn])
    median = float(np.median(shifts))
    feasible, margin = blockade_feasible(median, gamma_l, model=model)
    return EnsembleShiftReport(
        n_ensemble=n_ensemble,
        nn_distances=tuple(float(r) for r in nn),
        shifts_hz=tuple(float(s) for s in shifts),
        median_shift_hz=median,
        feasible=feasible,
        margin=margin,
    )


def calibrate_blockade_constants(concentration: float = 0.01, box_size: int = 50,
                                 n_ensemble: int = 50, seed: int = 20240101,
                                 target_shift_hz: float = 1e9,
                                 u2_ref: float = 1.0, f_ref: float = 1.0,
                                 ) -> BlockadeModel:
    """Re-derive the default constants from the calibration recipe.

    Samples the reference scenario, measures the median nearest-neighbor
    spacing of the dopants, and sets each constant so that the reference
    moment product at that spacing produces target_shift_hz.  The
    shipped defaults come from this recipe (median spacing sqrt(6) a,
    stable across seeds at the reference concentration).
    """
    spec = CrystalSpec(concentration=concentration, gamma_inh=1e12, gamma_h=1e6,
                       box_size=box_size)
    centers = sample_lattice(spec, seed)
    if len(centers) < n_ensemble + 1:
        raise DomainError("calibration box too small for the requested ensemble")
    r_med = float(np.median(nearest_neighbor_distances(centers.positions, box_size)))
    return BlockadeModel(
        c_qq=target_shift_hz * r_med**5 / u2_ref,
        c_dd=target_shift_hz * r_med**3 / f_ref,
    )
