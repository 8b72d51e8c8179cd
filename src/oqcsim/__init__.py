"""oqcsim: calculators and simulators for nanosecond optical-frequency qubits.

Subpackages by capability:

* quantities   -- constants and spectroscopic unit conversions
* species      -- ion level data, lifetimes, U(2) elements, role validation
* pulses       -- pi-pulse intensity/energy/field budgets, pulse sequences
* paircenter   -- dark/bright exciton states of coupled emitter pairs
* interactions -- Stark (quadrupole) and dipole blockade shift models
* ensemble     -- Monte-Carlo dopant placement, inhomogeneous lines,
                  spectral selection, channel allocation
* dynamics     -- exact unitary and Lindblad propagation of small registers
* gates        -- two-qubit protocol execution, truth tables, fidelities
* runner/cli   -- deterministic config-driven scenario runner
"""

__version__ = "0.1.0"

from .quantities import (CONSTANTS, PhysicalConstants, SpectralQuantity, SpectralUnit,
                         convert, wave_number, wave_number_from_cm)
from .species import (EnergyLevel, LevelRole, SpeciesRegistry, SpeciesScheme,
                      TransitionDatum, load_registry, transition_frequency,
                      validate_scheme)
from .pulses import (BeamGeometry, EmitterRadiative, PulseSequence, PulseSpec,
                     build_sequence, peak_field, pi_pulse_budget, pi_pulse_intensity,
                     pulse_energy)
from .paircenter import (PairParams, PairStates, brightness_ratio, dark_state_lifetime,
                         pair_eigensystem_exact, pair_eigensystem_perturbative)
from .interactions import (BlockadeModel, blockade_feasible, calibrate_blockade_constants,
                           crossover_radius, dipole_shift, quadrupole_shift)
from .ensemble import (CenterSet, ChannelAllocation, CrystalSpec, allocate_channels,
                       assign_frequencies, ensemble_radius, identify_pairs,
                       mean_qubit_spacing, min_pair_concentration, sample_lattice,
                       spectral_select)
from .dynamics import (LevelSystem, QubitLevels, ShiftCoupling, build_hamiltonian,
                       propagate_lindblad, propagate_unitary, rabi_transfer)
from .gates import (GateReport, GateScenario, NoiseFlags, QubitScheme,
                    canonical_blockade_sequence, pair_center_scenario, run_protocol,
                    sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
