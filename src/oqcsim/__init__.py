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
