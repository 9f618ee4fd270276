"""Single-qubit teleportation with an environment-coupled correction step.

The ideal protocol delivers an exact replica; realizing the correction
unitary through a physical apparatus couples the receiver's qubit to the
apparatus environment and degrades the replica. This package simulates both,
reports the delivered reduced state, and quantifies the deviation from the
sender's original as a function of the environment overlap.
"""

from .envmodel import (
    ClosedForm,
    DegenerateModelError,
    DeviationReport,
    EnvironmentModel,
    closed_form,
    deviation,
    deviation_closed_form_paper,
    direct_report,
    embed_environment,
    evolve,
    noisy_teleport,
    printed_deviation,
    reduced_state,
    reduced_state_paper_literal,
)
from .qcore import (
    DensityMatrix,
    Gate,
    Ket,
    Projector,
    apply_gate,
    bell_basis,
    born_measure,
    fidelity,
    ket_from_amplitudes,
    purity,
    seeded_stream,
    to_density,
)
from .teleport import (
    CORRECTIONS,
    BellOutcome,
    TeleportRecord,
    alice_measure,
    correction_for,
    enumerate_branches,
    prepare_joint,
    run_ideal,
    singlet,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Ket",
    "DensityMatrix",
    "Gate",
    "Projector",
    "ket_from_amplitudes",
    "to_density",
    "apply_gate",
    "bell_basis",
    "born_measure",
    "fidelity",
    "purity",
    "seeded_stream",
    "BellOutcome",
    "TeleportRecord",
    "CORRECTIONS",
    "singlet",
    "prepare_joint",
    "alice_measure",
    "correction_for",
    "run_ideal",
    "enumerate_branches",
    "EnvironmentModel",
    "DeviationReport",
    "DegenerateModelError",
    "ClosedForm",
    "closed_form",
    "embed_environment",
    "evolve",
    "reduced_state",
    "reduced_state_paper_literal",
    "deviation",
    "deviation_closed_form_paper",
    "printed_deviation",
    "direct_report",
    "noisy_teleport",
]
