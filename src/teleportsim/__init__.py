"""Single-qubit teleportation with an environment-coupled correction step.

The ideal protocol delivers an exact replica; realizing the correction
unitary through a physical apparatus couples the receiver's qubit to the
apparatus environment and degrades the replica. This package simulates both,
reports the delivered reduced state, and quantifies the deviation from the
sender's original as a function of the environment overlap.

The package exports the ``__all__`` of ``envmodel``, ``qcore`` and
``teleport``; each module's ``__all__`` is the one list of its public names.
"""

from . import envmodel, qcore, teleport
from .envmodel import *
from .qcore import *
from .teleport import *

__version__ = "0.1.0"

__all__ = ["__version__", *envmodel.__all__, *qcore.__all__, *teleport.__all__]
