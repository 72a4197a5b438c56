"""Hot numerical kernels: vectorised numpy implementations (see ``_np``).

``BACKEND`` and ``compiled_backend()`` remain for run manifests that record
which implementation ran; numpy is the only one.
"""

from __future__ import annotations

from ._np import kernel_sums, pde_run, powerlaw_lifetimes

BACKEND = "numpy"


def compiled_backend():
    """Always None: there is no compiled extension."""
    return None
