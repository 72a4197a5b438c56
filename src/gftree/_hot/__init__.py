"""Hot numerical kernels in numpy (see ``_np``): the binned kernel sums of
many rows (``kernel_sums_rows``, one windowed dot product per lattice point
the centers read) or one (``kernel_sums``), lifetimes and the explicit
march ``pde_run`` of the PDE's upwind operator.  ``BACKEND``
and ``compiled_backend()`` remain for run manifests that record which
implementation ran; numpy is the only one."""

from __future__ import annotations

from ._np import kernel_sums, kernel_sums_rows, pde_run, powerlaw_lifetimes

BACKEND = "numpy"


def compiled_backend():
    """Always None: there is no compiled extension."""
    return None
