"""Tangles of infinite graphs over finitely presented schemas.

Separation algebra, ultrafilters of cofinite components and their inverse
system, end and ultrafilter tangles, the compactification's basic opens,
kernels and closedness, and k-blocks, all cross-validated by brute-force
oracles on finite truncations.

The root re-exports only the entry points of the README's library sketch;
everything else is imported from its submodule, e.g.
``from tangles.components import components``.
"""

from .infinite_tangles import census, orient, uf_tangle
from .separations import from_bipartition

__all__ = ["census", "from_bipartition", "orient", "uf_tangle"]
