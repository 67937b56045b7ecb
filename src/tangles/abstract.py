"""The cardinality-free tangle property of abstract separation systems,
checked on graph separations.

The property says a consistent orientation is a tangle exactly when no
finite star inside it has a supremum whose inverse is small (below its
own involution image).  For graph separations the supremum of a star is
the corner join fold, and its inverse is small exactly when the star's
far sides meet in a finite set, so the two definitions can be compared
sample by sample.

The B sides of a star at one level X meet in X together with the
components that every member selects, so that meet is finite exactly when
those components hold finitely many vertices; ``finite_far_side`` reads
the selections there and builds the sides only for a star across levels.
"""

from __future__ import annotations

import operator
from functools import reduce

from .separations import OrientedSeparation, is_star


def star_supremum(star: list[OrientedSeparation]) -> OrientedSeparation:
    acc = star[0]
    for s in star[1:]:
        acc = acc.corner_join(s)
    return acc


def small_inverse_supremum(star: list[OrientedSeparation]) -> bool:
    return star_supremum(star).inverse().is_small


def finite_far_side(star: list[OrientedSeparation]) -> bool:
    """Whether the B sides of the star's members meet in a finite set."""
    if all(s.X == star[0].X for s in star):
        return reduce(operator.and_, (s.toB for s in star)).union_vertices().is_finite
    return reduce(operator.and_, (s.side_B for s in star)).is_finite


def observation_check(tangle, stars: list[list[OrientedSeparation]]) -> dict:
    """Per sampled star inside the tangle: the supremum's inverse is small
    exactly when the far sides meet finitely.  Also exercises padded
    two-element stars built from a member and its padded inverse, whose
    supremum must be flagged small-inverse."""
    from .infinite_tangles import in_tangle

    mismatches, checked = [], 0
    for star in stars:
        if not star or not is_star(star) or not all(in_tangle(tangle, s) for s in star):
            continue
        checked += 1
        small = small_inverse_supremum(star)
        finite = finite_far_side(star)
        if small != finite:
            mismatches.append([s.text() for s in star])
    padded = []
    for star in stars[:5]:
        if not star:
            continue
        probe = padding_probe(star[0])
        padded.append(probe)
    return {
        "tangle": getattr(tangle, "id", lambda: "orientation")(),
        "stars_checked": checked,
        "mismatches": mismatches,
        "padded_probes": padded,
        "ok": not mismatches and all(p["small_inverse"] and p["finite_far"] for p in padded),
    }


def padding_probe(sep: OrientedSeparation) -> dict:
    """The two-element star {(A,B), (B,A)} has supremum (V, X), whose
    inverse is small; its far sides meet in the finite separator X."""
    star = [sep, sep.inverse()]
    assert is_star(star)
    sup = star_supremum(star)
    return {
        "separation": sep.text(),
        "supremum": sup.text(),
        "small_inverse": sup.inverse().is_small,
        "finite_far": finite_far_side(star),
    }
