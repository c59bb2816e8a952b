"""Circle level set and exact edge intersections.

The interface is the zero set of  phi(x) = |x - c|^2 - r^2,  negative inside
the solid disk, positive in the fluid.  Everything downstream (cut topology,
quadrature) relies on the intersections being computed from the closed-form
quadratic, so no tolerance creep enters the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CircleLevelSet:
    """Level set of a circle: phi(x) = |x - center|^2 - radius_squared."""

    radius_squared: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if self.radius_squared <= 0.0:
            raise ValueError("radius_squared must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def radius(self) -> float:
        return float(np.sqrt(self.radius_squared))

    def __call__(self, x) -> np.ndarray | float:
        """Evaluate phi at one point (2,) or many points (..., 2)."""
        x = np.asarray(x, dtype=float)
        d = x - self.center
        val = np.sum(d * d, axis=-1) - self.radius_squared
        return float(val) if val.ndim == 0 else val

    def normal(self, x) -> np.ndarray:
        """Outward fluid normal, into the solid, at points x (..., 2) on the circle."""
        return (self.center - np.asarray(x, dtype=float)) / self.radius


def rowdot(x, y) -> np.ndarray:
    """Inner products over the last axis, row by row.

    Each row is one BLAS dot, the product ``x @ y`` computes for a single
    pair, so batched geometry reproduces the per-segment values bit for bit.
    """
    return (np.asarray(x)[..., None, :] @ np.asarray(y)[..., :, None])[..., 0, 0]


def edge_zero_crossings(ls: CircleLevelSet, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Crossings of the segments [a, b] with the zero set of ``ls``, decided
    by the signs of phi at their ends (inside where phi <= 0).

    ``a`` and ``b`` have shape (..., 2).  Returns ``(points, found)`` of
    shapes (..., 2, 2) and (..., 2).  Ends on different sides have one
    crossing, the root between them clipped to the segment; two ends outside
    have two where both roots lie strictly inside it and are distinct (a
    discriminant within round-off of zero touches without crossing); two
    ends inside have none.  Each segment is solved from its end of smaller
    |phi|, so an end with phi = 0 has its root at t = 0 exactly: that root is
    the end's own crossing and is not returned.
    """
    swap = np.less(np.abs(ls(b)), np.abs(ls(a)))[..., None]
    x, y = np.where(swap, b, a), np.where(swap, a, b)
    phi_x, phi_y = np.asarray(ls(x)), np.asarray(ls(y))
    d = y - x
    if np.any(np.all(d == 0.0, axis=-1)):
        raise ValueError("degenerate segment: a == b")
    # phi(x + t d) = qa t^2 + qb t + phi(x): quadratic in t.
    qa = rowdot(d, d)
    qb = 2.0 * rowdot(x - ls.center, d)
    disc = qb * qb - 4.0 * qa * phi_x
    crosses = disc > 1e-14 * np.maximum(np.abs(qb * qb) + np.abs(4.0 * qa * phi_x), 1.0)
    one = (phi_x <= 0.0) != (phi_y <= 0.0)
    # numerically stable pair of roots, where they are read; q = 0 there
    # only at a double root t = 0 on an end with phi = 0
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
    small = phi_x / np.where((one | crosses) & (q != 0.0), q, 1.0)
    t = np.sort(np.stack([q / qa, small], axis=-1), axis=-1)
    # phi rises through zero at the larger root and falls at the smaller
    t_one = np.clip(np.where(phi_x <= 0.0, t[..., 1], t[..., 0]), 0.0, 1.0)
    two = (phi_x > 0.0) & (phi_y > 0.0) & crosses & (t[..., 0] > 0.0) & (t[..., 1] < 1.0)
    t = np.where(one[..., None], t_one[..., None], t)
    found = np.stack([one & ((t_one > 0.0) | (phi_x != 0.0)) | two, two], axis=-1)
    return x[..., None, :] + t[..., None] * d[..., None, :], found
