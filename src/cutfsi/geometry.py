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
    """Crossings of the segments [a, b] with the zero set of ``ls``.

    ``a`` and ``b`` have shape (..., 2).  Returns ``(points, found)`` of
    shapes (..., 2, 2) and (..., 2): the two roots of the quadratic
    phi(a + t (b - a)) = 0 per segment in increasing t, and whether each lies
    on the segment.  A double root, a discriminant within round-off of zero,
    is a point where the circle touches the segment's line without crossing
    it; it is not returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    if np.any(np.all(d == 0.0, axis=-1)):
        raise ValueError("degenerate segment: a == b")
    # phi(a + t d) = |m + t d|^2 - r^2 with m = a - c: quadratic in t.
    m = a - ls.center
    qa = rowdot(d, d)
    qb = 2.0 * rowdot(m, d)
    qc = rowdot(m, m) - ls.radius_squared
    disc = qb * qb - 4.0 * qa * qc
    scale = np.abs(qb * qb) + np.abs(4.0 * qa * qc)
    crosses = disc > 1e-14 * np.maximum(scale, 1.0)
    # numerically stable pair of roots; q != 0 wherever the roots are distinct
    q = -0.5 * (qb + np.copysign(np.sqrt(np.where(crosses, disc, 0.0)), qb))
    q = np.where(crosses, q, 1.0)
    t = np.sort(np.stack([q / qa, qc / q], axis=-1), axis=-1)
    eps = 1e-13
    found = crosses[..., None] & (t >= -eps) & (t <= 1.0 + eps)
    return a[..., None, :] + t[..., None] * d[..., None, :], found
