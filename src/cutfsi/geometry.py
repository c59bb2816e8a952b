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


def edge_zero_crossings(ls: CircleLevelSet, a, b) -> list[np.ndarray]:
    """Intersections of the segment [a, b] with the zero set of ``ls``.

    Returns 0, 1 or 2 points ordered by increasing segment parameter.
    A tangency (double root) is returned once.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    if not np.any(d != 0.0):
        raise ValueError("degenerate segment: a == b")
    # phi(a + t d) = |m + t d|^2 - r^2 with m = a - c: quadratic in t.
    m = a - ls.center
    qa = float(d @ d)
    qb = 2.0 * float(m @ d)
    qc = float(m @ m) - ls.radius_squared
    disc = qb * qb - 4.0 * qa * qc
    scale = abs(qb * qb) + abs(4.0 * qa * qc)
    if disc <= 0.0:
        if disc < -1e-14 * max(scale, 1.0):
            return []
        # tangency: double root, returned once if on the segment
        t = -qb / (2.0 * qa)
        return [a + t * d] if 0.0 <= t <= 1.0 else []
    sq = np.sqrt(disc)
    # numerically stable pair of roots
    q = -0.5 * (qb + np.copysign(sq, qb))
    roots = sorted({q / qa, qc / q} if q != 0.0 else {0.0})
    eps = 1e-13
    out = [a + t * d for t in roots if -eps <= t <= 1.0 + eps]
    # deduplicate near-coincident roots
    if len(out) == 2 and np.linalg.norm(out[1] - out[0]) < 1e-13 * (1.0 + np.linalg.norm(d)):
        out = out[:1]
    return out
