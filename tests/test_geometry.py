"""Level-set geometry: values and exact edge crossings."""

import numpy as np
import pytest

from cutfsi.geometry import CircleLevelSet, edge_zero_crossings

RS = 0.75
R = np.sqrt(RS)


def crossings(ls, a, b):
    """Crossing points of one segment, from the batched routine."""
    pts, found = edge_zero_crossings(ls, a, b)
    return list(pts[found])


def bisect_crossing(ls, a, b, tol=1e-15):
    """Independent oracle: bisection on phi along the segment a-b."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    fa, fb = ls(a), ls(b)
    assert fa * fb < 0
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = ls(m)
        if abs(fm) < tol:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def test_level_set_values():
    ls = CircleLevelSet(RS)
    assert ls([0.0, 0.0]) == pytest.approx(-RS)
    assert ls([1.0, 0.0]) == pytest.approx(1.0 - RS)
    on = np.array([R, 0.0])
    assert abs(ls(on)) < 1e-14


def test_level_set_vectorized():
    ls = CircleLevelSet(RS)
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [R, 0.0]])
    phi = ls(pts)
    assert phi.shape == (3,)
    assert phi[0] < 0 < phi[1]


def test_radius_property():
    assert CircleLevelSet(RS).radius == pytest.approx(R)


def test_normal_is_unit_and_points_to_centre():
    """The outward fluid normal at points on the circle, also off the
    origin: unit length, pointing from the point to the centre."""
    ls = CircleLevelSet(RS, center=np.array([0.1, -0.05]))
    th = np.linspace(0.0, 2.0 * np.pi, 13)
    pts = ls.center + R * np.column_stack([np.cos(th), np.sin(th)])
    nrm = ls.normal(pts)
    assert nrm.shape == pts.shape
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(nrm, -np.column_stack([np.cos(th), np.sin(th)]), rtol=0, atol=1e-15)
    assert np.all(np.sum(nrm * (pts - ls.center), axis=1) < 0.0)
    assert np.allclose(ls.normal(pts.reshape(13, 1, 2)), nrm[:, None, :], rtol=0, atol=0)


def test_crossing_matches_bisection_oracle():
    ls = CircleLevelSet(RS)
    rng = np.random.default_rng(7)
    count = 0
    for _ in range(50):
        a = rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2)
        if ls(a) * ls(b) >= 0:
            continue
        count += 1
        roots = crossings(ls, a, b)
        assert len(roots) >= 1
        ref = bisect_crossing(ls, a, b)
        best = min(np.linalg.norm(r - ref) for r in roots)
        assert best < 1e-12
    assert count > 10


def test_crossings_lie_on_circle():
    ls = CircleLevelSet(RS)
    for a, b in [([0, 0], [1, 0]), ([-1, -1], [0.5, 0.6]), ([0, -1], [0, 1])]:
        for p in crossings(ls, a, b):
            assert abs(np.dot(p, p) - RS) < 1e-12


def test_double_crossing_both_found():
    # Horizontal chord through the disk: two crossings on one segment.
    ls = CircleLevelSet(RS)
    roots = crossings(ls, [-1.0, 0.1], [1.0, 0.1])
    assert len(roots) == 2
    xs = sorted(r[0] for r in roots)
    exact = np.sqrt(RS - 0.1 ** 2)
    assert xs[0] == pytest.approx(-exact, abs=1e-13)
    assert xs[1] == pytest.approx(exact, abs=1e-13)


def test_no_crossing_outside():
    ls = CircleLevelSet(RS)
    assert crossings(ls, [0.9, 0.9], [1.0, 1.0]) == []


def test_tangent_segment():
    # Segment tangent to the circle at (0, R): it touches without crossing.
    ls = CircleLevelSet(RS)
    assert crossings(ls, [-1.0, R], [1.0, R]) == []
