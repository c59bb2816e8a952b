"""Backward Euler step: inflow profile, Dirichlet handling, the step system.

The step matrix is time independent (fixed interface), so it is assembled
and factorized once; only the ramped lid values change per step.  The
solved unknowns are (v_f, p, v_s); after each solve the displacement is
updated as u^n = u^{n-1} + k v_s^n.  Only the free (non-Dirichlet) block of
the step matrix R is factorized, with the free dofs ``free`` in the
nested-dissection order of the mesh lattice.  The lid enters each
right-hand side as the ramp times ``lift``, R[free, dir] g at full ramp.
The continuity form is tested with -xi, so R, and its free block, equal
their transposes bit for bit (``assembly.system_matrices``); the free
block is read through R^T, sorted.  Callers own the time loop:
``initialize`` gives the zero state at t = 0 and ``step`` advances it by k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .assembly import system_matrices
from .config import SimulationConfig
from .discretization import Discretization, nested_dissection

# Relative step residual above which one step of iterative refinement
# against the stored R is made.
REFINE_TOL = 1e-12


def inflow_profile_x(x, cfg: SimulationConfig) -> np.ndarray:
    """Horizontal lid velocity (before the temporal ramp)."""
    x = np.asarray(x, dtype=float)
    v = np.full_like(x, cfg.peak_inflow)
    left = x <= -0.7
    right = x >= 0.7
    v = np.where(left, cfg.peak_inflow * np.sin((x + 1.0) * np.pi / 0.6) ** 2, v)
    v = np.where(right, cfg.peak_inflow * np.sin((x - 1.0) * np.pi / 0.6) ** 2, v)
    return v


def ramp_factor(t: float, cfg: SimulationConfig) -> float:
    if t >= cfg.ramp_time:
        return 1.0
    if t <= 0.0:
        return 0.0
    return 0.5 * (1.0 - np.cos(t * np.pi / cfg.ramp_time))


@dataclass
class State:
    """Monolithic coefficient vector at one time index.

    ``solve_residual`` is the step residual ||b_f - R x_f|| of the free rows
    relative to the whole right-hand side, hypot(||b_f||, ||g||), with g the
    Dirichlet values.
    """

    index: int
    t: float
    x: np.ndarray
    solve_residual: float = 0.0
    constraint_residual: float = 0.0


@dataclass
class StepRecord:
    n: int
    t: float
    solve_residual: float
    constraint_residual: float
    energy: dict = field(default_factory=dict)

    @classmethod
    def of(cls, state: State, energy: dict | None = None) -> "StepRecord":
        """The record of a computed step, with its energies if given."""
        return cls(n=state.index, t=state.t, solve_residual=state.solve_residual,
                   constraint_residual=state.constraint_residual, energy=energy or {})


class TimeStepper:
    """Assembles and factorizes the (v_f, p, v_s) step system, advances it."""

    def __init__(self, disc: Discretization):
        self.disc = disc
        self.cfg = disc.cfg
        R, self.M, self.K, self.forms = system_matrices(disc)

        # Dirichlet data: all fluid-velocity dofs on the outer boundary
        vf = disc.vf
        nodes = vf.dirichlet_nodes
        self.dir_idx = np.concatenate([disc.layout.offset("vf") + c * vf.n_scalar + nodes
                                       for c in range(2)])
        coords = vf.node_coords[nodes]
        on_lid = np.abs(coords[:, 1] - 1.0) < 1e-12
        profile = np.where(on_lid, inflow_profile_x(coords[:, 0], self.cfg), 0.0)

        # values at full ramp: x-component first, y-component identically zero
        self.g_profile = np.concatenate([profile, np.zeros_like(profile)])
        # factorize the free block in nested-dissection order; the free-row,
        # Dirichlet-column block lifts g_profile into the free rows.  As R
        # equals its transpose, both are rows of R[free]^T
        free = np.ones(R.shape[0], dtype=bool)
        free[self.dir_idx] = False
        self.free = nested_dissection(disc, np.flatnonzero(free))
        R = R[self.free]
        R = R.T.tocsr()
        self.R, self.lift = R[self.free], R[self.dir_idx].T @ self.g_profile
        del R  # at most two copies of R were alive, and none stays for the LU
        for a in (self.g_profile, self.lift):
            a.setflags(write=False)
        self.fact = linalg.factorize(self.R)

    def initialize(self) -> State:
        """Zero initial state (consistent with the ramp at t = 0)."""
        return State(index=0, t=0.0, x=np.zeros(self.disc.layout.total))

    def lyapunov(self, state: State) -> float:
        """Discrete energy Q^n = 1/2 x.Mx + 1/2 u.Ku of a state, x its
        (v_f, p, v_s) block and u its displacement; it decays step to step
        for homogeneous data."""
        layout = self.disc.layout
        x, u = state.x[:layout.n_system], state.x[layout.slice("u")]
        return 0.5 * float(x @ (self.M @ x) + u @ (self.K @ u))

    def step(self, state: State) -> State:
        cfg = self.cfg
        layout = self.disc.layout
        t_new = state.t + cfg.k
        ramp = ramp_factor(t_new, cfg)
        g = ramp * self.g_profile
        u_old = state.x[layout.slice("u")]
        b = self.M @ state.x[:layout.n_system]
        b[layout.slice("vs")] -= cfg.k * (self.K @ u_old)
        b_f = b[self.free] - ramp * self.lift
        x_f = self.fact.solve(b_f)
        b_norm = max(np.hypot(np.linalg.norm(b_f), np.linalg.norm(g)), 1e-300)
        r = b_f - self.R @ x_f
        res = np.linalg.norm(r) / b_norm
        if res > REFINE_TOL:
            x_f += self.fact.solve(r)
            res = np.linalg.norm(b_f - self.R @ x_f) / b_norm
        if not np.isfinite(res):
            raise linalg.SingularMatrixError(
                f"step {state.index + 1}: relative residual {res} is not finite")
        x = np.empty(layout.total)
        x[self.free], x[self.dir_idx] = x_f, g
        x[layout.slice("u")] = u_old + cfg.k * x[layout.slice("vs")]
        du = x[layout.slice("u")] - u_old
        cres = np.max(np.abs(du - cfg.k * x[layout.slice("vs")])) if du.size else 0.0
        return State(index=state.index + 1, t=t_new, x=x,
                     solve_residual=float(res), constraint_residual=float(cres))
