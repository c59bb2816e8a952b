"""Backward Euler driver: inflow profile, Dirichlet handling, time loop.

The step matrix is time independent (fixed interface), so it is assembled
and factorized once; only the ramped lid values change per step.  The
solved unknowns are (v_f, p, v_s); after each solve the displacement is
updated as u^n = u^{n-1} + k v_s^n.  The continuity rows of the step matrix
R are negated, so R (with its Dirichlet rows and columns replaced) is
symmetric; see ``assembly.system_matrices``.  The column entries that the
Dirichlet elimination drops lift the lid profile into one right-hand-side
vector, which each step scales by the ramp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .assembly import system_matrices
from .config import SimulationConfig
from .discretization import Discretization

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
    """Monolithic coefficient vector at one time index."""

    index: int
    t: float
    x: np.ndarray
    solve_residual: float = 0.0
    constraint_residual: float = 0.0

    def block(self, disc: Discretization, name: str) -> np.ndarray:
        return self.x[disc.layout.slice(name)]


@dataclass
class StepRecord:
    n: int
    t: float
    solve_residual: float
    constraint_residual: float
    energy: dict = field(default_factory=dict)


class TimeStepper:
    """Assembles and factorizes the (v_f, p, v_s) step system, advances it."""

    def __init__(self, disc: Discretization):
        self.disc = disc
        self.cfg = disc.cfg
        R, self.M, self.K, self.forms = system_matrices(disc)

        # Dirichlet data: all fluid-velocity dofs on the outer boundary
        vf = disc.vf
        nodes = vf.dirichlet_nodes
        self.dir_idx = np.concatenate([disc.layout.off_vf + c * vf.n_scalar + nodes
                                       for c in range(2)])
        coords = vf.node_coords[nodes]
        on_lid = np.abs(coords[:, 1] - 1.0) < 1e-12
        profile = np.where(on_lid, inflow_profile_x(coords[:, 0], self.cfg), 0.0)

        # row replacement with column elimination into the rhs, in place
        slot = np.full(R.shape[0], -1)
        slot[self.dir_idx] = np.arange(len(self.dir_idx))
        rows = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
        in_row, in_col = slot[rows] >= 0, slot[R.indices] >= 0
        lift = in_col & ~in_row
        self._lift = (rows[lift], slot[R.indices[lift]], R.data[lift])
        R.data[in_row | in_col] = 0.0
        R.data[in_row & (R.indices == rows)] = 1.0  # stored: the mass is positive there
        R.eliminate_zeros()
        self.R = R
        del rows, in_row, in_col, lift
        # x-component first, y-component identically zero
        self.g_profile = np.concatenate([profile, np.zeros_like(profile)])
        self.fact = linalg.factorize(self.R)

    @property
    def g_profile(self) -> np.ndarray:
        """Dirichlet values at full ramp; setting them updates their lift."""
        return self._g_profile

    @g_profile.setter
    def g_profile(self, g: np.ndarray) -> None:
        rows, cols, vals = self._lift
        self._g_profile = g
        self._g_lift = np.bincount(rows, weights=vals * g[cols], minlength=self.R.shape[0])

    def boundary_values(self, t: float) -> np.ndarray:
        return ramp_factor(t, self.cfg) * self.g_profile

    def initialize(self) -> State:
        """Zero initial state (consistent with the ramp at t = 0)."""
        return State(index=0, t=0.0, x=np.zeros(self.disc.layout.total))

    def step(self, state: State) -> State:
        cfg = self.cfg
        layout = self.disc.layout
        t_new = state.t + cfg.k
        ramp = ramp_factor(t_new, cfg)
        u_old = state.x[layout.slice("u")]
        b = self.M @ state.x[:layout.n_system]
        b -= ramp * self._g_lift
        b[layout.slice("vs")] -= cfg.k * (self.K @ u_old)
        b[self.dir_idx] = ramp * self.g_profile
        x_r = self.fact.solve(b)
        b_norm = max(np.linalg.norm(b), 1e-300)
        r = b - self.R @ x_r
        res = np.linalg.norm(r) / b_norm
        if res > REFINE_TOL:
            x_r += self.fact.solve(r)
            res = np.linalg.norm(b - self.R @ x_r) / b_norm
        x = np.concatenate([x_r, u_old + cfg.k * x_r[layout.slice("vs")]])
        du = x[layout.slice("u")] - u_old
        cres = np.max(np.abs(du - cfg.k * x[layout.slice("vs")])) if du.size else 0.0
        return State(index=state.index + 1, t=t_new, x=x,
                     solve_residual=float(res), constraint_residual=float(cres))

    def run(self, store_all: bool = False, observer=None):
        """Advance from zero initial data to T; returns (records, states).

        ``states`` holds every state if store_all else just the final one.
        """
        cfg = self.cfg
        state = self.initialize()
        records: list[StepRecord] = []
        states = [state] if store_all else []
        for _ in range(cfg.n_steps):
            state = self.step(state)
            records.append(StepRecord(n=state.index, t=state.t,
                                      solve_residual=state.solve_residual,
                                      constraint_residual=state.constraint_residual))
            if store_all:
                states.append(state)
            if observer is not None:
                observer(state)
        if not store_all:
            states = [state]
        return records, states
