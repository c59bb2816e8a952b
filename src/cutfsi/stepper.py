"""Backward Euler step: inflow profile, Dirichlet handling, the step system.

The solved unknowns are (v_f, p, v_s).  Backward Euler on the first-order
elasticity gives u^n = u^{n-1} + k v_s^n, so the displacement is never an
unknown: substituting it into the monolithic step gives
R x^n = M x^{n-1} - k K u^{n-1}, R = M + k A + k^2 K, on the k-free
operators of ``assembly.operators`` (``system_matrices``).  The step matrix
is time independent (fixed interface), so it is assembled and factorized
once; only the ramped lid values change per step.  Only the free
(non-Dirichlet) block of R is factorized, with the free dofs ``free`` in
the nested-dissection order of the mesh lattice (``nested_dissection``):
a separator is the dofs on its mesh line and those R couples across it,
read from R's rows.  The lid enters each
right-hand side as the ramp times ``lift``, R[free, dir] g at full ramp.
The continuity form is tested with -xi, so R, and its free block, equal
their transposes bit for bit; the free block is read through R^T, sorted,
and kept as ``fact.A``.  ``initialize`` gives the zero state at t = 0,
``step`` advances a state by k, and ``run`` repeats ``step``: it is the
library's one time loop.  Each step solves with ``Factorization.solve``,
which refines a solve once and raises ``linalg.SingularMatrixError`` if it
stays inaccurate; the step names itself in that error.

A stepper takes its run, the ``RUN_FIELDS`` k, T, ``peak_inflow`` and
``ramp_time``, from its configuration, which defaults to the
discretization's: no form reads them, so one ``Discretization`` serves
every run on its mesh, e.g. each level of a temporal study and the lid-free
run of the energy-decay check.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from . import linalg
from .assembly import SYSTEM_BLOCKS, _lin, _stack, operators
from .config import ConfigError, SimulationConfig
from .discretization import Discretization

# The configuration fields of a run, which only the stepper reads.
RUN_FIELDS = ("k", "T", "peak_inflow", "ramp_time")


def system_matrices(disc: Discretization, k: float):
    """(R, M, K, forms): the step matrix R = M + k A + k^2 K, and M and K,
    from the k-free operators of one ``assembly.operators`` pass, with its
    ``Forms``.  A lost its round-off relative to its own largest entry, so a
    small k, which leaves R's pressure rows far below R's largest entry,
    drops none of them.  A is freed before R is stacked."""
    M, A, K, forms = operators(disc)
    R = _lin((1.0, M), (k, A), (k * k, K), name="step matrix")
    del A
    return _stack(R, disc), _stack(M, disc), _stack(K, disc, ("vs",)), forms


def nested_dissection(disc: Discretization, R, dofs: np.ndarray) -> np.ndarray:
    """``dofs`` (system ids of the step system) in nested-dissection order.

    The mesh lattice is bisected at the middle mesh line of the longer side
    of each box, down to one-cell boxes, and each box is ordered as: low
    half, high half, separator.  The separator is the dofs on the line and
    those the step matrix R couples across it: a dof below the line is in
    it if its row of R reaches a dof above the line.  As R equals its
    transpose, a row lists every coupling of its dof, so the order reads
    every coupling, ghost penalties included, from R alone.
    (George, "Nested dissection of a regular finite element mesh", 1973.)
    """
    # lattice coordinates in units of h/2, so mesh lines are even
    coord = np.concatenate([np.tile(np.rint((dm.node_coords + 1.0) * (2.0 / disc.h)),
                                    (dm.ncomp, 1))
                            for dm in map(disc.dofmap, SYSTEM_BLOCKS)]).astype(np.int64)
    # reach[d, a]: the highest coordinate along axis a of a dof that R's
    # row d couples d to (R has no empty row, so reduceat is exact)
    reach = np.column_stack([np.maximum.reduceat(coord[R.indices, a], R.indptr[:-1])
                             for a in (0, 1)])

    # one pass per level over the dofs not yet ordered: each box is split at
    # the middle mesh line of its longer side (x on ties) and every dof gets
    # a base-3 digit (0 low half, 1 high half, 2 separator) of its sort key
    c, r = coord[dofs], reach[dofs]
    key = np.zeros(len(dofs), dtype=np.int64)
    pos = np.arange(len(dofs))           # dofs still to place
    box = np.zeros(len(dofs), dtype=np.intp)
    lo = np.zeros((1, 2), dtype=np.int64)
    hi = np.full((1, 2), 2 * disc.mesh.n, dtype=np.int64)
    while pos.size:
        boxes = np.arange(len(lo))
        width = hi - lo
        axis = (width[:, 1] > width[:, 0]).astype(np.intp)
        mid = lo[boxes, axis] + 2 * (width[boxes, axis] // 4)  # snapped to a mesh line
        a, m = axis[box], mid[box]
        ca, ra = c[pos, a], r[pos, a]
        high = ca > m
        sep = ~high & ((ca == m) | (ra > m))
        key *= 3
        key[pos] += np.where(sep, 2, high)
        lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
        hi[2 * boxes, axis] = mid
        lo[2 * boxes + 1, axis] = mid
        box = 2 * box + high
        keep = ~sep & ((hi - lo).max(axis=1) > 2)[box]  # one-cell boxes are leaves
        pos, box = pos[keep], box[keep]
    return dofs[np.argsort(key, kind="stable")]


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
    """One step's record: index ``n``, time ``t``, coefficient vector ``x``
    (None in a step log) and scalars, each a step-log column in this order;
    ``energy`` adds a column per functional.  ``solve_residual`` is the step
    residual ||b_f - R x_f|| of the free rows relative to the whole
    right-hand side, hypot(||b_f||, ||g||), with g the Dirichlet values.
    """

    n: int
    t: float
    x: np.ndarray | None = None
    solve_residual: float = 0.0
    constraint_residual: float = 0.0
    energy: dict = field(default_factory=dict)

    @property
    def index(self) -> int:
        """``n``, by the name that perfbench and the acceptance tests read."""
        return self.n


# perfbench's run-n64 loop builds its log rows by this name
StepRecord = State


class TimeStepper:
    """Assembles and factorizes the (v_f, p, v_s) step system, advances it.

    The run (``RUN_FIELDS``) comes from ``cfg``, by default ``disc.cfg``;
    ConfigError, naming the fields, if ``cfg`` differs from ``disc.cfg`` in
    any other field.
    """

    def __init__(self, disc: Discretization, cfg: SimulationConfig | None = None):
        cfg = disc.cfg if cfg is None else cfg
        differ = [f.name for f in fields(cfg) if f.name not in RUN_FIELDS
                  and getattr(cfg, f.name) != getattr(disc.cfg, f.name)]
        if differ:
            raise ConfigError(f"a stepper's configuration may differ from its "
                              f"discretization's only in {', '.join(RUN_FIELDS)}; "
                              f"it differs in {', '.join(differ)}")
        self.disc = disc
        self.cfg = cfg
        R, self.M, self.K, self.forms = system_matrices(disc, cfg.k)

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
        # factorize the free block in nested-dissection order, each separator
        # the dofs on its line and those R couples across it; the free-row,
        # Dirichlet-column block lifts g_profile into the free rows.  As R
        # equals its transpose, both are rows of R[free]^T
        free = np.ones(R.shape[0], dtype=bool)
        free[self.dir_idx] = False
        self.free = nested_dissection(disc, R, np.flatnonzero(free))
        R = R[self.free]
        R = R.T.tocsr()
        A, self.lift = R[self.free], R[self.dir_idx].T @ self.g_profile
        del R  # at most two copies of R were alive, and none stays for the LU
        for a in (self.g_profile, self.lift):
            a.setflags(write=False)
        self.fact = linalg.factorize(A)  # keeps A as fact.A

    def initialize(self) -> State:
        """Zero initial state (consistent with the ramp at t = 0)."""
        return State(n=0, t=0.0, x=np.zeros(self.disc.layout.total))

    def lyapunov(self, state: State) -> float:
        """Discrete energy Q^n = 1/2 x.Mx + 1/2 u.Ku of a state, x its
        (v_f, p, v_s) block and u its displacement; it decays step to step
        for homogeneous data."""
        layout = self.disc.layout
        x, u = state.x[:layout.n_system], state.x[layout.slice("u")]
        return 0.5 * float(x @ (self.M @ x) + u @ (self.K @ u))

    def run(self, state: State, n_steps: int) -> Iterator[State]:
        """The ``n_steps`` states that follow ``state``, each ``step`` of the
        one before, yielded as they are computed."""
        for _ in range(n_steps):
            state = self.step(state)
            yield state

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
        try:
            x_f, r = self.fact.solve(b_f)
        except linalg.SingularMatrixError as exc:
            raise linalg.SingularMatrixError(f"step {state.n + 1}: {exc}") from exc
        # the 2-norms overflow where the backward error does not (a lid of
        # 1e154 or 1e300), refused just below: NaN if the denominator does,
        # as the residual over it would read 0
        with np.errstate(over="ignore", invalid="ignore"):
            num, den = np.linalg.norm(r), np.hypot(np.linalg.norm(b_f), np.linalg.norm(g))
        res = num / max(den, 1e-300) if den < np.inf else np.nan
        if not np.isfinite(res):
            raise linalg.SingularMatrixError(
                f"step {state.n + 1}: relative residual {res} is not finite")
        x = np.empty(layout.total)
        x[self.free], x[self.dir_idx] = x_f, g
        x[layout.slice("u")] = u_old + cfg.k * x[layout.slice("vs")]
        du = x[layout.slice("u")] - u_old
        cres = np.max(np.abs(du - cfg.k * x[layout.slice("vs")])) if du.size else 0.0
        return State(n=state.n + 1, t=t_new, x=x,
                     solve_residual=float(res), constraint_residual=float(cres))
