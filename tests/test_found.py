"""The FOUND ledger: each known defect as a test of the wanted behaviour.

Each test asserts what its ROADMAP item asks for and is a strict xfail
that names the item.  A crash for another reason fails the suite, as does
a fix that makes the test pass; the change that mends the defect removes
the marker.  Runs go through ``cli.main`` in-process, into ``tmp_path``,
except where the test needs the states themselves.  The stiff-solid
backward-error test has no marker: its solves already meet item 24's
test, and it holds them to it.
"""

import csv

import numpy as np
import pytest

from cutfsi import Discretization, SimulationConfig, TimeStepper, verify_energy_decay
from cutfsi.cli import main
from cutfsi.config import parse_config


def found(item: str, why: str):
    """A strict xfail that only an AssertionError satisfies."""
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {why}")


def run(tmp_path, *sets) -> tuple[int, list[dict]]:
    """The exit status of ``cutfsi run`` with ``--set`` entries ``sets``
    into ``tmp_path``, and the rows of its ``steps.csv``, none if a
    refused run wrote none."""
    status = main(["run", "--output-dir", str(tmp_path),
                   *(arg for item in sets for arg in ("--set", item))])
    if not (tmp_path / "steps.csv").exists():
        return status, []
    with open(tmp_path / "steps.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return status, rows


@found("18", "a run that leaves the stability theory exits 0 (E_T^2 = 3.5e16)")
def test_unstable_run_exits_4(tmp_path):
    """The lid-driven n = 16 run on a circle where A's velocity block is
    indefinite at the default gamma_N blows up within 64 steps; it ends in
    status 4, not 0."""
    status, rows = run(tmp_path, "n=16", "radius_squared=0.7642898", "m_s=2",
                       "k=0.00390625", "T=0.25")
    assert status == 4, f"status {status}, final E_T^2 {rows[-1]['E_T2']}"


@pytest.mark.parametrize("mu_s", ["1e20", "1e50", "1e100"])
def test_stiff_solid_solves_are_componentwise_backward_stable(mu_s):
    """Every step's solve of the stiff solid has a componentwise backward
    error omega = max_i |r_i| / (|A||x| + |b|)_i of at most 1e-10 against
    the free block ``fact.A`` (0/0 reads as 0, r_i != 0 over 0 as inf),
    although its ``solve_residual``, relative to ||b|| alone, reads up to
    0.3: the stiff rows' |A||x| is what the residual cancels against."""
    cfg = parse_config(None, overrides={"n": "8", "T": "1", "mu_s": mu_s})
    stepper = TimeStepper(Discretization(cfg))
    solve, solved = stepper.fact.solve, []

    def recording(b):
        x, r = solve(b)
        solved.append((b, x))
        return x, r

    stepper.fact.solve = recording
    for _ in stepper.run(stepper.initialize(), cfg.n_steps):
        pass
    A = stepper.fact.A
    for b, x in solved:
        r = np.abs(b - A @ x)
        den = abs(A) @ np.abs(x) + np.abs(b)
        omega = np.divide(r, den, out=np.where(r > 0, np.inf, 0.0), where=den > 0)
        assert omega.max() <= 1e-10


@found("24", "an inaccurate solve exits 0 (solve_residual 5.32 and 0.095)")
@pytest.mark.parametrize("key", ["lambda_s", "gamma_vs"])
def test_inaccurate_solve_exits_3(key, tmp_path):
    """At lambda_s = 1e100 or gamma_vs = 1e100 no solve meets a
    componentwise backward error of 1e-10, so the run ends in status 3."""
    status, rows = run(tmp_path, "n=8", "T=1", f"{key}=1e100")
    assert status == 3, f"status {status}, final solve_residual {rows[-1]['solve_residual']}"


@found("25", "E_g^2, a sum of squares, reads -2.46e-10 at mu_s = 1e20")
def test_ghost_energy_is_nonnegative(tmp_path):
    status, rows = run(tmp_path, "n=8", "T=1", "mu_s=1e20")
    assert status == 0
    assert min(float(row["E_g2"]) for row in rows) >= 0.0


@found("26", "g_p carries no units: the final state moves by 1.41e-2 and 9.11e-2")
def test_scheme_is_invariant_under_a_change_of_mass_unit():
    """With rho_f, rho_s, mu_s and lambda_s times 2^10 (n = 16, m_s = 2,
    k = 1/4, T = 4), the final velocities are unchanged and the pressure
    scales by 2^10, each within 1e-10 of its maximum."""
    finals = []
    for scale in (1.0, 2.0 ** 10):
        cfg = SimulationConfig(n=16, m_s=2, k=0.25, T=4.0, rho_f=scale, rho_s=scale,
                               mu_s=5e-3 * scale, lambda_s=1e-2 * scale)
        stepper = TimeStepper(Discretization(cfg))
        *_, state = stepper.run(stepper.initialize(), cfg.n_steps)
        finals.append(state.x)
    layout = stepper.disc.layout
    x, y = finals
    p = layout.slice("p")
    v = np.r_[layout.slice("vf"), layout.slice("vs")]
    dv = np.max(np.abs(y[v] - x[v])) / np.max(np.abs(x[v]))
    dp = np.max(np.abs(y[p] / 2.0 ** 10 - x[p])) / np.max(np.abs(x[p]))
    assert dv <= 1e-10 and dp <= 1e-10, f"v moves by {dv:.3g}, p by {dp:.3g} of its maximum"


@pytest.mark.parametrize("n,r2,m_s,k,seed", [
    pytest.param(16, 0.7642898, 2, 1 / 256, 1, marks=found(
        "19 + 22", "at the shipped defaults Q^n grows x3.99 a step from step 5")),
    pytest.param(8, 0.25, 1, 1 / 2, 0, marks=found(
        "19 + 22", "on verify's r^2 = 0.25 start Q^n goes from 2.435e1 to 2.648e161")),
])
def test_energy_decays_at_the_shipped_defaults(n, r2, m_s, k, seed):
    """The lid-free run from ``random_smooth_state(seed)`` at every default
    but n, r^2, m_s and k: Q^n does not grow over 22 steps.  It reads the
    defaults, so it is the test that item 19's defaults must flip.  The
    second case is the first decay run of ``cutfsi verify --set
    radius_squared=0.25``."""
    disc = Discretization(SimulationConfig(n=n, radius_squared=r2, m_s=m_s, k=k))
    [(ok, history, violation)] = verify_energy_decay(disc, [seed], n_steps=22)
    assert ok, f"Q^n grew at step {violation}, x{history[-1] / history[-2]:.3g} a step"
