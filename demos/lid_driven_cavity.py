"""Lid-driven cavity with an immersed elastic disk.

The fluid fills the square (-1, 1)^2 except for the circular solid
occupying |x|^2 < 0.75.  The lid velocity ramps up over two seconds to a
smooth plateau profile with peak 0.2 and drives a recirculating flow
that deforms the disk.  Neither mesh is fitted to the circle: both
fields live on overlapping subtriangulations of one uniform quad mesh
and are coupled weakly across the exact circular interface.

Writes a per-step energy log and VTU snapshots (one file per subdomain
per frame) into demos/output/cavity/; open the .vtu files in ParaView
to see the velocity field and the displaced disk.

Run:  python3 demos/lid_driven_cavity.py [n]
"""

import sys
from pathlib import Path

from cutfsi import Discretization, SimulationConfig, StepRecord, TimeStepper
from cutfsi.analysis import Analyzer
from cutfsi.reporting import write_snapshot, write_step_log

n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
outdir = Path(__file__).parent / "output" / "cavity"

cfg = SimulationConfig(n=n, m_s=2, k=0.5, T=8.0)
print(f"mesh {n} x {n} (h = {cfg.h:g}), time step {cfg.k:g}, T = {cfg.T:g}")

disc = Discretization(cfg)
print(f"{disc.layout.total} unknowns "
      f"({len(disc.topo.cut_cells)} cut cells on the interface)")

stepper = TimeStepper(disc)
analyzer = Analyzer(disc, stepper.forms)

state = stepper.initialize()
records = []
for _ in range(cfg.n_steps):
    state = stepper.step(state)
    e = analyzer.energy(state)
    records.append(StepRecord.of(state, e))
    print(f"  t = {state.t:5.2f}   E_T = {e['E_T2'] ** 0.5:.4e}   "
          f"|||U||| = {e['triple2'] ** 0.5:.4e}   "
          f"residual {state.solve_residual:.1e}")
    write_snapshot(outdir, disc, state, f"{state.index:04d}")

write_step_log(outdir / "steps.csv", cfg, records)
write_snapshot(outdir, disc, state, "final")
print(f"wrote {outdir}/steps.csv and VTU frames")
