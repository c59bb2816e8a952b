"""Observed convergence orders under nested mesh refinement.

Runs the cavity benchmark on a ladder of meshes h = 1/4 ... 1/16 and
measures errors against a reference run on h = 1/32, restricting the
reference to the coarse quadrature points (the meshes are nested, so no
interpolation error pollutes the comparison).  With the quadratic solid
element the velocity errors at final time converge at second to third
order and the interface-zone gradient quantities at 1 to 2 -- the same
pattern the full ladder (up to h = 1/64 vs. 1/128) reproduces in the
acceptance tests.

A small temporal study on the fixed h = 1/16 mesh follows, showing the
first-order accuracy of the backward Euler discretization.

Run:  python3 demos/convergence_demo.py        (a few seconds)
"""

from pathlib import Path

from cutfsi import SimulationConfig, spatial_study, temporal_study
from cutfsi.reporting import format_convergence_table, write_convergence_csv

outdir = Path(__file__).parent / "output"

print("spatial refinement, quadratic solid element")
cfg = SimulationConfig(n=8, m_s=2, k=1.0, T=8.0)
report = spatial_study(cfg, n_levels=[8, 16, 32], n_ref=64)
print(format_convergence_table(report))
write_convergence_csv(outdir / "convergence_space.csv", cfg, report)

print()
print("temporal refinement, backward Euler on the h = 1/16 mesh")
cfg = SimulationConfig(n=16, m_s=2, T=8.0)
report = temporal_study(cfg, k_levels=[1.0, 0.5, 0.25], k_ref=0.125)
print(format_convergence_table(report))
write_convergence_csv(outdir / "convergence_time.csv", cfg, report)

print(f"\nwrote CSV tables to {outdir}/")
