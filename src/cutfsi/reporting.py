"""CSV and VTU output.

Every CSV starts with the resolved configuration as '#'-prefixed comment
lines so a result file is self-describing.  VTU files are ASCII XML
unstructured grids, one file per subdomain.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .analysis import ERROR_NORMS, ErrorReport
from .config import SimulationConfig, format_config
from .discretization import Discretization
from .stepper import State

FLOAT_FMT = "%.8e"


def _write_csv(path, cfg: SimulationConfig, header: list[str],
               rows: list[list]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in format_config(cfg).splitlines():
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % v if isinstance(v, float) else v
                             for v in row])


def write_step_log(path, cfg: SimulationConfig, records: list[State]) -> None:
    """Per-step log: a column per ``State`` field but ``x`` and ``energy``,
    each value of its declared type, then the first record's energies, sorted."""
    types = get_type_hints(State)
    scalars = [f.name for f in fields(State) if f.name not in ("x", "energy")]
    energy_keys = sorted(records[0].energy) if records else []
    rows = [[types[k](getattr(r, k)) for k in scalars]
            + [float(r.energy[k]) for k in energy_keys] for r in records]
    _write_csv(path, cfg, scalars + energy_keys, rows)


def _convergence_rows(report: ErrorReport):
    """Per level (level, errors, orders), with orders None on the first."""
    return zip(report.levels, report.errors, [None] + report.orders())


def write_convergence_csv(path, cfg: SimulationConfig,
                          report: ErrorReport) -> None:
    """One row per level: h or k, the five errors, and the observed orders.

    Order cells are empty on the first level (no coarser level to compare).
    """
    header = ([report.label] + [f"err_{k}" for k in ERROR_NORMS]
              + [f"order_{k}" for k in ERROR_NORMS])
    _write_csv(path, cfg, header, [
        [float(lvl)] + [float(errs[k]) for k in ERROR_NORMS]
        + [float(orders[k]) if orders else "" for k in ERROR_NORMS]
        for lvl, errs, orders in _convergence_rows(report)])


def format_convergence_table(report: ErrorReport) -> str:
    """Human-readable table of errors and orders."""
    lines = [" ".join([f"{report.label:>10s}"] + [f"{k:>12s}" for k in ERROR_NORMS])]
    for lvl, errs, orders in _convergence_rows(report):
        lines.append(" ".join([f"{lvl:10.6f}"]
                              + [f"{errs[k]:12.5e}" for k in ERROR_NORMS]))
        if orders:
            lines.append(" ".join([f"{'order':>10s}"]
                                  + [f"{orders[k]:12.2f}" for k in ERROR_NORMS]))
    return "\n".join(lines)


# -- VTU --------------------------------------------------------------------

_VTU_FIELDS = {"f": (("velocity", "vf", 2), ("pressure", "p", 1)),
               "s": (("velocity", "vs", 2), ("displacement", "u", 2))}


def _data_array(attrs: str, values: np.ndarray, fmt: str = "%.10g") -> str:
    """One ``<DataArray>`` element: a line per entry of ``values`` (rows,) or
    per row of ``values`` (rows, comps)."""
    values = values.reshape(len(values), -1)
    row = " ".join([fmt] * values.shape[1]) + "\n"
    return (f'<DataArray {attrs} format="ascii">\n'
            + row * len(values) % tuple(values.ravel().tolist()) + '</DataArray>\n')


def write_vtu(path, disc: Discretization, state: State, side: str) -> None:
    """Subtriangulation of one side as a quad grid with nodal field data.

    Every mesh vertex is a Lagrange node of each space, so its value is a
    coefficient, found in the corner columns 0, r, nb - 1, nb - 1 - r of
    ``cell_dofs`` (counterclockwise, as in ``cell_vertices``).  Points and
    vector fields get a zero third component.
    """
    mesh = disc.mesh
    cells = disc.topo.tri_cells(side)
    conn = mesh.cell_vertices[cells]  # (nc, 4) counter-clockwise
    used = np.unique(conn)
    renum = np.full(mesh.vertices.shape[0], -1, dtype=int)
    renum[used] = np.arange(len(used))
    pad_z = ((0, 0), (0, 1))  # np.pad width of a zero third column

    point_data = []
    for name, block, ncomp in _VTU_FIELDS[side]:
        dm = disc.dofmap(block)
        r, nb = dm.order, dm.cell_dofs.shape[1]
        node = np.empty(len(used), dtype=int)  # scalar dof of each vertex
        node[renum[conn]] = dm.cell_dofs[cells][:, [0, r, nb - 1, nb - 1 - r]]
        values = state.x[disc.layout.slice(block)].reshape(ncomp, -1)[:, node].T
        if ncomp == 2:
            values = np.pad(values, pad_z)
        point_data.append(_data_array(
            f'type="Float64" Name="{name}" NumberOfComponents="{values.shape[1]}"', values))
    cell_data = [_data_array(f'type="Float64" Name="{name}" NumberOfComponents="1"', values)
                 for name, values in (("cell_class", disc.topo.cell_class[cells].astype(float)),
                                      ("kappa", disc.topo.kappa(side)[cells]))]

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join([
        '<?xml version="1.0"?>\n<VTKFile type="UnstructuredGrid" version="0.1" '
        'byte_order="LittleEndian">\n<UnstructuredGrid>\n'
        f'<Piece NumberOfPoints="{len(used)}" NumberOfCells="{len(cells)}">\n<Points>\n',
        _data_array('type="Float64" NumberOfComponents="3"', np.pad(mesh.vertices[used], pad_z)),
        '</Points>\n<Cells>\n',
        _data_array('type="Int32" Name="connectivity"', renum[conn], "%d"),
        _data_array('type="Int32" Name="offsets"', 4 * np.arange(1, len(cells) + 1), "%d"),
        _data_array('type="UInt8" Name="types"', np.full(len(cells), 9), "%d"),
        '</Cells>\n<PointData>\n', *point_data,
        '</PointData>\n<CellData>\n', *cell_data,
        '</CellData>\n</Piece>\n</UnstructuredGrid>\n</VTKFile>\n']))


def write_snapshot(outdir, disc: Discretization, state: State,
                   tag: str) -> list[Path]:
    """Fluid and solid VTU files for one state; returns the paths."""
    outdir = Path(outdir)
    paths = []
    for side, name in (("f", "fluid"), ("s", "solid")):
        p = outdir / f"{name}_{tag}.vtu"
        write_vtu(p, disc, state, side)
        paths.append(p)
    return paths
