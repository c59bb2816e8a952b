"""CSV and VTU output files."""

import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cutfsi import SimulationConfig, run_simulation
from cutfsi.analysis import ErrorReport, point_eval_matrices, random_smooth_state
from cutfsi.reporting import (format_convergence_table, write_convergence_csv,
                              write_snapshot, write_step_log, write_vtu)


@pytest.fixture(scope="module")
def run8(disc8):
    _, records, states = run_simulation(disc8.cfg)
    return records, states


def _read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                rows.append(line.rstrip("\n"))
    reader = csv.reader(rows)
    header = next(reader)
    return comments, header, list(reader)


def test_step_log(tmp_path, disc8, run8):
    records, _ = run8
    path = tmp_path / "steps.csv"
    write_step_log(path, disc8.cfg, records)
    comments, header, rows = _read_csv(path)
    assert "n = 8" in comments
    assert header[:4] == ["n", "t", "solve_residual", "constraint_residual"]
    assert len(rows) == len(records)
    assert float(rows[-1][1]) == pytest.approx(records[-1].t)
    assert float(rows[0][2]) == pytest.approx(records[0].solve_residual, rel=1e-6)


def test_convergence_csv_roundtrip(tmp_path):
    cfg = SimulationConfig()
    errs = [{k: 4.0 for k in ("vf_T", "vs_T", "grad_u_T", "grad_vf_I", "h_grad_p_I")},
            {k: 1.0 for k in ("vf_T", "vs_T", "grad_u_T", "grad_vf_I", "h_grad_p_I")}]
    report = ErrorReport(mode="space", levels=[0.25, 0.125], errors=errs)
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, cfg, report)
    comments, header, rows = _read_csv(path)
    assert header[0] == "h"
    assert len(rows) == 2
    assert rows[0][header.index("order_vf_T")] == ""
    assert float(rows[1][header.index("order_vf_T")]) == pytest.approx(2.0)
    table = format_convergence_table(report)
    assert "order" in table and "vf_T" in table


def test_vtu_well_formed(tmp_path, disc8, run8):
    _, states = run8
    for side in ("f", "s"):
        path = tmp_path / f"out_{side}.vtu"
        write_vtu(path, disc8, states[-1], side)
        root = ET.parse(path).getroot()
        assert root.tag == "VTKFile"
        grid = root.find("UnstructuredGrid")
        piece = grid.find("Piece")
        npts = int(piece.get("NumberOfPoints"))
        ncells = int(piece.get("NumberOfCells"))
        assert npts > 0 and ncells > 0
        pts = np.fromstring(
            piece.find("Points/DataArray").text, sep=" ").reshape(-1, 3)
        assert pts.shape[0] == npts
        conn = np.fromstring(
            piece.find("Cells/DataArray[@Name='connectivity']").text,
            sep=" ", dtype=int)
        assert conn.size == 4 * ncells
        assert conn.max() < npts
        names = {d.get("Name") for d in piece.findall("PointData/DataArray")}
        assert "velocity" in names
        assert ("pressure" in names) == (side == "f")
        assert ("displacement" in names) == (side == "s")
        cell_names = {d.get("Name") for d in piece.findall("CellData/DataArray")}
        assert "cell_class" in cell_names and "kappa" in cell_names


def test_vtu_grid_and_cell_data(tmp_path, disc8, run8):
    """Every point is a mesh vertex and the connectivity lists each cell's
    vertices; offsets step by 4, every type is a VTK quad (9), and the cell
    data are the topology's class and kappa to the 10 printed digits."""
    _, states = run8
    mesh, topo = disc8.mesh, disc8.topo
    for side in ("f", "s"):
        path = tmp_path / f"grid_{side}.vtu"
        write_vtu(path, disc8, states[-1], side)
        piece = ET.parse(path).getroot().find("UnstructuredGrid/Piece")

        def read(name, dtype=float):
            return np.fromstring(piece.find(name).text, sep=" ", dtype=dtype)

        cells = topo.tri_cells(side)
        pts = read("Points/DataArray").reshape(-1, 3)
        assert np.all(pts[:, 2] == 0.0)
        dist = np.abs(pts[:, None, :2] - mesh.vertices[None]).max(axis=2)
        vertex = dist.argmin(axis=1)
        assert dist.min(axis=1).max() < 1e-9
        conn = read("Cells/DataArray[@Name='connectivity']", int).reshape(-1, 4)
        assert np.array_equal(vertex[conn], mesh.cell_vertices[cells])
        offsets = read("Cells/DataArray[@Name='offsets']", int)
        assert np.array_equal(offsets, 4 * np.arange(1, len(cells) + 1))
        types = read("Cells/DataArray[@Name='types']", int)
        assert len(types) == len(cells) and np.all(types == 9)
        for name, want in (("cell_class", topo.cell_class[cells]),
                           ("kappa", topo.kappa(side)[cells])):
            got = read(f"CellData/DataArray[@Name='{name}']")
            assert np.allclose(got, want, rtol=5e-10, atol=0.0)


def test_vtu_lid_velocity(tmp_path, disc8, run8):
    """The vertex at the lid midpoint carries the full inflow speed."""
    _, states = run8
    path = tmp_path / "f.vtu"
    write_vtu(path, disc8, states[-1], "f")
    root = ET.parse(path).getroot()
    piece = root.find("UnstructuredGrid/Piece")
    pts = np.fromstring(
        piece.find("Points/DataArray").text, sep=" ").reshape(-1, 3)
    vel = np.fromstring(
        piece.find("PointData/DataArray[@Name='velocity']").text,
        sep=" ").reshape(-1, 3)
    lid = np.flatnonzero((np.abs(pts[:, 0]) < 1e-12) & (np.abs(pts[:, 1] - 1) < 1e-12))
    assert len(lid) == 1
    assert vel[lid[0], 0] == pytest.approx(disc8.cfg.peak_inflow, rel=1e-6)
    assert vel[lid[0], 1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m_s", [1, 2])
def test_vtu_values_match_point_evaluation(tmp_path, disc8, disc8_q2, m_s):
    """Each vertex value of a snapshot is its field evaluated at the vertex,
    in the last cell of the side that holds the vertex."""
    disc = disc8 if m_s == 1 else disc8_q2
    state = random_smooth_state(disc, seed=2)
    for side, fields in (("f", (("velocity", "vf"), ("pressure", "p"))),
                         ("s", (("velocity", "vs"), ("displacement", "u")))):
        path = tmp_path / f"{side}.vtu"
        write_vtu(path, disc, state, side)
        piece = ET.parse(path).getroot().find("UnstructuredGrid/Piece")
        pts = np.fromstring(piece.find("Points/DataArray").text, sep=" ").reshape(-1, 3)
        pts = np.round((pts[:, :2] + 1.0) / disc.h) * disc.h - 1.0  # back onto the grid
        conn = np.fromstring(piece.find("Cells/DataArray[@Name='connectivity']").text,
                             sep=" ", dtype=int).reshape(-1, 4)
        owner = np.empty(len(pts), dtype=int)
        for cell, verts in zip(disc.topo.tri_cells(side), conn):
            owner[verts] = cell
        for name, block in fields:
            got = np.fromstring(piece.find(f"PointData/DataArray[@Name='{name}']").text,
                                sep=" ").reshape(len(pts), -1)
            E = point_eval_matrices(disc, block, pts, owner)[0]
            coefs = state.x[disc.layout.slice(block)].reshape(disc.dofmap(block).ncomp, -1)
            want = np.column_stack([E @ c for c in coefs])
            assert np.abs(want).max() > 0
            assert np.allclose(got[:, :want.shape[1]], want, rtol=1e-9, atol=1e-14)


def test_write_snapshot(tmp_path, disc8, run8):
    _, states = run8
    write_snapshot(tmp_path, disc8, states[-1], tag="final")
    assert (tmp_path / "fluid_final.vtu").exists()
    assert (tmp_path / "solid_final.vtu").exists()
