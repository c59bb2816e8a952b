"""Command line interface."""

import dataclasses

import numpy as np
import pytest

from cutfsi import analysis, discretization
from cutfsi.cli import build_parser, main
from cutfsi.mesh import build_cut_topology


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "--set", "n=8", "--dump-every", "2"])
    assert args.command == "run" and args.dump_every == 2
    args = parser.parse_args(["convergence", "--mode", "space", "--levels", "3"])
    assert args.mode == "space" and args.levels == 3
    args = parser.parse_args(["verify", "--seed", "4"])
    assert args.seed == 4


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_bad_config_key_exit_code(tmp_path):
    rc = main(["run", "--set", "bogus=1", "--output-dir", str(tmp_path)])
    assert rc == 2


def test_circle_outside_cavity_exit_code(tmp_path, capsys):
    rc = main(["run", "--set", "radius_squared=1.2", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "radius_squared must be < 1" in capsys.readouterr().err


def test_verify_reports_missing_ghost_path(tmp_path, capsys, monkeypatch):
    """A topology without ghost faces leaves the cut cells without a path to
    an uncut cell: verify prints a FAIL line and exits 1."""
    def no_ghost_faces(mesh, ls):
        topo = build_cut_topology(mesh, ls)
        none = np.zeros(0, dtype=int)
        return dataclasses.replace(topo, ghost_faces_f=none, ghost_faces_s=none)

    monkeypatch.setattr(discretization, "build_cut_topology", no_ghost_faces)
    # the ghost-extension and energy checks are not under test here
    monkeypatch.setattr(analysis, "ghost_extension_ratios", lambda *a, **k: 1.0)
    monkeypatch.setattr(analysis, "verify_energy_decay", lambda *a, **k: (True, [1.0, 0.5], None))
    rc = main(["verify", "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    for n in (8, 16, 32):
        for side in ("f", "s"):
            assert f"[FAIL] n={n} ghost path assumption ({side}): cut cell" in out
    assert "[ok  ] n=8 solid area" in out


def test_scale_guardrail(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--set", "n=1024", "--output-dir", str(tmp_path)])


def test_run_small(tmp_path, capsys):
    rc = main(["run", "--set", "n=8", "--set", "T=2.0",
               "--dump-every", "1", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final solve residual" in out
    assert "symmetric-mode LU with" in out
    assert (tmp_path / "steps.csv").exists()
    assert (tmp_path / "fluid_final.vtu").exists()
    assert (tmp_path / "solid_final.vtu").exists()
    assert (tmp_path / "fluid_00001.vtu").exists()


def test_run_energy_once_per_step(tmp_path, monkeypatch):
    """cmd_run reports the final energies of the last step: Analyzer.energy
    runs once per step, not once more after the run."""
    calls = []
    energy = analysis.Analyzer.energy

    def counting(self, state):
        calls.append(state.index)
        return energy(self, state)

    monkeypatch.setattr(analysis.Analyzer, "energy", counting)
    rc = main(["run", "--set", "n=8", "--set", "T=1.0", "--set", "k=0.5",
               "--output-dir", str(tmp_path)])
    assert rc == 0 and calls == [1, 2]


def test_run_with_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "case.cfg"
    cfg_file.write_text("n = 8\nT = 1.0\nk = 0.5\n")
    rc = main(["run", "--config", str(cfg_file), "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "ran 2 steps" in capsys.readouterr().out


def test_convergence_time_small(tmp_path, capsys):
    rc = main(["convergence", "--mode", "time", "--levels", "2",
               "--ref", "0.25", "--solid-order", "1",
               "--set", "n=8", "--set", "T=2.0", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "order" in out
    assert (tmp_path / "convergence_time_ms1.csv").exists()
