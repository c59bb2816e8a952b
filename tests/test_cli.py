"""Command line interface."""

import csv
import dataclasses

import numpy as np
import pytest

from cutfsi import SimulationConfig, analysis, discretization, run_simulation
from cutfsi.assembly import assemble_forms
from cutfsi.cli import build_parser, main
from cutfsi.mesh import build_cut_topology
from cutfsi.reporting import FLOAT_FMT


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


@pytest.mark.parametrize("argv, value", [
    (["convergence", "--mode", "time", "--ref", "-0.5", "--set", "n=8"], "-0.5"),
    (["convergence", "--mode", "time", "--ref", "0.3", "--set", "T=2.0"], "k = 0.3"),
    (["convergence", "--mode", "time", "--levels", "2", "--ref", "0.2"], "k=0.2"),
    (["run", "--set", "T=1e-10"], "T = 1e-10"),
    (["convergence", "--mode", "space", "--levels", "2", "--set", "T=1e-10"], "T = 1e-10"),
    (["convergence", "--mode", "space", "--ref", "24", "--levels", "2", "--set", "n=8"],
     "n=24"),
    (["convergence", "--mode", "space", "--ref", "0.5", "--set", "n=8"], "got 0.5"),
    (["convergence", "--mode", "space", "--levels", "0", "--set", "n=8"], "got 0"),
    (["run", "--dump-every", "-1", "--set", "n=8"], "got -1"),
    (["convergence", "--mode", "space", "--levels", "2", "--ref", "16", "--set", "n=8"],
     "reference mesh n=16 is not finer"),
    (["convergence", "--mode", "time", "--levels", "2", "--ref", "0.5"],
     "reference step k=0.5 is not finer"),
], ids=["time-ref-negative", "time-ref-not-dividing-T", "time-ref-not-nested",
        "run-T-below-k", "space-T-below-k", "space-ref-not-nested", "space-ref-fraction",
        "levels-0", "dump-every-negative", "space-ref-not-finer", "time-ref-not-finer"])
def test_bad_run_input_exits_2_before_any_discretization(argv, value, tmp_path, capsys,
                                                          monkeypatch):
    built = []
    init = discretization.Discretization.__init__

    def counting(self, cfg):
        built.append(cfg.n)
        init(self, cfg)

    monkeypatch.setattr(discretization.Discretization, "__init__", counting)
    rc = main(argv + ["--output-dir", str(tmp_path)])
    assert rc == 2
    assert value in capsys.readouterr().err
    assert built == []


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


def test_verify_passes(tmp_path, capsys):
    """Every built-in check passes on the default configuration."""
    rc = main(["verify", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "all checks passed" in capsys.readouterr().out


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


def test_run_log_matches_run_simulation(tmp_path):
    """cutfsi run writes the records of run_simulation plus the energy of
    each state, and a snapshot at every --dump-every step and the end."""
    rc = main(["run", "--set", "n=8", "--set", "T=4.0", "--dump-every", "2",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    disc, records, states = run_simulation(SimulationConfig(n=8, T=4.0))
    ana = analysis.Analyzer(disc, assemble_forms(disc))
    energies = [ana.energy(s) for s in states[1:]]
    keys = sorted(energies[0])
    want = [[str(r.n)] + [FLOAT_FMT % v for v in (r.t, r.solve_residual,
                                                  r.constraint_residual)]
            + [FLOAT_FMT % e[key] for key in keys] for r, e in zip(records, energies)]
    with open(tmp_path / "steps.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["n", "t", "solve_residual", "constraint_residual"] + keys
    assert rows[1:] == want
    assert sorted(p.name for p in tmp_path.glob("*.vtu")) == [
        f"{side}_{tag}.vtu" for side in ("fluid", "solid")
        for tag in ("00002", "00004", "final")]


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
