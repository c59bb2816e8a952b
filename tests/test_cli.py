"""Command line interface."""

import contextlib
import csv
import dataclasses
import io
import re

import numpy as np
import pytest
import scipy.sparse as sp

from cutfsi import SimulationConfig, analysis, discretization, linalg, run_simulation
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
    args = parser.parse_args(["verify", "--set", "m_s=2"])
    assert args.command == "verify" and args.set == ["m_s=2"]


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


# the refusal of a T/k that overflows, a ConfigError rather than an OverflowError
OVERFLOW = "configuration error: T = 8.0 over k = 1e-320 overflows the step count\n"


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
    (["run", "--set", "n=abc"], "n = 'abc'"),
    (["convergence", "--mode", "space", "--levels", "2", "--ref", "16", "--set", "n=8"],
     "reference mesh n=16 is not finer"),
    (["convergence", "--mode", "time", "--levels", "2", "--ref", "0.5"],
     "reference step k=0.5 is not finer"),
    (["convergence", "--mode", "space", "--levels", "2", "--set", "peak_inflow=0"],
     "peak_inflow = 0"),
    (["convergence", "--mode", "time", "--levels", "2", "--set", "n=8",
      "--set", "peak_inflow=-0.0"], "peak_inflow = 0"),
    (["convergence", "--mode", "time", "--levels", "2", "--ref", "1e-6"],
     "stores 8e+06 states of ~983 dofs"),
    (["run", "--config", "no/such/case.cfg"],
     "cannot read config file no/such/case.cfg: No such file or directory"),
    (["run", "--set", "T=1e300"], "refusing 1e+300 time steps"),
    (["run", "--set", "k=1e-7"], "refusing 8e+07 time steps"),
    (["run", "--set", "k=1e-320"], OVERFLOW),
    (["convergence", "--mode", "time", "--levels", "2", "--set", "k=1e-320"], OVERFLOW),
    (["convergence", "--mode", "time", "--levels", "2", "--set", "T=1e300"],
     "stores 4e+300 states of ~983 dofs (3.932e+303 values"),
    (["convergence", "--mode", "time", "--levels", "2", "--set", "T=1e300", "--set", "k=1e-7"],
     "stores 4e+307 states of ~983 dofs (3.932e+310 values"),
    (["convergence", "--mode", "space", "--levels", "2", "--ref", "1e300"], "refusing n=1e+300"),
    (["run", "--set", f"n={10 ** 400}"], "got a 1329-bit integer"),
    (["convergence", "--mode", "space", "--levels", "2000"], "got a 2004-bit integer"),
    (["convergence", "--mode", "time", "--levels", "2000"],
     "k must be positive and finite, got 0.0"),
], ids=["time-ref-negative", "time-ref-not-dividing-T", "time-ref-not-nested",
        "run-T-below-k", "space-T-below-k", "space-ref-not-nested", "space-ref-fraction",
        "levels-0", "dump-every-negative", "run-n-not-integer", "space-ref-not-finer",
        "time-ref-not-finer", "space-zero-lid-speed", "time-zero-lid-speed",
        "time-ref-states-beyond-guard", "run-config-missing", "run-T-beyond-step-guard",
        "run-k-beyond-step-guard", "run-step-count-overflow", "time-step-count-overflow",
        "time-T-states-beyond-guard", "time-values-beyond-float",
        "space-ref-beyond-mesh-guard", "run-n-beyond-float", "space-levels-beyond-float",
        "time-levels-underflow-k"])
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
    err = capsys.readouterr().err
    assert value in err
    # one short line: no count is printed digit by digit, or overflows to inf
    assert err.count("\n") == 1 and len(err) <= 200
    assert not re.search(r"\binf\b", err)
    assert built == []


@pytest.mark.parametrize("argv", [
    ["--mode", "space", "--ref", "24", "--levels", "2", "--set", "n=8"],
    ["--mode", "time", "--ref", "0.3333333333333333", "--levels", "2"],
], ids=["space", "time"])
def test_refused_study_leaves_no_output_dir(argv, tmp_path, capsys):
    """A study whose levels do not nest in the reference is refused before
    --output-dir is created."""
    outdir = tmp_path / "nest"
    assert main(["convergence", *argv, "--output-dir", str(outdir)]) == 2
    assert "reference" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--set", "n=8", "--set", "T=1.0"],
    ["convergence", "--mode", "time", "--levels", "2", "--set", "n=8", "--set", "T=1.0"],
], ids=["run", "convergence"])
def test_output_dir_that_is_a_file_exits_2_before_any_discretization(argv, tmp_path, capsys,
                                                                     monkeypatch):
    """An --output-dir that cannot be created is refused before the first
    discretization, not after the whole run."""
    monkeypatch.setattr(discretization.Discretization, "__init__",
                        lambda self, cfg: pytest.fail(f"built a discretization at n={cfg.n}"))
    afile = tmp_path / "afile"
    afile.touch()
    rc = main(argv + ["--output-dir", str(afile)])
    assert rc == 2
    assert f"cannot use --output-dir {afile}: File exists" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["convergence", "--mode", "time", "--levels", "1"]],
                         ids=["run", "convergence"])
def test_failed_factorization_exits_3(command, tmp_path, capsys, monkeypatch):
    """A factorization that raises SingularMatrixError ends the command with
    exit status 3 and one stderr line, not a traceback."""
    def singular(A):
        raise linalg.SingularMatrixError("sparse LU failed: Factor is exactly singular")

    monkeypatch.setattr(linalg, "factorize", singular)
    rc = main(command + ["--set", "n=8", "--set", "T=1", "--output-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == \
        "solver error: sparse LU failed: Factor is exactly singular\n"


@pytest.mark.parametrize("override", ["gamma_N=1e20", "w_max=1e30"])
def test_singular_step_matrix_exits_3(override, tmp_path, capsys):
    """gamma_N = 1e20 or w_max = 1e30 leaves R finite (largest entry 5.3e16
    and 4.8e24 at n = 8), but its LU is exactly singular: ``cutfsi run``
    exits 3 and writes one line to stderr."""
    rc = main(["run", "--set", "n=8", "--set", "T=1", "--set", override,
               "--output-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1, err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_step_exits_3(tmp_path, capsys):
    """A lid speed of 1e300 overflows the first step to NaN: ``cutfsi run``
    exits 3 naming the step, instead of logging NaN energies with exit 0."""
    rc = main(["run", "--set", "n=8", "--set", "T=2", "--set", "peak_inflow=1e300",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == \
        "solver error: step 1: relative residual nan is not finite\n"
    assert not (tmp_path / "steps.csv").exists()


def test_unrepairable_step_exits_3(tmp_path, capsys, monkeypatch):
    """A factor of the step matrix with its diagonal perturbed by 1e-3
    (relative) passes its probe, but one refinement leaves the first step's
    backward error above linalg.PROBE_TOL: ``cutfsi run`` exits 3 with one
    stderr line naming the step, instead of exiting 0."""
    real = linalg.factorize
    monkeypatch.setattr(linalg, "factorize",
                        lambda A: real(A + 1e-3 * sp.diags(A.diagonal())))
    rc = main(["run", "--set", "n=8", "--set", "T=1", "--output-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"solver error: step 1: backward error \S+ exceeds 1e-10 "
                        r"after one refinement\n", err), err


def test_verify_unreadable_config_exits_2(tmp_path, capsys, monkeypatch):
    """A --config path that cannot be read is refused input (exit 2), not a
    failed check (exit 1), and no check runs."""
    monkeypatch.setattr(discretization.Discretization, "__init__",
                        lambda self, cfg: pytest.fail(f"built a discretization at n={cfg.n}"))
    missing = tmp_path / "missing.cfg"
    rc = main(["verify", "--config", str(missing)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"cannot read config file {missing}: No such file or directory" in captured.err
    assert captured.out == ""


def test_verify_reports_missing_ghost_path(capsys, monkeypatch):
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
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 1
    for n in (8, 16, 32):
        for side in ("f", "s"):
            assert f"[FAIL] n={n} ghost path assumption ({side}): cut cell" in out
    assert "[ok  ] n=8 solid area" in out


@pytest.fixture(scope="module")
def verify_run():
    """(exit status, stdout) of ``cutfsi verify``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify"])
    return rc, out.getvalue()


def test_verify_passes(verify_run):
    """Every built-in check passes on the default configuration."""
    rc, out = verify_run
    assert rc == 0
    assert "all checks passed" in out


def test_verify_checks_are_the_cli_lines(verify_run):
    """At the default configuration the generator yields 24 records, all ok,
    which render as the lines of ``cutfsi verify`` before its summary."""
    records = list(analysis.verify_checks(SimulationConfig()))
    assert len(records) == 24
    assert all(ok is True for _, ok, _ in records)
    lines = [f"[ok  ] {label}: {detail}" for label, _, detail in records]
    assert lines + ["all checks passed"] == verify_run[1].splitlines()


def test_verify_prints_checks_before_a_solver_error(capsys):
    """Each check prints as it runs: with gamma_N = 1e20 the decay check's
    LU is exactly singular, so verify exits 3 with one stderr line after
    the 19 geometry and ghost lines."""
    rc = main(["verify", "--set", "gamma_N=1e20"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "solver error: sparse LU failed: Factor is exactly singular\n"
    lines = captured.out.splitlines()
    assert len(lines) == 19
    assert lines[-1].startswith("[ok  ] ghost necessity")


@pytest.mark.parametrize("k,T", [(0.1, 0.3), (0.25, 0.25)])
def test_verify_ignores_config_run_fields(k, T, tmp_path, capsys, verify_run):
    """verify checks 22 steps of k = 1/2 whatever k and T the configuration
    sets, so a config file whose T is no whole number of steps of 1/2 leaves
    the exit status and the output as they are without the file."""
    path = tmp_path / "run.cfg"
    path.write_text(f"k = {k}\nT = {T}\n")
    rc = main(["verify", "--config", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == verify_run
    assert captured.err == ""


@pytest.mark.parametrize("key,value", [("n", "64"), ("k", "0.1"), ("T", "4"),
                                       ("peak_inflow", "0"), ("ramp_time", "0.5")])
def test_verify_rejects_fixed_keys(key, value, capsys, monkeypatch):
    """verify checks n = 8, 16, 32 and a run of its own whatever the
    configuration says, so a --set of n or of a run field exits 2, naming
    the key, before any discretization is built."""
    monkeypatch.setattr(discretization.Discretization, "__init__",
                        lambda self, cfg: pytest.fail(f"built a discretization at n={cfg.n}"))
    rc = main(["verify", "--set", f"{key}={value}"])
    assert rc == 2
    assert f"--set {key}" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--output-dir", "vo"], ["--allow-large"]])
def test_verify_takes_no_output_options(option, capsys):
    """verify writes no file and builds only its own meshes."""
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + option)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_applies_other_overrides(capsys, monkeypatch):
    """A --set of another key reaches every mesh that verify builds, and its
    checks: the solid area is compared with pi r^2 of the override."""
    built = []
    init = discretization.Discretization.__init__

    def recording(self, cfg):
        built.append((cfg.n, cfg.radius_squared))
        init(self, cfg)

    monkeypatch.setattr(discretization.Discretization, "__init__", recording)
    # the ghost-extension and energy checks are not under test here
    monkeypatch.setattr(analysis, "ghost_extension_ratios", lambda *a, **k: 1.0)
    monkeypatch.setattr(analysis, "verify_energy_decay", lambda *a, **k: (True, [1.0, 0.5], None))
    main(["verify", "--set", "radius_squared=0.6"])
    assert built == [(8, 0.6), (16, 0.6), (32, 0.6)]  # the decay check steps n = 8
    assert "[ok  ] n=32 solid area" in capsys.readouterr().out


def test_scale_guardrail(tmp_path, capsys):
    """A mesh beyond the desk-scale guardrail is refused input: exit 2,
    the reason on stderr, and no file written."""
    out = tmp_path / "out"
    rc = main(["run", "--set", "n=1024", "--output-dir", str(out)])
    assert rc == 2
    assert "refusing n=1024" in capsys.readouterr().err
    assert not out.exists()


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
    rc = main(["convergence", "--mode", "time", "--levels", "2", "--ref", "0.25",
               "--set", "n=8", "--set", "T=2.0", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "order" in out
    assert (tmp_path / "convergence_time_ms1.csv").exists()


@pytest.mark.parametrize("source", ["set", "config"])
def test_convergence_reads_m_s_from_config(source, tmp_path):
    """convergence takes the solid order from --set or --config, like every
    other key, and names it in the file name and the header."""
    if source == "set":
        argv = ["--set", "m_s=2"]
    else:
        cfg_file = tmp_path / "case.cfg"
        cfg_file.write_text("m_s = 2\n")
        argv = ["--config", str(cfg_file)]
    rc = main(["convergence", "--mode", "time", "--levels", "2", "--ref", "0.25",
               "--set", "n=8", "--set", "T=2.0", "--output-dir", str(tmp_path)] + argv)
    assert rc == 0
    text = (tmp_path / "convergence_time_ms2.csv").read_text()
    assert "# m_s = 2\n" in text
