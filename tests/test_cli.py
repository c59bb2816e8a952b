"""Command line interface."""

import contextlib
import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cutfsi import (SimulationConfig, analysis, discretization, linalg, run_simulation,
                    stepper)
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


# the refusal of a T/k that overflows, a ConfigError rather than an OverflowError
OVERFLOW = "configuration error: T = 8.0 over k = 1e-320 overflows the step count\n"

# the first words of the one stderr line of each failing exit status
PREFIX = {2: "configuration error: ", 3: "solver error: "}

# the config files that rows of the exit-status table read, by relative path
CONFIG_FILES = {"lots.cfg": "n = lots\n", "twice.cfg": "n = 8\nn = 16\n"}


@pytest.mark.parametrize("argv, status, value", [
    pytest.param(["convergence", "--mode", "time", "--ref", "-0.5", "--set", "n=8"], 2, "-0.5",
                 id="time-ref-negative"),
    pytest.param(["convergence", "--mode", "time", "--ref", "0.3", "--set", "T=2.0"], 2,
                 "k = 0.3", id="time-ref-not-dividing-T"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2", "--ref", "0.2"], 2, "k=0.2",
                 id="time-ref-not-nested"),
    pytest.param(["convergence", "--mode", "time", "--ref", "0.3333333333333333", "--levels",
                  "2"], 2, "reference step k=0.333333 does not divide k=0.5",
                 id="time-ref-not-dividing-k"),
    pytest.param(["run", "--set", "T=1e-10"], 2, "T = 1e-10", id="run-T-below-k"),
    pytest.param(["convergence", "--mode", "space", "--levels", "2", "--set", "T=1e-10"], 2,
                 "T = 1e-10", id="space-T-below-k"),
    pytest.param(["convergence", "--mode", "space", "--ref", "24", "--levels", "2", "--set",
                  "n=8"], 2, "reference mesh n=24", id="space-ref-not-nested"),
    pytest.param(["convergence", "--mode", "space", "--ref", "0.5", "--set", "n=8"], 2,
                 "got 0.5", id="space-ref-fraction"),
    pytest.param(["convergence", "--mode", "space", "--levels", "2", "--ref", "0"], 2,
                 "n must be >= 2, got 0", id="space-ref-0"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2", "--ref", "0"], 2,
                 "k must be positive and finite, got 0.0", id="time-ref-0"),
    pytest.param(["convergence", "--mode", "space", "--levels", "0", "--set", "n=8"], 2,
                 "got 0", id="levels-0"),
    pytest.param(["run", "--dump-every", "-1", "--set", "n=8"], 2, "got -1",
                 id="dump-every-negative"),
    pytest.param(["run", "--set", "n=abc"], 2, "n = 'abc'", id="run-n-not-integer"),
    pytest.param(["run", "--set", "bogus=1"], 2, "unknown config key 'bogus'",
                 id="run-unknown-key"),
    pytest.param(["run", "--set", "radius_squared=1.2"], 2, "radius_squared must be < 1",
                 id="run-circle-outside-cavity"),
    # a circle that no mesh of the guard resolves names its n compactly
    pytest.param(["run", "--set", "n=4", "--set", "radius_squared=1e-300"], 2,
                 "configuration error: cell 5: the cut cell lies within h/2 of the circle "
                 "centre; n=4 does not resolve the circle of radius 1e-150, "
                 "n >= 3.82843e+150 does ((sqrt(2) + 1/2) h <= radius)\n",
                 id="run-tiny-circle-unresolved"),
    pytest.param(["run", "--set", "peak_inflow=nan"], 2, "peak_inflow must be finite, got nan",
                 id="run-lid-speed-nan"),
    pytest.param(["run", "--set", "n=4", "--set", "rho_f=1e-226", "--set", "nu_f=1e-284",
                  "--set", "k=0.25", "--set", "T=1"], 2,
                 "rho_f * nu_f = 1e-226 * 1e-284 is not a normal float",
                 id="run-viscosity-underflow"),
    pytest.param(["convergence", "--mode", "space", "--levels", "2", "--ref", "16", "--set",
                  "n=8"], 2, "reference mesh n=16 is not finer", id="space-ref-not-finer"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2", "--ref", "0.5"], 2,
                 "reference step k=0.5 is not finer", id="time-ref-not-finer"),
    pytest.param(["convergence", "--mode", "space", "--levels", "2", "--set", "peak_inflow=0"],
                 2, "peak_inflow = 0", id="space-zero-lid-speed"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2", "--set", "n=8",
                  "--set", "peak_inflow=-0.0"], 2, "peak_inflow = 0", id="time-zero-lid-speed"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2", "--ref", "1e-6"], 2,
                 "stores 8e+06 states of ~983 dofs", id="time-ref-states-beyond-guard"),
    pytest.param(["run", "--config", "no/such/case.cfg"], 2,
                 "cannot read config file no/such/case.cfg: No such file or directory",
                 id="run-config-missing"),
    pytest.param(["run", "--config", "lots.cfg"], 2, "lots.cfg:1: n = 'lots'",
                 id="run-config-n-not-integer"),
    pytest.param(["run", "--config", "twice.cfg"], 2, "twice.cfg:2: n is already set on line 1",
                 id="run-config-key-twice"),
    pytest.param(["run", "--set", "n=1024"], 2, "refusing n=1024", id="run-n-beyond-mesh-guard"),
    pytest.param(["run", "--set", "T=1e300"], 2, "refusing 1e+300 time steps",
                 id="run-T-beyond-step-guard"),
    pytest.param(["run", "--set", "k=1e-7"], 2, "refusing 8e+07 time steps",
                 id="run-k-beyond-step-guard"),
    pytest.param(["run", "--set", "k=1e-320"], 2, OVERFLOW, id="run-step-count-overflow"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2", "--set", "k=1e-320"], 2,
                 OVERFLOW, id="time-step-count-overflow"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2", "--set", "T=1e300"], 2,
                 "stores 4e+300 states of ~983 dofs (3.932e+303 values",
                 id="time-T-states-beyond-guard"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2", "--set", "T=1e300",
                  "--set", "k=1e-7"], 2, "stores 4e+307 states of ~983 dofs (3.932e+310 values",
                 id="time-values-beyond-float"),
    pytest.param(["convergence", "--mode", "space", "--levels", "2", "--ref", "1e300"], 2,
                 "refusing n=1e+300", id="space-ref-beyond-mesh-guard"),
    pytest.param(["run", "--set", f"n={10 ** 400}"], 2, "got a 1329-bit integer",
                 id="run-n-beyond-float"),
    pytest.param(["convergence", "--mode", "space", "--levels", "2000"], 2,
                 "got a 2004-bit integer", id="space-levels-beyond-float"),
    pytest.param(["convergence", "--mode", "time", "--levels", "2000"], 2,
                 "k must be positive and finite, got 0.0", id="time-levels-underflow-k"),
    pytest.param(["convergence", "--mode", "space", "--levels", "1000000"], 2,
                 "got a 1000004-bit integer", id="space-million-levels"),
    pytest.param(["convergence", "--mode", "time", "--levels", "1000000000"], 2,
                 "k must be positive and finite, got 0.0", id="time-billion-levels"),
    # levels are made and checked one by one, coarsest first, so the first
    # that the reference does not refine ends a list of a million or more
    pytest.param(["convergence", "--mode", "space", "--levels", "1000000", "--ref", "16",
                  "--set", "n=8"], 2, "reference mesh n=16 is not finer than n=16",
                 id="space-million-levels-past-ref"),
    pytest.param(["convergence", "--mode", "time", "--levels", "1000000000", "--ref", "0.25"],
                 2, "reference step k=0.25 is not finer than k=0.25",
                 id="time-billion-levels-past-ref"),
    # gamma_N = 1e20 or w_max = 1e30 leaves R finite (largest entry 5.3e16
    # and 4.8e24 at n = 8), but its LU is exactly singular
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "gamma_N=1e20"], 3,
                 "sparse LU failed: Factor is exactly singular", id="run-singular-gamma_N"),
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "w_max=1e30"], 3,
                 "sparse LU failed: Factor is exactly singular", id="run-singular-w_max"),
    # mu_s = 1e300 makes ||A||_inf ||x||_inf overflow in the probe, whose
    # solve of A x = A·1 has ||x||_inf = 7.6e284 instead of 1; at
    # rho_f = 1e308 and lambda_s = 1e308 R is finite (its largest row sum
    # overflows at lambda_s = 1e308), but its LU is exactly singular.  No
    # row warns: the suite's filterwarnings turn a RuntimeWarning into an error
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "mu_s=1e300"], 3,
                 "solver error: numerically singular factorization (probe backward error nan ",
                 id="run-probe-overflow"),
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "rho_f=1e308"], 3,
                 "solver error: sparse LU failed: Factor is exactly singular\n",
                 id="run-non-finite-matrix"),
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "lambda_s=1e308"], 3,
                 "solver error: sparse LU failed: Factor is exactly singular\n",
                 id="run-row-sum-overflow"),
    # a form or operator that overflows is refused by name, not dropped as
    # the round-off of its infinite largest entry
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "gamma_u=1e308"], 3,
                 "solver error: form ghost_u overflows to non-finite entries\n",
                 id="run-ghost_u-overflow"),
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "gamma_vf=1e308"], 3,
                 "solver error: form ghost_vf overflows to non-finite entries\n",
                 id="run-ghost_vf-overflow"),
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "mu_s=1e308"], 3,
                 "solver error: form solid_bulk overflows to non-finite entries\n",
                 id="run-solid_bulk-overflow"),
    # a lid speed of 1e300 overflows the first step to NaN; at 1e154 only
    # the norm of the right-hand side overflows, and the relative residual
    # would read 0
    pytest.param(["run", "--set", "n=8", "--set", "T=2", "--set", "peak_inflow=1e300"], 3,
                 "solver error: step 1: relative residual nan is not finite\n",
                 id="run-non-finite-step"),
    pytest.param(["run", "--set", "n=8", "--set", "T=1", "--set", "peak_inflow=1e154"], 3,
                 "solver error: step 1: relative residual nan is not finite\n",
                 id="run-rhs-norm-overflow"),
])
def test_bad_run_input_exits_2_before_any_discretization(argv, status, value, tmp_path, capsys,
                                                          monkeypatch):
    """The exit-status table of ``cutfsi run`` and ``cutfsi convergence``.
    Input they refuse exits 2 at once, before any discretization is built
    or --output-dir is created, save a mesh that does not resolve the
    circle, which its discretization refuses; that refusal, and a step
    matrix or a step that cannot be solved (exit 3, before the step log is
    written), remove the --output-dir the command created.  Either way
    stderr is one short line that starts with the status's prefix and
    holds the row's value."""
    built = []
    init = discretization.Discretization.__init__

    def counting(self, cfg):
        built.append(cfg.n)
        init(self, cfg)

    monkeypatch.setattr(discretization.Discretization, "__init__", counting)
    monkeypatch.chdir(tmp_path)
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    start = time.perf_counter()
    rc = main(argv + ["--output-dir", "out"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == status, err
    # the prefix once, at the start: a value that begins with it pins the
    # start of the line
    assert err.startswith(PREFIX[status]) and err.count(PREFIX[status]) == 1, err
    assert value in err, err
    # one short line: no count is printed digit by digit, or overflows to inf
    assert err.count("\n") == 1 and len(err) <= 200
    assert "Traceback" not in err and not re.search(r"\binf\b", err)
    if status == 2:
        # at once: a study validates its reference, then each level as it
        # makes it, coarsest first.  A mesh that does not resolve the
        # circle is refused as its one discretization builds the cut topology
        unresolved = "does not resolve the circle" in value
        assert elapsed < 2.0 and built == ([4] if unresolved else [])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["--mode", "space", "--ref", "24", "--levels", "2", "--set", "n=8"], "reference mesh n=24"),
    (["--mode", "time", "--ref", "0.3333333333333333", "--levels", "2"], "reference step k=0.333"),
    (["--mode", "time", "--levels", "2", "--set", "n=8", "--set", "ramp_time=1e300"],
     "the vf_T error at k=1 is 0,"),
    (["--mode", "time", "--levels", "2", "--set", "n=8", "--set", "peak_inflow=1e-320"],
     "the vf_T error at k=1 is 2.79147e-321,"),
], ids=["space", "time", "lid-at-rest", "lid-subnormal"])
def test_refused_study_leaves_no_output_dir(argv, message, tmp_path, capsys):
    """A study whose levels do not nest in the reference is refused before
    a nested --output-dir is created; one whose errors have no order, as
    its lid stays at rest (ramp_time = 1e300) or its errors are subnormal
    (a lid of 1e-320), is refused after its runs, and removes the
    directories it created.  Either way stderr is one line."""
    outdir = tmp_path / "nest" / "out"
    assert main(["convergence", *argv, "--output-dir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err
    assert not (tmp_path / "nest").exists()


def test_failed_run_keeps_what_it_wrote(tmp_path, capsys, monkeypatch):
    """A run whose second step fails keeps the snapshots of its first, and
    the directories that hold them."""
    step = stepper.TimeStepper.step

    def failing(self, state):
        if state.n == 1:
            raise linalg.SingularMatrixError("step 2: relative residual nan is not finite")
        return step(self, state)

    monkeypatch.setattr(stepper.TimeStepper, "step", failing)
    outdir = tmp_path / "nest" / "out"
    rc = main(["run", "--set", "n=8", "--set", "T=2", "--dump-every", "1",
               "--output-dir", str(outdir)])
    assert rc == 3 and "step 2" in capsys.readouterr().err
    assert sorted(p.name for p in outdir.iterdir()) == ["fluid_00001.vtu", "solid_00001.vtu"]


@pytest.mark.parametrize("argv, status", [
    (["run", "--set", "n=8", "--set", "T=1"], 0),
    (["run", "--set", "n=abc"], 2),
    (["run", "--set", "n=8", "--set", "T=1", "--set", "gamma_N=1e20"], 3),
    (["run", "--set", "n=8", "--set", "T=2", "--set", "peak_inflow=1e300"], 3),
    (["run", "--set", "n=8", "--set", "T=1", "--set", "rho_f=1e308"], 3),
    (["convergence", "--mode", "space", "--levels", "2", "--set", "n=8",
      "--set", "ramp_time=1e300"], 2),
], ids=["ok", "bad-input", "singular", "lid-overflow", "density-overflow", "lid-at-rest"])
def test_python_m_cutfsi_exits_with_the_status(argv, status, tmp_path):
    """``python -m cutfsi`` hands the status of ``main`` to the shell, and
    prints nothing (status 0) or one stderr line, and then leaves no
    --output-dir behind: no numpy warning goes before the refusal of an
    overflow.  A study whose lid stays at rest (ramp_time = 1e300) is
    refused after its runs, as no order can be measured, and removes the
    --output-dir it created."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "cutfsi", *argv,
                           "--output-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == status, proc.stderr
    if status:
        assert proc.stderr.startswith(PREFIX[status]) and proc.stderr.count("\n") == 1, \
            proc.stderr
        assert not (tmp_path / "out").exists()
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["run", "--set", "n=8", "--set", "T=1.0"],
    ["convergence", "--mode", "time", "--levels", "2", "--set", "n=8", "--set", "T=1.0"],
], ids=["run", "convergence"])
def test_output_dir_that_is_a_file_exits_2_before_any_discretization(argv, tmp_path, capsys,
                                                                     monkeypatch):
    """An --output-dir that cannot be created, a file or one with a name
    too long, is refused with one line before the first discretization,
    not after the whole run."""
    monkeypatch.setattr(discretization.Discretization, "__init__",
                        lambda self, cfg: pytest.fail(f"built a discretization at n={cfg.n}"))
    afile = tmp_path / "afile"
    afile.touch()
    for outdir, reason in [(afile, "File exists"),
                           (tmp_path / ("x" * 300) / "out", "File name too long")]:
        rc = main(argv + ["--output-dir", str(outdir)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"configuration error: cannot use --output-dir {outdir}: {reason}\n"


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


def test_unrepairable_step_exits_3(tmp_path, capsys, monkeypatch, perturbed_factor):
    """A factor of the step matrix with its diagonal perturbed by 1e-3
    (relative), after one refinement, leaves the first step's backward
    error above linalg.PROBE_TOL: ``cutfsi run`` exits 3 with one stderr
    line naming the step, instead of exiting 0."""
    monkeypatch.setattr(linalg, "factorize", lambda A: perturbed_factor(A, 1e-3))
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
    # the sampled ghost-extension ratios are not under test here; the
    # necessity and energy-decay checks run as they are
    monkeypatch.setattr(analysis, "ghost_extension_ratios", lambda *a, **k: 1.0)
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


@pytest.mark.parametrize("argv", [
    pytest.param([], id="default"),
    # the warning filters of python -W error -W default::DeprecationWarning
    pytest.param(["--set", "m_s=2"], id="quadratic-solid-warnings-as-errors",
                 marks=pytest.mark.filterwarnings("error", "default::DeprecationWarning")),
    pytest.param(["--set", "radius_squared=0.5"], id="circle-through-vertices"),
    pytest.param(["--set", "radius_squared=0.6"], id="radius-squared-0.6"),
    pytest.param(["--set", "radius_squared=0.9"], id="radius-squared-0.9"),
])
def test_verify_passes(argv, verify_run, capsys):
    """Every built-in check passes: on the default configuration, with the
    quadratic solid and no warning, on a circle through mesh vertices, and
    on the circles of r^2 = 0.6 and 0.9."""
    rc, out = (main(["verify", *argv]), capsys.readouterr().out) if argv else verify_run
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


@pytest.mark.filterwarnings("error")
def test_verify_prints_checks_before_a_solver_error(capsys):
    """Each check prints as it runs: with gamma_N = 1e20 the decay check's
    LU is exactly singular, so verify exits 3 with one stderr line after
    the 19 geometry and ghost lines.  With w_max = 1e308 the jumps of the
    first ghost-extension band overflow, and it is refused by name, with
    no warning, after the 12 geometry lines."""
    for setting, err, n_lines, last in [
            ("gamma_N=1e20", "sparse LU failed: Factor is exactly singular", 19,
             "[ok  ] ghost necessity"),
            ("w_max=1e308", "ghost-extension rhs of vf overflows to non-finite entries", 12,
             "[ok  ] n=32 ghost path assumption (s)")]:
        rc = main(["verify", "--set", setting])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == f"solver error: {err}\n"
        lines = captured.out.splitlines()
        assert len(lines) == n_lines
        assert lines[-1].startswith(last)


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
    # the sampled ghost-extension ratios are not under test here; the
    # necessity and energy-decay checks run as they are
    monkeypatch.setattr(analysis, "ghost_extension_ratios", lambda *a, **k: 1.0)
    main(["verify", "--set", "radius_squared=0.6"])
    assert built == [(8, 0.6), (16, 0.6), (32, 0.6)]  # the decay check steps n = 8
    assert "[ok  ] n=32 solid area" in capsys.readouterr().out


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


@pytest.mark.parametrize("argv", [
    ["--mode", "time", "--levels", "2", "--ref", "0.25", "--set", "T=2.0"],
    ["--mode", "space", "--levels", "1", "--ref", "16", "--set", "T=1.0"],
], ids=["time", "space"])
def test_convergence_validates_its_study_once(argv, tmp_path, monkeypatch):
    """``cutfsi convergence`` runs the configurations it validated: one
    ``study_configs`` call per command, which also reads a --ref of 16 as
    the mesh n = 16."""
    calls = []
    study_configs = analysis.study_configs

    def counting(*args):
        calls.append(args[0])
        return study_configs(*args)

    monkeypatch.setattr(analysis, "study_configs", counting)
    assert main(["convergence", *argv, "--set", "n=8", "--output-dir", str(tmp_path)]) == 0
    assert calls == [argv[1]]


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
