"""Configuration parsing and formatting."""

import dataclasses
import re

import pytest

from cutfsi import ConfigError, SimulationConfig, format_config, parse_config


def test_defaults():
    cfg = SimulationConfig()
    assert cfg.n == 8
    assert cfg.k == 1.0
    assert cfg.T == 8.0
    assert cfg.m_f == 2
    assert cfg.m_s == 1
    assert cfg.nu_f == pytest.approx(1e-3)
    assert cfg.mu_s == pytest.approx(5e-3)
    assert cfg.lambda_s == pytest.approx(1e-2)
    for name in ("gamma_vf", "gamma_p", "gamma_vs", "gamma_u"):
        assert getattr(cfg, name) == pytest.approx(1e-3)
    assert cfg.gamma_N == pytest.approx(100.0)
    assert cfg.w_max == pytest.approx(1.0)
    assert cfg.radius_squared == pytest.approx(0.75)
    assert cfg.h == pytest.approx(0.25)
    assert cfg.n_steps == 8


def test_parse_file_roundtrip(tmp_path):
    cfg = SimulationConfig(n=16, k=0.5, m_s=2)
    path = tmp_path / "case.cfg"
    path.write_text(format_config(cfg))
    cfg2 = parse_config(str(path))
    assert cfg2 == cfg


def test_parse_overrides(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("n = 16\nk = 0.5\n")
    cfg = parse_config(str(path), overrides={"n": "8", "T": "2.0"})
    assert cfg.n == 8
    assert cfg.k == 0.5
    assert cfg.T == pytest.approx(2.0)


def test_parse_comments_and_blanks(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("# a comment\n\nn = 16\n  # indented comment\nT = 4\n")
    cfg = parse_config(str(path))
    assert cfg.n == 16
    assert cfg.T == pytest.approx(4.0)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))


def test_bad_value_rejected(tmp_path):
    """A value that does not convert names the file, line, key and value."""
    path = tmp_path / "case.cfg"
    path.write_text("# a comment\nn = lots\n")
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}:2: n = 'lots': ")):
        parse_config(str(path))


def test_duplicate_key_rejected(tmp_path):
    """A key given twice in a file names the file, both lines and the key,
    instead of the last line winning; an override still replaces it."""
    path = tmp_path / "case.cfg"
    path.write_text("n = 8\n# finer\nn = 16\n")
    with pytest.raises(ConfigError,
                       match="^" + re.escape(f"{path}:3: n is already set on line 1")):
        parse_config(str(path))
    path.write_text("n = 8\n")
    assert parse_config(str(path), overrides={"n": "16"}).n == 16


@pytest.mark.parametrize("kind,reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("not-utf8", "can't decode byte 0xff"),
])
def test_unreadable_file_rejected(kind, reason, tmp_path):
    """A config file that cannot be opened or decoded is a ConfigError
    naming the path and the reason, not an OS or decode error."""
    path = tmp_path / "case.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"n = 8\n\xff\n")
    with pytest.raises(ConfigError, match="^" + re.escape(f"cannot read config file {path}: ")
                       + ".*" + re.escape(reason)):
        parse_config(str(path))


@pytest.mark.parametrize("key,value", [("n", "abc"), ("n", "8.5"), ("k", "abc")])
def test_bad_override_value_rejected(key, value):
    """An override that does not convert to its key's type is a ConfigError
    naming the key and the value."""
    with pytest.raises(ConfigError, match=f"^{key} = '{value}': "):
        parse_config(None, overrides={key: value})


def test_validation():
    with pytest.raises(ConfigError):
        parse_config(None, overrides={"n": "-4"})
    with pytest.raises(ConfigError):
        parse_config(None, overrides={"m_s": "3"})
    with pytest.raises(ConfigError):
        parse_config(None, overrides={"k": "0"})
    with pytest.raises(ConfigError):
        # T not an integer multiple of k
        parse_config(None, overrides={"k": "0.3"})


@pytest.mark.parametrize("name,value", [("n", 16.0), ("m_s", 2.0), ("m_s", True),
                                        ("n", False)])
def test_integer_fields_reject_floats_and_bools(name, value):
    """A float or bool n or m_s fails validation, naming the field, instead
    of failing later inside the discretization or running as m_s = 1."""
    with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
        SimulationConfig(**{name: value})


@pytest.mark.parametrize("name", ["peak_inflow", "w_max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_inflow_and_weight_rejected(name, value):
    """A NaN or infinite lid speed or weight bound is refused, naming the
    key, instead of running to NaN energies or a singular LU."""
    with pytest.raises(ConfigError, match=f"^{name} must be finite, got {value}"):
        parse_config(None, overrides={name: value})


def test_config_is_frozen():
    """A config cannot change once built, so it stays as validated."""
    cfg = SimulationConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n = 16
    assert cfg.n == 8


@pytest.mark.parametrize("name,value", [("n", 1), ("m_s", 3), ("k", 0.0), ("k", 0.3),
                                        ("T", 0.5), ("w_max", 0.5), ("radius_squared", 1.2),
                                        ("peak_inflow", float("nan"))])
def test_building_an_invalid_config_raises_the_validate_error(name, value):
    """The constructor refuses exactly what validate() refuses, with its
    message."""
    cfg = SimulationConfig()
    object.__setattr__(cfg, name, value)  # bypass the frozen, checked constructor
    with pytest.raises(ConfigError) as want:
        cfg.validate()
    with pytest.raises(ConfigError, match="^" + re.escape(str(want.value)) + "$"):
        SimulationConfig(**{name: value})


def test_step_count_overflow_rejected():
    """A T/k that overflows to inf is a ConfigError naming T and k, not an
    OverflowError from rounding it."""
    with pytest.raises(ConfigError, match="^" + re.escape("T = 8.0 over k = 1e-320 ")):
        SimulationConfig(k=1e-320)


@pytest.mark.parametrize("values,message", [
    ({"rho_f": 1e-226, "nu_f": 1e-284}, "rho_f * nu_f = 1e-226 * 1e-284 "),
    ({"rho_f": 1e308, "nu_f": 1e308}, "rho_f * nu_f = 1e+308 * 1e+308 "),
    ({"rho_f": 1e-150, "nu_f": 1e-150, "gamma_N": 1e-10},
     "rho_f * nu_f * gamma_N = 1e-150 * 1e-150 * 1e-10 "),
    ({"nu_f": 1e300, "gamma_N": 1e10}, "rho_f * nu_f * gamma_N = 1.0 * 1e+300 * 10000000000.0 "),
], ids=["nu-underflow", "nu-overflow", "nitsche-subnormal", "nitsche-overflow"])
def test_viscous_and_nitsche_scales_must_be_normal_floats(values, message):
    """rho_f nu_f and rho_f nu_f gamma_N scale the viscous and Nitsche
    forms, and the energies divide by the second: a product that
    underflows to zero or a subnormal, or overflows, is a ConfigError that
    names the keys, not a ZeroDivisionError or an inf later.  Normal
    products at the ends of the range pass."""
    with pytest.raises(ConfigError, match="^" + re.escape(message + "is not a normal float")):
        SimulationConfig(**values)
    SimulationConfig(rho_f=1e-150, nu_f=1e-157, gamma_N=1.0)
    SimulationConfig(rho_f=1e150, nu_f=1e150, gamma_N=1e8)


def test_mesh_size_overflow_rejected():
    """An n beyond the float range, whose h = 2/n would raise an
    OverflowError, is a ConfigError that does not print n's digits; the
    largest n of the float range still gives a positive h."""
    with pytest.raises(ConfigError, match="^n must be at most .* so that h = 2/n") as exc:
        SimulationConfig(n=10 ** 400)
    assert "1329-bit" in str(exc.value) and not re.search(r"\d{20}", str(exc.value))
    assert SimulationConfig(n=10 ** 308).h > 0.0


def test_no_file_uses_defaults():
    cfg = parse_config(None)
    assert cfg == SimulationConfig()


def test_replace_validates():
    cfg = SimulationConfig()
    cfg2 = cfg.replace(n=16)
    assert cfg2.n == 16 and cfg.n == 8
    with pytest.raises(ValueError):
        cfg.replace(m_s=3)


def test_fluid_order_is_not_a_key():
    """m_f is fixed at 2: a file or override that sets it is refused, and
    the resolved configuration does not list it."""
    with pytest.raises(ConfigError, match="unknown config key 'm_f'"):
        parse_config(None, overrides={"m_f": "3"})
    assert "m_f" not in format_config(SimulationConfig())


@pytest.mark.parametrize("r2", ["1.0", "1.2", "2.5"])
def test_circle_must_lie_inside_cavity(r2):
    with pytest.raises(ConfigError, match="radius_squared must be < 1"):
        parse_config(None, overrides={"radius_squared": r2})
