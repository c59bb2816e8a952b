"""Configuration parsing and formatting."""

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
    path = tmp_path / "case.cfg"
    path.write_text("n = lots\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))


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
        SimulationConfig(**{name: value}).validate()


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
