"""Config parsing, validation, serialization, and sweep expansion."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from beamblow import (
    ConfigError,
    RunConfig,
    SweepConfig,
    parse_config,
    parse_sweep_config,
    serialize_config,
)


def test_defaults_are_valid():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.dim == 1
    assert cfg.N == 128
    assert cfg.preset == "negative_energy"
    assert cfg.thresholds[0] == 100.0
    assert cfg.thresholds[-1] == 1e8


def test_parse_basic_overrides():
    cfg = parse_config("""
# comment line
N = 48
p = 4.0
r = 1.0          # trailing comment
preset = sine_bump
thresholds = 1e1, 1e2, 1e3
dt_min = 1e-9
""")
    assert cfg.N == 48
    assert cfg.p == 4.0
    assert cfg.preset == "sine_bump"
    assert cfg.thresholds == (10.0, 100.0, 1000.0)
    assert cfg.dt_min == 1e-9


@pytest.mark.parametrize("line,frag", [
    ("bad = 1", "unknown key"),
    ("N = 1\nN = 2", "duplicate key"),
    ("N = 1.5", "bad value"),
    ("just some words", "expected key = value"),
    ("dim = 3", "dim must be 1 or 2"),
    ("r = 5", "1 <= r < p"),
    ("gamma = 2", r"2\*gamma \+ 1 < p"),
    ("preset = nope", "unknown preset"),
    ("t_max = 0", "t_max must be positive"),
    ("thresholds = 1e2, 1e3", "at least 3"),
    ("thresholds = 1e3, 1e2, 1e4", "strictly increasing"),
    ("M_safety = 1.0", "M_safety must exceed 1"),
    ("blow_threshold = 1e4", "beyond the run's reach"),
    ("extent = 0.5\nblow_threshold = 1e8", "beyond the run's reach"),
    # non-finite numbers are malformed values, caught at their line
    ("p = inf", "line 1: bad value"),
    ("N = 16\nextent = inf", "line 2: bad value"),
    ("amplitude = inf", "line 1: bad value"),
    ("dt_max = inf", "line 1: bad value"),
    ("dt_min = -inf", "line 1: bad value"),
    ("beta = inf", "line 1: bad value"),
    ("mu = inf", "line 1: bad value"),
    ("mu = 1e400", "line 1: bad value"),
    ("thresholds = 1e2, 1e3, inf", "line 1: bad value"),
    ("seed = -1", "seed must be non-negative"),
    # int() of a literal over the digit limit raises ValueError
    ("seed = " + "9" * 5000, "line 1: bad value"),
])
def test_parse_rejects(line, frag):
    with pytest.raises(ConfigError, match=frag):
        parse_config(line)


def test_top_threshold_may_reach_the_bound_of_the_blow_threshold():
    # on |Omega| = 1 the reach of ||u||_{p+1} is blow_threshold itself
    assert parse_config("blow_threshold = 1e8").thresholds[-1] == 1e8
    cfg = parse_config("dim = 2\nextent = 2\np = 3\nblow_threshold = 1e8\n"
                       "thresholds = 1e2, 1e4, 1.4e8\n")
    assert cfg.thresholds[-1] < 1e8 * 4.0**0.25


def test_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("N = 32\n\nwhat = 7\n")


def test_serialize_round_trip():
    cfg = RunConfig(N=77, p=3.25, r=1.5, gamma=0.75, beta=0.125,
                    preset="high_energy", energy_R=-3.0,
                    dt_max=2e-4, t_max=1.25, blow_threshold=1e7,
                    thresholds=(1.0, 10.0, 100.0), seed=11,
                    alpha_override=0.2)
    text = serialize_config(cfg)
    assert parse_config(text) == cfg


@given(
    N=st.integers(4, 512),
    p=st.floats(2.0, 6.0),
    amplitude=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**31 - 1),
    dt_max=st.floats(1e-6, 1e-2),
)
def test_serialize_round_trip_random(N, p, amplitude, seed, dt_max):
    cfg = RunConfig(N=N, p=p, r=1.0, gamma=0.0, amplitude=amplitude,
                    seed=seed, dt_max=dt_max)
    assert parse_config(serialize_config(cfg)) == cfg


def test_derived_objects():
    cfg = RunConfig(N=32, dim=2, p=4.0, r=2.0, gamma=1.0, beta=0.5)
    prm = cfg.model_params()
    assert (prm.p, prm.r, prm.gamma, prm.beta, prm.dim) == (4.0, 2.0, 1.0, 0.5, 2)
    g = cfg.grid()
    assert g.dim == 2 and g.size == 32 * 32
    controls = cfg.step_controls()
    assert controls.dt_max == cfg.dt_max
    assert controls.dt_min == pytest.approx(1e-12 * cfg.dt_max)


def test_sweep_parse_and_cells():
    sw = parse_sweep_config("""
N = 24
t_max = 1.0
sweep.p = 3.0, 4.0
sweep.r = 1.0, 2.0
""")
    assert sorted(sw.axes) == ["p", "r"]
    cells = sw.cells()
    assert len(cells) == 4
    # lexicographic in sorted key order: p varies slowest
    combos = [(c.p, c.r) for c in cells]
    assert combos == [(3.0, 1.0), (3.0, 2.0), (4.0, 1.0), (4.0, 2.0)]
    assert all(c.N == 24 for c in cells)


def test_sweep_rejects():
    with pytest.raises(ConfigError, match="thresholds cannot be swept"):
        parse_sweep_config("sweep.thresholds = 1, 2, 3")
    with pytest.raises(ConfigError, match="duplicate sweep key"):
        parse_sweep_config("sweep.p = 3\nsweep.p = 4")
    with pytest.raises(ConfigError, match="line 2: bad value '3, inf' for "
                       "sweep key 'p'"):
        parse_sweep_config("N = 16\nsweep.p = 3, inf")
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        parse_sweep_config("sweep.seed = 0, -1")
    # every cell is validated at parse time
    with pytest.raises(ConfigError, match="1 <= r < p"):
        parse_sweep_config("sweep.r = 1.0, 99.0")


def test_sweep_cell_cap():
    axes = {"p": tuple(2.0 + 0.001 * k for k in range(200)),
            "seed": tuple(range(200))}
    sw = SweepConfig(base=RunConfig(), axes=axes)
    with pytest.raises(ConfigError, match="cap"):
        sw.cells()


def test_config_is_frozen():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.N = 12
