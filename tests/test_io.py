import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from landreg.bench import CaseSpec, default_grid, gen_case
from landreg.io import (ConfigError, ParseError, infer_grid_shape,
                        method_from_config, parse_config, parse_grid_csv,
                        parse_landmarks, render_grid_svg, write_grid_csv,
                        write_landmarks)
from landreg.landmarks import LandmarkSet


def test_landmark_csv_round_trip():
    landmarks, _, _ = gen_case(CaseSpec("real-life"))
    text = write_landmarks(landmarks)
    parsed = parse_landmarks(text)
    assert np.array_equal(parsed.sources, landmarks.sources)
    assert np.array_equal(parsed.targets, landmarks.targets)
    assert np.array_equal(parsed.quasi, landmarks.quasi)
    assert write_landmarks(parsed) == text


def test_landmark_csv_parsing_cases():
    header = "sx,sy,tx,ty,quasi\n"
    lm = parse_landmarks(header + "0.3135,0.8232,0.3467,0.8525,0\n")
    assert lm.n == 1 and not lm.quasi[0]
    lm = parse_landmarks(header + "0,0,0,0,1\n")
    assert lm.quasi[0]
    with pytest.raises(ParseError, match="line 2"):
        parse_landmarks(header + "0,0,0.1,0,1\n")  # quasi must be fixed
    with pytest.raises(ParseError, match="line 2"):
        parse_landmarks(header + "0,0,0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_landmarks(header + "0,0,0,0,0\n1,nan,1,1,0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_landmarks(header + "0,0,0,0,2\n")
    with pytest.raises(ParseError, match="header"):
        parse_landmarks("x,y\n0,0\n")
    with pytest.raises(ParseError):
        parse_landmarks(header)  # no rows


def test_grid_csv_round_trip_is_lossless():
    rng = np.random.RandomState(0)
    points = rng.uniform(0, 1, (12, 2))
    values = rng.uniform(-1, 2, (12, 2))
    text = write_grid_csv(points, values)
    back_points, back_values = parse_grid_csv(text)
    assert np.array_equal(back_points, points)
    assert np.array_equal(back_values, values)


def test_grid_csv_errors():
    with pytest.raises(ParseError, match="header"):
        parse_grid_csv("a,b\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_grid_csv("x,y,fx,fy\n0,0,0\n")


def test_infer_grid_shape():
    grid = default_grid(5, 7)
    assert infer_grid_shape(grid.points) == (5, 7)
    single_row = default_grid(1, 7).points
    assert infer_grid_shape(single_row) == (1, 7)
    for bad in ([(0, 0), (1, 0), (0, 1), (5, 7)],              # a row off its y
                [(0, 0), (1, 0), (0, 1), (2, 1)],              # a column off its x
                [(0, 0), (1, 0), (0, 1)]):                     # no whole rows
        with pytest.raises(ValueError, match="rectangular grid"):
            infer_grid_shape(np.array(bad, dtype=float))


def test_svg_polyline_count_and_determinism():
    grid = default_grid(2, 2)
    svg = render_grid_svg(grid, grid.points)
    assert svg.count("<polyline") == 4
    big = default_grid()
    svg_big = render_grid_svg(big, big.points)
    assert svg_big.count("<polyline") == 80
    assert render_grid_svg(big, big.points) == svg_big
    assert svg.startswith("<?xml")
    assert 'viewBox="0 0 1000 1000"' in svg


def test_svg_landmark_markers():
    grid = default_grid(2, 2)
    lm = LandmarkSet([[0.25, 0.25]], [[0.5, 0.5]])
    svg = render_grid_svg(grid, grid.points, lm)
    assert svg.count("<polyline") == 4
    assert svg.count("<circle") == 1
    assert svg.count("<path") == 1
    assert "250.000" in svg


def test_svg_shape_mismatch():
    grid = default_grid(3, 3)
    with pytest.raises(ValueError):
        render_grid_svg(grid, np.zeros((4, 2)))


def test_parse_config():
    cfg = parse_config("kernel = gaussian\nalpha = 1.5\n\n# comment\n")
    assert cfg == {"kernel": "gaussian", "alpha": "1.5"}
    with pytest.raises(ParseError, match="line 2"):
        parse_config("kernel = tps\nbogus line\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("alpha = 1\nalpha = 2\n")


def test_method_from_config_builders():
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    configs = [
        "kernel = gaussian\nalpha = 1.0\n",
        "kernel = tps\n",
        "kernel = wendland2d\nh = 1\nc = 0.5\n",
        "kernel = wendland1d\nh = 1\nc = 0.5\n",
        "kernel = lobachevsky\nn = 4\nalpha = 1.0\n",
        "kernel = lobachevsky\nn = 4\na = 0.5\n",
        "method = shepard\nnodal_kernel = tps\nn_l = 25\nn_w = 25\n",
        "method = shepard\nnodal_kernel = gaussian\nalpha = 1.0\nn_l = 10\nn_w = 10\nrho = 0.5\n",
        "kernel = gmq\ngamma = 1.0\nmu = -1\n",
    ]
    for text in configs:
        transform = method_from_config(text)(landmarks)
        residual = np.abs(transform(landmarks.sources) - landmarks.targets).max()
        assert residual < 1e-6, text


def test_method_from_config_rejects_bad_input():
    bad = [
        "alpha = 1.0\n",                                # no kernel
        "kernel = gaussian\n",                          # missing alpha
        "kernel = gaussian\nalpha = 1.0\nc = 2\n",      # extra key
        "kernel = gaussian\nalpha = frog\n",
        "kernel = unobtainium\n",
        "kernel = lobachevsky\nn = 4\n",                # needs alpha or a
        "kernel = lobachevsky\nn = 4\nalpha = 1\na = 1\n",
        "method = shepard\nn_l = 5\nn_w = 5\n",         # no nodal kernel
        "method = shepard\nnodal_kernel = tps\nn_l = 5\nn_w = 5\nrho = wide\n",
        "method = teleport\nkernel = tps\n",
        "kernel = gmq\ngamma = 1.0\nmu = 2\n",          # even positive exponent
        "kernel = gaussian\nalpha = -1\n",
    ]
    nodal = "method = shepard\nnodal_kernel = gaussian\nn_l = 5\nn_w = 5\nalpha = "
    bad += [nodal + alpha for alpha in ("-1", "nan", "inf")]
    for text in bad:
        with pytest.raises(ConfigError):
            method_from_config(text)
    # a bad nodal parameter reads like the same bad global one
    messages = []
    for text in ("kernel = gaussian\nalpha = -1\n", nodal + "-1"):
        with pytest.raises(ConfigError) as info:
            method_from_config(text)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_write_landmarks_requires_2d():
    lm = LandmarkSet([[0.0], [1.0]], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        write_landmarks(lm)


# Finite doubles, with the edges of the format always in reach: signed zeros,
# subnormals and magnitudes whose squares overflow.
DOUBLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1e300, -1e300, 1.7976931348623157e308]))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(DOUBLES, DOUBLES, DOUBLES, DOUBLES, st.booleans()),
                min_size=1, max_size=6))
def test_landmark_csv_round_trips_every_finite_double(rows):
    rows = np.array(rows, dtype=object)
    quasi = rows[:, 4].astype(bool)
    sources = rows[:, :2].astype(float)
    targets = np.where(quasi[:, None], sources, rows[:, 2:4].astype(float))
    try:
        landmarks = LandmarkSet(sources, targets, quasi)
    except ValueError:
        assume(False)       # coincident sources
    text = write_landmarks(landmarks)
    parsed = parse_landmarks(text)
    for name in ("sources", "targets", "quasi"):
        assert same_bits(getattr(parsed, name), getattr(landmarks, name)), name
    assert write_landmarks(parsed) == text


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(DOUBLES, DOUBLES, DOUBLES, DOUBLES), min_size=1, max_size=8))
def test_grid_csv_round_trips_every_finite_double(rows):
    table = np.array(rows, dtype=float)
    points, values = table[:, :2].copy(), table[:, 2:].copy()
    text = write_grid_csv(points, values)
    back_points, back_values = parse_grid_csv(text)
    assert same_bits(back_points, points) and same_bits(back_values, values)
    assert write_grid_csv(back_points, back_values) == text


CONFIG_NAMES = {
    "method": ["global", "shepard", "teleport"],
    "kernel": ["gaussian", "tps", "gmq", "wendland1d", "wendland2d", "lobachevsky", "spline"],
    "nodal_kernel": ["tps", "gaussian", "gmq"],
}
CONFIG_NUMBERS = st.one_of(
    st.sampled_from(["auto", "nan", "inf", "-inf", "frog", "1e3", "1e300", "1e-300", "0.5",
                     "1.6", "-0.5", "10000000000000000000000"]),
    st.integers(-3, 25).map(str), st.floats().map(repr))
CONFIG_KEYS = ["method", "kernel", "nodal_kernel", "alpha", "gamma", "mu", "h", "c", "n", "a",
               "n_l", "n_w", "rho", "bogus"]


CONFIG_TEMPLATES = [
    "kernel = gaussian\nalpha = {}\n",
    "kernel = tps\n",
    "kernel = gmq\ngamma = {}\nmu = {}\n",
    "kernel = wendland2d\nh = {}\nc = {}\n",
    "kernel = wendland1d\nh = {}\nc = {}\n",
    "kernel = lobachevsky\nn = {}\nalpha = {}\n",
    "kernel = lobachevsky\nn = {}\na = {}\n",
    "method = shepard\nnodal_kernel = tps\nn_l = {}\nn_w = {}\nrho = {}\n",
    "method = shepard\nnodal_kernel = gaussian\nalpha = {}\nn_l = {}\nn_w = {}\n",
]


def config_texts(numbers=CONFIG_NUMBERS):
    """`key = value` texts: a valid config's keys with any values, or any of the grammar's keys."""
    filled = st.sampled_from(CONFIG_TEMPLATES).flatmap(
        lambda template: st.lists(numbers, min_size=template.count("{}"),
                                  max_size=template.count("{}")).map(lambda v: template.format(*v)))
    values = {key: st.sampled_from(CONFIG_NAMES[key]) if key in CONFIG_NAMES else numbers
              for key in CONFIG_KEYS}
    lines = st.fixed_dictionaries({}, optional=values).map(
        lambda entries: [f"{key} = {value}" for key, value in entries.items()])
    raw = st.lists(st.text(alphabet="ab=# \t", max_size=8), max_size=1)
    return st.one_of(filled, st.builds(lambda lines, raw: "\n".join(lines + raw) + "\n", lines, raw))


@settings(max_examples=300, deadline=None)
@given(config_texts())
def test_method_from_config_returns_a_builder_or_a_config_error(text):
    try:
        build = method_from_config(text)
    except (ConfigError, ParseError):
        return
    assert callable(build)
