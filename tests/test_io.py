import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from landreg.bench import CaseSpec, default_grid, gen_case
from landreg.io import (GRID_HEADER, LANDMARK_HEADER, QUASI_TOLERANCE, SVG_SCALE, ConfigError,
                        ParseError, infer_grid_shape, method_from_config, parse_config,
                        parse_grid_csv, parse_landmarks, render_grid_svg, write_grid_csv,
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


# ---------------------------------------------------------------------------
# the bulk reader and writers against the per-row, per-value code they replace

def reference_rows(text, header, width):
    """The row loop: (line number, fields) of each non-blank row after the header."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"line 1: expected header {header!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, got {len(fields)}")
        yield lineno, fields


def reference_float(token, lineno):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite coordinate {token!r}")
    return value


def reference_parse_landmarks(text):
    coords, quasi = [], []
    for lineno, fields in reference_rows(text, LANDMARK_HEADER, 5):
        sx, sy, tx, ty = (reference_float(f, lineno) for f in fields[:4])
        flag = fields[4].strip()
        if flag not in ("0", "1"):
            raise ParseError(f"line {lineno}: quasi flag must be 0 or 1, got {flag!r}")
        is_quasi = flag == "1"
        if is_quasi and (abs(sx - tx) > QUASI_TOLERANCE or abs(sy - ty) > QUASI_TOLERANCE):
            raise ParseError(f"line {lineno}: quasi-landmark must have source == target")
        if is_quasi:
            tx, ty = sx, sy
        coords += (sx, sy, tx, ty)
        quasi.append(is_quasi)
    if not quasi:
        raise ParseError("no landmark rows found")
    coords = np.array(coords).reshape(-1, 2, 2)
    return LandmarkSet(coords[:, 0].copy(), coords[:, 1].copy(), np.array(quasi))


def reference_parse_grid_csv(text):
    flat = []
    for lineno, fields in reference_rows(text, GRID_HEADER, 4):
        flat += (reference_float(f, lineno) for f in fields)
    if not flat:
        raise ParseError("no grid rows found")
    table = np.array(flat).reshape(-1, 2, 2)
    return table[:, 0].copy(), table[:, 1].copy()


def outcome(parse, text):
    """Each returned array's dtype, shape and bytes, or the exception's type and message."""
    try:
        result = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, LandmarkSet):
        result = (result.sources, result.targets, result.quasi)
    return [(a.dtype, a.shape, a.tobytes()) for a in result]


GOOD_NUMBERS = st.one_of(DOUBLES.map(lambda v: format(v, ".17g")), st.floats(-2, 2).map(repr),
                         st.sampled_from(["1_0", " 0.5 ", "\t-1\t", "-0", "+.5", "1e-400", "٣",
                                          "0.1　"]))
FAULTY = {
    "header": st.sampled_from(["x,y", "", "sx,sy,tx,ty", "x,y,fx,fy,quasi"]),
    "not a number": st.sampled_from(["0x10", "", "frog", "1_", "1\x00", "1.5.2", "\x85"]),
    "non-finite": st.sampled_from(["nan", "-inf", "inf", "1e999", "NaN"]),
    "width": st.sampled_from([-2, -1, 1]),
    "flag": st.sampled_from(["2", "", "1.0", "x", "-0", "01"]),
    "quasi": st.sampled_from([1e-13, 1e-11, 0.5]),
}
SEPARATORS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
BLANKS = st.sampled_from(["", " ", "\t", "\r"])


def shifted(token, shift):
    """The text of token's number plus shift, or token if it is not a number."""
    try:
        return repr(float(token) + shift)
    except ValueError:
        return token


# either header over any text of a CSV's characters
JUNK_CSV = st.builds("{}\n{}".format, st.sampled_from([LANDMARK_HEADER, GRID_HEADER]),
                     st.text(alphabet="0123456789.,-e_ \t\r\n\x85xyfsqtuai", max_size=60))


@st.composite
def csv_texts(draw, header):
    """Texts of the CSV format with this header: valid, or with faults of one kind or of all.

    Any file may have blank lines, CRLF or CR endings and spaces around
    fields.  A fault is a bad header, a field that is not a number or not
    finite, a short or long row, a bad quasi flag, or a quasi row whose
    source is not its target (past the tolerance or within it).
    """
    width = header.count(",") + 1
    kinds = draw(st.sampled_from([(), ("all",), *[(kind,) for kind in FAULTY]]))
    kinds = set(FAULTY) if kinds == ("all",) else set(kinds)

    def fault(kind):
        return kind in kinds and draw(st.integers(0, 3)) == 0

    lines = [draw(FAULTY["header"]) if fault("header")
             else header if draw(st.booleans()) else f" {header}\t"]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(BLANKS))
        fields = [draw(GOOD_NUMBERS) for _ in range(4)]
        for kind in ("not a number", "non-finite"):
            if fault(kind):
                fields[draw(st.integers(0, 3))] = draw(FAULTY[kind])
        if width == 5:
            flag = draw(FAULTY["flag"]) if fault("flag") else draw(st.sampled_from(
                ["0", "1", " 1 ", "0\t"]))
            if flag.strip() == "1":
                fields[2:4] = fields[:2]
                if fault("quasi"):
                    fields[3] = shifted(fields[3], draw(FAULTY["quasi"]))
            fields.append(flag)
        if fault("width"):
            change = draw(FAULTY["width"])
            fields = fields[:width + change] if change < 0 else fields + ["0"] * change
        lines.append(",".join(fields))
    return draw(SEPARATORS).join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(csv_texts(LANDMARK_HEADER), JUNK_CSV))
def test_landmark_reader_matches_the_row_loop(text):
    assert outcome(parse_landmarks, text) == outcome(reference_parse_landmarks, text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(csv_texts(GRID_HEADER), JUNK_CSV))
def test_grid_reader_matches_the_row_loop(text):
    assert outcome(parse_grid_csv, text) == outcome(reference_parse_grid_csv, text)


def reference_csv(header, table):
    """The CSV text of a float table, one format(v, ".17g") per value."""
    fields = [format(v, ".17g") for v in np.asarray(table).ravel().tolist()]
    width = np.shape(table)[1]
    rows = [",".join(fields[i:i + width]) for i in range(0, len(fields), width)]
    return "\n".join([header, *rows]) + "\n"


def reference_svg(grid, deformed, landmarks):
    """The SVG of render_grid_svg, one format(v, ".3f") per value."""
    coords = iter([format(v, ".3f") for v in (deformed * SVG_SCALE).ravel().tolist()])
    pairs = [f"{x},{y}" for x, y in zip(coords, coords)]
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 1000 1000">']
    strands = ([pairs[i * grid.cols:(i + 1) * grid.cols] for i in range(grid.rows)]
               + [pairs[j::grid.cols] for j in range(grid.cols)])
    lines += [f'<polyline fill="none" stroke="black" stroke-width="1" points="{" ".join(s)}"/>'
              for s in strands]
    if landmarks is not None:
        for x, y in (landmarks.sources * SVG_SCALE).tolist():
            lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" '
                         f'fill="none" stroke="blue" stroke-width="1.5"/>')
        for cx, cy in (landmarks.targets * SVG_SCALE).tolist():
            lines.append(f'<path stroke="red" stroke-width="1.5" '
                         f'd="M {cx - 5:.3f} {cy:.3f} L {cx + 5:.3f} {cy:.3f} '
                         f'M {cx:.3f} {cy - 5:.3f} L {cx:.3f} {cy + 5:.3f}"/>')
    return "\n".join(lines + ["</svg>"]) + "\n"


# scattered points: every coordinate distinct
SCATTERED_ROWS = [(*row, False) for row in np.random.default_rng(7).random((6, 4)).tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(DOUBLES, DOUBLES, DOUBLES, DOUBLES, st.booleans()), min_size=1,
                max_size=6))
@example(SCATTERED_ROWS)
def test_writers_match_per_value_formatting(rows):
    table = np.array([row[:4] for row in rows])
    assert write_grid_csv(table[:, :2], table[:, 2:]) == reference_csv(GRID_HEADER, table)
    # a lattice repeats its coordinates, and its x column holds both -0.0 and 0.0
    xs = np.concatenate([table[:, 0], [-0.0, 0.0]])
    lattice = np.stack(np.meshgrid(xs, table[:, 1]), axis=-1).reshape(-1, 2)
    assert (write_grid_csv(lattice, lattice[::-1])
            == reference_csv(GRID_HEADER, np.hstack([lattice, lattice[::-1]])))
    quasi = np.array([row[4] for row in rows])
    sources = table[:, :2]
    try:
        landmarks = LandmarkSet(sources, np.where(quasi[:, None], sources, table[:, 2:]), quasi)
    except ValueError:
        landmarks = None                # coincident sources
    if landmarks is not None:
        flagged = np.column_stack([landmarks.sources, landmarks.targets])
        want = reference_csv(LANDMARK_HEADER, flagged).splitlines()
        want = [want[0]] + [f"{line},{int(q)}" for line, q in zip(want[1:], quasi.tolist())]
        assert write_landmarks(landmarks) == "\n".join(want) + "\n"
    grid = default_grid(1, len(rows)) if len(rows) % 2 else default_grid(2, len(rows) // 2)
    with np.errstate(over="ignore"):            # scaled to the viewBox, 1e308 is inf
        for deformed in (table[:, :2], table[:, 2:]):
            for markers in (None, landmarks):
                assert (render_grid_svg(grid, deformed, markers)
                        == reference_svg(grid, deformed, markers))
