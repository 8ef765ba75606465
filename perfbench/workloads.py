"""The three benchmark workloads: seeded inputs, timed passes, correctness gate.

Each workload exposes ``prepare(seed, workdir)`` (input generation and
warm-up; timed as set-up) and ``run_pass(state, gate, watch)`` (one pass,
timed by the ``Stopwatch``).  A pass returns a list of ``Op`` records, one
per transform, with the timed segments of that transform; everything outside
those segments (residual checks, CSV read-back, reference look-ups) is
correctness checking and is never timed.

Only the benchmark generates inputs.  The library receives the generated
landmarks, case specifications, config files and grids, nothing else.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np

from landreg import bench, cli, io
from landreg.bench import CaseSpec
from landreg.kernels import ThinPlateSpline, WendlandRadial
from landreg.landmarks import LandmarkSet
from landreg.shepard import ShepardConfig, build_shepard_transform
from landreg.transform import solve_transform

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_rmse.json"

# The criterion-08 sweep takes ~52 s per pass with its default ranges (ten
# values from 0.2 or 0.1), more than one run may last.  Each method sweeps
# three values instead, the ends and the middle of the default range without
# its flattest value: the flat end still lands on the 80-bit and mp rungs.
# One plan takes ~12 s, so a pass runs it SWEEP_ROUNDS times, each round in
# its own seeded order, and times each operation by the median of its rounds.
# A single round timed each operation once: the 11th-slowest fit then moved
# by up to 29 % (IQR/median over ten seeds) with the host's speed and with
# the order in which the operations ran.
SWEEP_RANGES = {"alpha": (0.4, 2.0, 3), "c": (0.2, 1.0, 3)}
SWEEP_ROUNDS = 3

# Criterion 01's rule for the landmark residual.
RESIDUAL_TIGHT, RESIDUAL_LOOSE, CONDITION_SPLIT = 1e-10, 1e-6, 1e10

# Off-node error of a transform accepted on the 80-bit rung reaches 7e-5
# (ROADMAP baseline, 60-digit oracle).  RMSE is 1-Lipschitz in the sup norm
# of F, so a later commit that moves a transform to another rung may shift
# its RMSE by up to that much; 1e-4 leaves margin above it.
RMSE_TOLERANCE = 1e-4

# A CSV round-trips doubles exactly (17 significant digits); the allowance
# covers only BLAS reordering between the CLI's solve and the in-process one.
GRID_TOLERANCE = 1e-12


@dataclasses.dataclass
class Op:
    """One transform: its timed fit and warp segments, in seconds.

    ``reg_s`` is fit + warp; it is set only where the two are medians over
    rounds, whose sum is not the median of the sums.
    """

    label: str
    fit_s: float
    warp_s: float
    ok: bool = True
    reg_s: float | None = None


class Gate:
    """Collects correctness failures; one failure marks its op as failed."""

    def __init__(self):
        self.failures = []

    def check(self, op: Op, ok: bool, what: str):
        if not ok:
            op.ok = False
            self.failures.append(f"{op.label}: {what}")


class Stopwatch:
    """Times the segments of a pass; a tracer records spans only inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.total = 0.0
        self._t = 0.0

    def start(self, op_id: str):
        if self.tracer is not None:
            self.tracer.op = op_id
            self.tracer.active = True
        self._t = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed, self._t = now - self._t, now
        self.total += elapsed
        return elapsed

    def stop(self) -> float:
        elapsed = self.lap()
        if self.tracer is not None:
            self.tracer.active = False
        return elapsed


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed,) + stream)


def case_spec(kind: str, seed: int) -> CaseSpec:
    """The canonical case at seed 0; other seeds move and resize whole shapes.

    Perturbations act on CaseSpec overrides only, so square sides stay
    collinear and circles stay round.  Their size (1 % of the unit square in
    position, 2 % in size and factor) keeps every landmark inside [0, 1]^2.
    """
    spec = CaseSpec(kind)
    if seed == 0 or kind == "real-life":
        return spec
    rng = _rng(seed, bench.CASE_KINDS.index(kind))
    jitter = lambda: float(rng.uniform(-0.01, 0.01))
    stretch = lambda: float(1.0 + rng.uniform(-0.02, 0.02))
    if kind in bench.SQUARE_CASES:
        side = 0.25 if "shift" in kind else 0.2
        cx, cy = spec.square_center
        sx, sy = spec.shift
        return dataclasses.replace(
            spec, square_center=(cx + jitter(), cy + jitter()), square_side=side * stretch(),
            shift=(sx + jitter(), sy + jitter()), scale=spec.scale * stretch())
    target = 0.30 if kind == "circle-expand" else 0.075
    cx, cy = spec.circle_center
    return dataclasses.replace(
        spec, circle_center=(cx + jitter(), cy + jitter()),
        inner_radius=spec.inner_radius * stretch(),
        outer_radius=spec.outer_radius * stretch(),
        target_radius=target * stretch())


def landmark_residual(transform, landmarks) -> float:
    return float(np.abs(transform(landmarks.sources) - landmarks.targets).max())


def residual_ok(residual: float, condition: float) -> bool:
    limit = RESIDUAL_TIGHT if condition < CONDITION_SPLIT else RESIDUAL_LOOSE
    return residual <= limit


def _warm_up():
    """Touch every method and every rung once on a tiny case (lazy imports, mp constants).

    On the 18-landmark real-life case, parameter 0.5 keeps each method on the
    float64 or 80-bit rung; `g` at 0.2 then reaches the mp rung.  `shep-g` at
    0.2 would too, but it solves its nodal interpolants at mp and takes ~0.5 s
    of noisy set-up for no code path that `g` leaves untouched.
    """
    landmarks, grid, _ = bench.gen_case(CaseSpec("real-life"))
    probe = grid.points[:8]
    for method in bench.METHOD_NAMES:
        param = bench.METHOD_PARAMETERS[method]
        value = None if param is None else 0.5
        bench.build_method(method, landmarks, "real-life", value)(probe)
    bench.build_method("g", landmarks, "real-life", 0.2)(probe)


# ---------------------------------------------------------------------------
# sweep-square: the criterion-08 sweep through the library API


def load_reference():
    """The recorded {label: rmse} of every sweep operation."""
    with open(REFERENCE_FILE) as handle:
        return json.load(handle)["rmse"]


def sweep_plan():
    """[(CaseSpec, method, value)] for the ten methods x four canonical square cases."""
    plan = []
    for kind in bench.SQUARE_CASES:
        spec = CaseSpec(kind)
        for method, param in bench.METHOD_PARAMETERS.items():
            values = [None] if param is None else [
                float(v) for v in bench.parameter_values(*SWEEP_RANGES[param])]
            plan.extend((spec, method, value) for value in values)
    return plan


def sweep_orders(seed: int, size: int):
    """One seeded order of the plan's indices per round.

    The seed chooses the orders and leaves the geometry canonical.  The
    precision ladder's rung choices are chaotic in its inputs: moving the
    squares' targets by 1 % re-rolls 2-5 of the rung choices of g, shep-g, l4
    and l6, and each re-roll moves the 11th-slowest operation, the tail, by
    up to 25 %.  The tails would then measure a different workload at every
    seed.  Shuffled orders spread each slow spell of the host over all kinds
    of operation.
    """
    return [_rng(seed, 202, r).permutation(size) for r in range(SWEEP_ROUNDS)]


def sweep_label(kind, method, value) -> str:
    return f"{kind}/{method}" + ("" if value is None else f"@{value:.2f}")


def prepare_sweep(seed: int, workdir: Path, reference: bool = True):
    plan = sweep_plan()
    unregistered = {}
    for spec, _, _ in plan:
        if spec.kind not in unregistered:
            _, grid, truth = bench.gen_case(spec)
            unregistered[spec.kind] = bench.rmse(lambda p: np.asarray(p, float), grid, truth)
    _warm_up()
    return {"plan": plan, "orders": sweep_orders(seed, len(plan)), "unregistered": unregistered,
            "reference": load_reference() if reference else None}


def run_sweep_pass(state, gate: Gate, watch: Stopwatch, rmse_out=None):
    """Every round of the plan; each op's times are the medians of its rounds."""
    plan, reference = state["plan"], state["reference"]
    ops = [Op(sweep_label(spec.kind, method, value), 0.0, 0.0) for spec, method, value in plan]
    times = [[] for _ in plan]
    errors = {}
    cases = {}
    for order in state["orders"]:
        for i in order:
            spec, method, value = plan[i]
            op = ops[i]
            if spec.kind not in cases:
                watch.start(spec.kind)
                cases[spec.kind] = bench.gen_case(spec)[:2]
                watch.stop()
            landmarks, grid = cases[spec.kind]
            watch.start(op.label)
            try:
                transform = bench.build_method(method, landmarks, spec.kind, value)
                fit_s = watch.lap()
                err = bench.rmse(transform, grid)
                warp_s = watch.stop()
            except Exception as exc:  # a raising op counts as failed, the pass goes on
                times[i].append((watch.stop(), 0.0))
                gate.check(op, False, f"raised {type(exc).__name__}: {exc}")
                continue
            times[i].append((fit_s, warp_s))
            errors[i] = err
            if rmse_out is not None:
                rmse_out[op.label] = err
            gate.check(op, np.isfinite(err), "RMSE not finite")
            gate.check(op, residual_ok(landmark_residual(transform, landmarks),
                                       transform.condition), "landmark residual")
            if reference is not None:
                gate.check(op, abs(err - reference[op.label]) <= RMSE_TOLERANCE,
                           f"RMSE {err!r} off the reference table")
    for op, samples in zip(ops, times):
        op.fit_s = statistics.median(f for f, _ in samples)
        op.warp_s = statistics.median(w for _, w in samples)
        op.reg_s = statistics.median(f + w for f, w in samples)
    groups = {}
    for i, err in errors.items():
        groups.setdefault((plan[i][0].kind, plan[i][1]), []).append((err, ops[i]))
    for (kind, _), group in groups.items():
        best, best_op = min(group, key=lambda item: item[0])
        gate.check(best_op, best < state["unregistered"][kind],
                   "sweep optimum does not beat the unregistered RMSE")
    return ops


# ---------------------------------------------------------------------------
# register-cli: the regcli user flow, in-process through cli.cli_main

CLI_CONFIGS = {
    "tps": "kernel = tps\n",
    "wendland2d": "kernel = wendland2d\nh = 1\nc = 0.5\n",
    "wendland1d": "kernel = wendland1d\nh = 1\nc = 0.5\n",
    "lobachevsky": "kernel = lobachevsky\nn = 4\nalpha = 1.6\n",
    "shepard-tps": "method = shepard\nnodal_kernel = tps\nn_l = {n}\nn_w = {n}\n",
}


def prepare_cli(seed: int, workdir: Path):
    cases = []
    for kind in bench.CASE_KINDS:
        case_dir = workdir / kind
        case_dir.mkdir(parents=True, exist_ok=True)
        landmarks, _, _ = bench.gen_case(case_spec(kind, seed))
        canonical = io.write_landmarks(bench.gen_case(CaseSpec(kind))[0])
        lm_path = case_dir / "landmarks.csv"
        lm_path.write_text(io.write_landmarks(landmarks))
        configs = []
        for name, text in CLI_CONFIGS.items():
            cfg_path = case_dir / f"{name}.cfg"
            cfg_path.write_text(text.format(n=min(25, landmarks.n)))
            configs.append((name, cfg_path))
        cases.append({"kind": kind, "dir": case_dir, "landmarks": lm_path,
                      "canonical": canonical, "configs": configs})
    warm = workdir / "warm-up"
    warm.mkdir(exist_ok=True)
    cli.cli_main(["gen-case", "--case", "real-life", "--out", str(warm / "lm.csv")])
    for _, cfg_path in cases[-1]["configs"]:
        cli.cli_main(["solve", "--landmarks", str(cases[-1]["landmarks"]),
                      "--config", str(cfg_path), "--grid-out", str(warm / "grid.csv")])
    cli.cli_main(["render", "--grid", str(warm / "grid.csv"), "--out", str(warm / "grid.svg")])
    return {"cases": cases, "expected": {}}


def _expected_grid(state, case, name, cfg_path):
    """In-process fit and warp of the same inputs, computed once, untimed."""
    key = (case["kind"], name)
    if key not in state["expected"]:
        landmarks = io.parse_landmarks(case["landmarks"].read_text())
        transform = io.method_from_config(cfg_path.read_text())(landmarks)
        values = transform(bench.default_grid().points)
        residual = landmark_residual(transform, landmarks)
        state["expected"][key] = (values, residual, transform.condition)
    return state["expected"][key]


def run_cli_pass(state, gate: Gate, watch: Stopwatch):
    ops = []
    for case in state["cases"]:
        gen_out = case["dir"] / "gen-case.csv"
        watch.start(f"{case['kind']}/gen-case")
        code = cli.cli_main(["gen-case", "--case", case["kind"], "--out", str(gen_out)])
        watch.stop()
        gen_op = Op(f"{case['kind']}/gen-case", 0.0, 0.0)
        gate.check(gen_op, code == 0, f"gen-case exit code {code}")
        gate.check(gen_op, code != 0 or gen_out.read_text() == case["canonical"],
                   "gen-case output differs from the canonical case")
        if not gen_op.ok:
            ops.append(gen_op)
        for name, cfg_path in case["configs"]:
            grid_path = case["dir"] / f"{name}.grid.csv"
            svg_path = case["dir"] / f"{name}.svg"
            label = f"{case['kind']}/{name}"
            watch.start(label)
            solve_code = cli.cli_main(["solve", "--landmarks", str(case["landmarks"]),
                                       "--config", str(cfg_path), "--grid-out", str(grid_path)])
            solve_s = watch.lap()
            render_code = cli.cli_main(["render", "--grid", str(grid_path), "--out",
                                        str(svg_path), "--landmarks", str(case["landmarks"])])
            op = Op(label, solve_s, watch.stop())
            ops.append(op)
            gate.check(op, solve_code == 0, f"solve exit code {solve_code}")
            gate.check(op, render_code == 0, f"render exit code {render_code}")
            if solve_code != 0:
                continue
            expected, residual, condition = _expected_grid(state, case, name, cfg_path)
            _, values = io.parse_grid_csv(grid_path.read_text())
            gate.check(op, np.isfinite(values).all(), "grid values not finite")
            gate.check(op, values.shape == expected.shape
                       and float(np.abs(values - expected).max()) <= GRID_TOLERANCE,
                       "grid CSV differs from the in-process warp")
            gate.check(op, residual_ok(residual, condition), "landmark residual")
            if render_code == 0:
                svg = svg_path.read_text()
                gate.check(op, svg.count("<polyline") == 80, "SVG lacks the 40 + 40 grid lines")
    return ops


# ---------------------------------------------------------------------------
# scale-dense: N = 1000 landmarks, ~20k-point grid, three methods

DENSE_SIDE = 32          # 32 x 32 lattice cells, 24 of them left empty
DENSE_N = 1000
DENSE_GRID = 141         # 141^2 = 19,881 evaluation points
DENSE_NEIGHBOURS = 30    # Wendland support sized to hold ~30 landmarks
DENSE_LOCALITY = 25      # Shepard-TPS n_l = n_w


def dense_landmarks(seed: int):
    """Jittered lattice in [0, 1]^2 with a smooth displacement; seed draws the jitter.

    Returns (sources, targets) arrays: each fit builds its own LandmarkSet, so
    the N x N separation check is timed with the fit.
    """
    rng = _rng(seed, 101)
    h = 1.0 / DENSE_SIDE
    ix, iy = np.meshgrid(np.arange(DENSE_SIDE), np.arange(DENSE_SIDE))
    cells = np.column_stack([ix.ravel(), iy.ravel()])
    keep = np.sort(rng.choice(len(cells), DENSE_N, replace=False))
    src = (cells[keep] + 0.5 + rng.uniform(-0.35, 0.35, (DENSE_N, 2))) * h
    x, y = src[:, 0], src[:, 1]
    shift = 0.03 * np.column_stack([np.sin(np.pi * x) * np.sin(2 * np.pi * y),
                                    np.sin(2 * np.pi * x) * np.sin(np.pi * y)])
    return src, src + shift


def dense_methods(n: int):
    c = float(np.sqrt(np.pi * n / DENSE_NEIGHBOURS))
    return [
        ("wendland", lambda lm: solve_transform(WendlandRadial(2, 1, c), lm)),
        ("tps", lambda lm: solve_transform(ThinPlateSpline(), lm)),
        ("shepard-tps", lambda lm: build_shepard_transform(
            lm, ShepardConfig(ThinPlateSpline(), DENSE_LOCALITY, DENSE_LOCALITY))),
    ]


def prepare_dense(seed: int, workdir: Path):
    sources, targets = dense_landmarks(seed)
    grid = bench.default_grid(DENSE_GRID, DENSE_GRID).points
    small = LandmarkSet(sources[::10], targets[::10])
    for _, build in dense_methods(small.n):
        build(small)(grid[:64])
    return {"sources": sources, "targets": targets, "grid": grid}


def run_dense_pass(state, gate: Gate, watch: Stopwatch):
    ops = []
    grid = state["grid"]
    for name, build in dense_methods(len(state["sources"])):
        label = f"dense/{name}"
        watch.start(label)
        landmarks = LandmarkSet(state["sources"], state["targets"])
        transform = build(landmarks)
        fit_s = watch.lap()
        values = transform(grid)
        op = Op(label, fit_s, watch.stop())
        ops.append(op)
        gate.check(op, bool(np.isfinite(values).all()), "warp output not finite")
        gate.check(op, residual_ok(landmark_residual(transform, landmarks),
                                   transform.condition), "landmark residual")
        del transform, values
    return ops


WORKLOADS = {
    "sweep-square": (prepare_sweep, run_sweep_pass),
    "register-cli": (prepare_cli, run_cli_pass),
    "scale-dense": (prepare_dense, run_dense_pass),
}
