"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Published RMSE tables are not bit-reproducible (the original
square/circle landmark coordinates were never released), so the criteria
check properties and qualitative orderings instead of table values.
"""

import math
import time

import numpy as np

from landreg import bench
from landreg.bench import CaseSpec, gen_case, real_life_run, rmse
from landreg.kernels import (Gaussian, Wendland1D, WendlandRadial,
                             eval_radial, eval_univariate)
from landreg.landmarks import LandmarkSet
from landreg.lobachevsky import eval_fn_explicit, eval_fn_recurrence, eval_fn_star
from landreg.shepard import ShepardConfig, build_shepard_transform, node_radii
from landreg.transform import solve_transform
from weights import scattered_weights

ALL_CASES = bench.SQUARE_CASES + bench.CIRCLE_CASES + ("real-life",)

# parameters per (method, case): the published square-case optima, the
# published circle-case Wendland values, and the published real-life values
# (alpha = 1.6 / c = 0.1) everywhere else
CASE_PARAMETERS = {}
for (_method, _kind), (_value, _) in bench.REPORTED_SQUARE_OPTIMA.items():
    CASE_PARAMETERS[(_method, _kind)] = _value
for _kind in ("circle-expand", "circle-contract", "real-life"):
    for _method, _param in bench.METHOD_PARAMETERS.items():
        if _param is None:
            CASE_PARAMETERS[(_method, _kind)] = None
        else:
            CASE_PARAMETERS[(_method, _kind)] = 1.6 if _param == "alpha" else 0.1
CASE_PARAMETERS[("w2-2d", "circle-expand")] = 0.1
CASE_PARAMETERS[("w2-2d", "circle-contract")] = 0.4
CASE_PARAMETERS[("w2-1dx1d", "circle-expand")] = 0.7
CASE_PARAMETERS[("w2-1dx1d", "circle-contract")] = 0.8


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {description}")
    assert ok, f"criterion {number} ({description}): {detail}"


def test_criterion_01_interpolation_suite():
    t0 = time.perf_counter()
    failures = []
    for kind in ALL_CASES:
        landmarks, _, _ = gen_case(CaseSpec(kind))
        for method in bench.METHOD_NAMES:
            value = CASE_PARAMETERS[(method, kind)]
            transform = bench.build_method(method, landmarks, kind, value)
            residual = np.abs(transform(landmarks.sources) - landmarks.targets).max()
            limit = 1e-10 if transform.condition < 1e10 else 1e-6
            if residual > limit:
                failures.append((method, kind, value, residual, transform.condition))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report(1, f"interpolation <=1e-6 (1e-10 when cond<1e10) for 10 methods x "
              f"{len(ALL_CASES)} cases in {elapsed:.1f}s",
           ok, f"failures={failures}, elapsed={elapsed:.1f}s")


def test_criterion_02_lobachevsky_oracle():
    rng = np.random.RandomState(2024)
    worst = 0.0
    for n in range(2, 9):
        for a in (0.5, 1.0, 2.0):
            xs = rng.uniform(-n * a - 1.0, n * a + 1.0, 1000)
            gap = np.abs(eval_fn_explicit(n, a, xs) - eval_fn_recurrence(n, a, xs))
            worst = max(worst, float((gap / np.maximum(1.0, np.abs(eval_fn_recurrence(n, a, xs)))).max()))
    agree = worst <= 1e-12

    integral_ok = True
    for n in (2, 4, 6, 8):
        a = 1.0
        xs = np.linspace(-n * a, n * a, 10 ** 4 + 1)
        values = eval_fn_recurrence(n, a, xs)
        h = xs[1] - xs[0]
        integral = h / 3.0 * (values[0] + values[-1]
                              + 4 * values[1:-1:2].sum() + 2 * values[2:-1:2].sum())
        integral_ok &= abs(integral - 1.0) <= 1e-8

    grid = np.linspace(-4.0, 4.0, 201)
    pdf = np.exp(-grid * grid / 2.0) / math.sqrt(2.0 * math.pi)
    gaps = [float(np.abs(eval_fn_star(n, grid) - pdf).max()) for n in (4, 8, 16, 32)]
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(3))

    report(2, "explicit/recurrence agree to 1e-12; density integral 1±1e-8; "
              "normal-limit sup-gap strictly decreasing",
           agree and integral_ok and decreasing,
           f"worst gap={worst:.2e}, integral_ok={integral_ok}, gaps={gaps}")


def test_criterion_03_wendland_suite():
    outside_exact = True
    for m in (1, 2, 3):
        for h in (0, 1, 2, 3):
            k = WendlandRadial(m, h, 0.8)
            rs = np.array([1.25, 1.25 + 1e-9, 3.7, 1e6])
            outside_exact &= bool((eval_radial(k, rs) == 0.0).all())

    xs = np.linspace(-4.0, 4.0, 4001)
    match = True
    for h in (0, 1, 2, 3):
        uni = eval_univariate(Wendland1D(h, 0.9), xs)
        rad = eval_radial(WendlandRadial(1, h, 0.9), np.abs(xs))
        match &= bool(np.abs(uni - rad).max() <= 1e-15)

    steps = (1e-2, 1e-3, 1e-4)
    ratios_ok = True
    for m in (1, 2):
        for h in (1, 2, 3):
            k = WendlandRadial(m, h, 1.0)
            for q in range(1, 2 * h + 1):
                values = []
                for s in steps:
                    total = 0.0
                    for i in range(q + 1):
                        r = 1.0 + (q / 2 - i) * s
                        total += (-1) ** i * math.comb(q, i) * eval_radial(k, max(r, 0.0))
                    values.append(abs(total / s ** q))
                ratios_ok &= values[1] <= 0.5 * values[0] + 1e-12
                ratios_ok &= values[2] <= 0.5 * values[1] + 1e-12

    report(3, "exact zero outside support; m=1 radial == univariate to 1e-15; "
              "boundary differences of order <=2h vanish (step ratio test)",
           outside_exact and match and ratios_ok,
           f"outside={outside_exact}, match={match}, ratios={ratios_ok}")


def test_criterion_04_shepard_suite():
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    cfg = ShepardConfig(bench.ThinPlateSpline(), 25, 25)
    rho = node_radii(landmarks, cfg)
    rng = np.random.RandomState(7)
    pts = rng.uniform(0.0, 1.0, (10 ** 4, 2))
    weights = scattered_weights(landmarks, cfg, rho, pts)
    partition = float(np.abs(weights.sum(axis=1) - 1.0).max())
    nonneg = bool((weights >= 0.0).all())

    at_landmarks = scattered_weights(landmarks, cfg, rho, landmarks.sources)
    cardinal = bool(np.array_equal(at_landmarks, np.eye(landmarks.n)))

    # locality: perturbing a far landmark's target leaves F(x) bit-identical
    cluster_a = np.array([(x, y) for y in np.linspace(0.05, 0.25, 3)
                          for x in np.linspace(0.05, 0.25, 3)])
    cluster_b = cluster_a + [0.7, 0.7]
    src = np.vstack([cluster_a, cluster_b])
    tgt = src + rng.uniform(-0.02, 0.02, src.shape)
    cfg2 = ShepardConfig(Gaussian(2.0), 6, 6)
    x = np.array([0.15, 0.15])
    base = build_shepard_transform(LandmarkSet(src, tgt), cfg2)
    tgt2 = tgt.copy()
    tgt2[len(cluster_a) + 4] += [0.03, -0.02]
    moved = build_shepard_transform(LandmarkSet(src, tgt2), cfg2)
    local = bool(np.array_equal(base(x), moved(x)))

    report(4, "partition of unity to 1e-12 at 1e4 points; cardinal weights; "
              "far-landmark perturbation leaves F(x) bit-identical",
           partition <= 1e-12 and nonneg and cardinal and local,
           f"partition={partition:.2e}, nonneg={nonneg}, cardinal={cardinal}, local={local}")


def test_criterion_05_tps_affine_reproduction():
    rng = np.random.RandomState(11)
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    matrix = rng.uniform(-0.5, 0.5, (2, 2)) + np.eye(2)
    offset = rng.uniform(-0.2, 0.2, 2)
    affine_targets = landmarks.sources @ matrix.T + offset
    lm = LandmarkSet(landmarks.sources, affine_targets)
    transform = bench.build_method("tps", lm, None)
    probes = rng.uniform(0.0, 1.0, (100, 2))
    gap = float(np.abs(transform(probes) - (probes @ matrix.T + offset)).max())

    from landreg.transform import monomial_matrix
    side = monomial_matrix(lm.sources, 1).T @ transform.coef
    side_ok = float(np.abs(side).max()) <= 1e-10 * (1.0 + float(np.abs(transform.coef).max()))

    report(5, "random affine targets reproduced at 100 probes to 1e-8; "
              "side conditions |Q^T a| <= 1e-10 (1 + |a|)",
           gap <= 1e-8 and side_ok, f"gap={gap:.2e}, side_ok={side_ok}")


def test_criterion_06_tensor_and_representation_equivalence():
    rng = np.random.RandomState(13)
    src = np.sort(rng.uniform(0.0, 1.0, 9))[:, None]
    lm = LandmarkSet(src, src + rng.uniform(-0.05, 0.05, src.shape))
    radial = bench.solve_transform(WendlandRadial(1, 1, 1.2), lm)
    tensor = bench.solve_transform(Wendland1D(1, 1.2), lm)
    coef_gap = float(np.abs(radial.coef - tensor.coef).max())

    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    n, alpha = 4, 1.6
    from landreg.lobachevsky import LobachevskySpline
    by_alpha = bench.solve_transform(LobachevskySpline(n, alpha=alpha), landmarks)
    by_a = bench.solve_transform(
        LobachevskySpline(n, a=math.sqrt(3.0 / n) / alpha), landmarks)
    probes = rng.uniform(0.0, 1.0, (100, 2))
    rep_gap = float(np.abs(by_alpha(probes) - by_a(probes)).max())

    report(6, "m=1 tensor == m=1 radial coefficients to 1e-12; standardized and "
              "plain spline representations give identical maps to 1e-8",
           coef_gap <= 1e-12 and rep_gap <= 1e-8,
           f"coef_gap={coef_gap:.2e}, rep_gap={rep_gap:.2e}")


def test_criterion_07_conditioning_reproduction():
    landmarks, _, _ = gen_case(CaseSpec("square-shift-32"))
    cond_gauss = solve_transform(Gaussian(0.2), landmarks).condition
    cond_wendland = solve_transform(WendlandRadial(2, 1, 0.5), landmarks).condition
    ok = cond_gauss > 1e12 and cond_gauss / cond_wendland >= 1e6
    report(7, "flat Gaussian condition estimate > 1e12 and >= 1e6 x the Wendland "
              "c=0.5 estimate on the 36-landmark shift case",
           ok, f"gauss={cond_gauss:.2e}, wendland={cond_wendland:.2e}")


def test_criterion_08_sweep_harness():
    t0 = time.perf_counter()
    problems = []
    for kind in bench.SQUARE_CASES:
        case = CaseSpec(kind)
        _, grid, truth = gen_case(case)
        no_registration = rmse(lambda pts: np.asarray(pts, float), grid, truth)
        for method in bench.METHOD_NAMES:
            report_ = bench.sweep(method, case)
            finite = all(r is not None and np.isfinite(r) for r in report_.rmses)
            beats = report_.optimal_rmse < no_registration
            if not (finite and beats):
                problems.append((kind, method, report_.optimal_rmse, no_registration))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    report(8, f"ten-method sweep on four square cases in {elapsed:.0f}s; all RMSEs "
              "finite; every optimum beats the unregistered error",
           ok, f"problems={problems}, elapsed={elapsed:.0f}s")


def test_criterion_09_real_life_ordering():
    rows = real_life_run()
    by_method = {row.method: row.rmse for row in rows}
    finite = all(np.isfinite(v) for v in by_method.values())
    gauss = by_method["g"]
    ordered = (by_method["tps"] < gauss and by_method["w2-2d"] < gauss
               and by_method["l4"] < gauss)
    report(9, "six methods solve the real-life landmark set; smooth methods beat "
              "the strongly deforming Gaussian",
           len(rows) == 6 and finite and ordered,
           f"rmse={ {k: round(v, 5) for k, v in by_method.items()} }")


def _run_report_suite(tmp_path, tag):
    from landreg.cli import cli_main
    lm = tmp_path / f"lm-{tag}.csv"
    cfg = tmp_path / f"cfg-{tag}.cfg"
    grid = tmp_path / f"grid-{tag}.csv"
    svg = tmp_path / f"deformed-{tag}.svg"
    sweep_out = tmp_path / f"sweep-{tag}.csv"
    real_out = tmp_path / f"real-{tag}.csv"
    assert cli_main(["gen-case", "--case", "square-shift-32", "--out", str(lm)]) == 0
    cfg.write_text("kernel = lobachevsky\nn = 4\nalpha = 1.0\n")
    assert cli_main(["solve", "--landmarks", str(lm), "--config", str(cfg),
                     "--grid-out", str(grid)]) == 0
    assert cli_main(["render", "--grid", str(grid), "--out", str(svg),
                     "--landmarks", str(lm)]) == 0
    assert cli_main(["sweep", "--case", "square-shift-32", "--method", "w2-2d",
                     "--reference", "identity", "--out", str(sweep_out)]) == 0
    assert cli_main(["real-life", "--out", str(real_out)]) == 0
    return {path.name.replace(f"-{tag}", ""): path.read_bytes()
            for path in (lm, grid, svg, sweep_out, real_out)}


def test_criterion_10_determinism(tmp_path):
    first = _run_report_suite(tmp_path, "a")
    second = _run_report_suite(tmp_path, "b")
    same = {key: first[key] == second[key] for key in first}
    report(10, "two consecutive full-suite runs produce byte-identical landmark, "
               "grid, report and SVG files",
           all(same.values()), f"mismatches={[k for k, v in same.items() if not v]}")
