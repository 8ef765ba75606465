"""Measure how far every Gaussian seed operation is from an exact solve between landmarks.

A Gaussian seed operation builds ``g`` or ``shep-g`` (``landreg.bench``) on
one of the seven seed cases at alpha in 0.2, 0.4, 1.2 or 2.0: 56 operations.
Each is evaluated on the 40 x 40 default grid, as the sweep evaluates it,
and read at 20 fixed probes of that grid (every third of the 60 probes
that ``tests/test_precision.py`` uses).  There it is compared with an
oracle solved and evaluated in mpmath at 100 digits:

* ``g``: the global Gaussian interpolant of the case's landmarks;
* ``shep-g``: the nodal Gaussian interpolants, each solved at 100 digits on
  its own neighbourhood, blended with the library's own Shepard weights.

Per operation it reports the accepted rung (64 = float64, 80 = 80-bit,
dd = double-double; a Shepard transform lists its nodal rungs with their
counts), the condition estimate, the landmark residual, max |F - F*| over
the probes, max |F*|, and the oracle's own gap: max |F*_100 - F*_150| to
the same oracle solved at 150 digits.  It measures only; it flags nothing.
Run from the root of a checkout, with the landreg to audit on the path:

    PYTHONPATH=src python3 tools/offnode_audit.py run --cache DIR --out A.json
    python3 tools/offnode_audit.py compare A.json B.json

``--cache DIR`` keeps the oracle values (as hi + lo float64 pairs) between
runs; they depend on the case, alpha and the digits only, so audits of two
commits can share one cache.  The oracles take a few minutes to build in
pure-Python mpmath.  ``compare`` prints both errors side by side and marks
with ``!`` an operation whose error rose by more than max(1 % of A's error,
1e-15 max(1, |F*|)); it exits 1 if any did.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import mpmath as mp
import numpy as np

ALPHAS = (0.2, 0.4, 1.2, 2.0)
METHODS = ("g", "shep-g")
DIGITS = (100, 150)
RUNG_TAGS = {"double": "64", "longdouble": "80", "mp": "dd"}


def probe_rows(grid) -> np.ndarray:
    """The rows of PROBES[::3] of tests/test_precision.py in the default grid: 20 points."""
    return np.linspace(0, len(grid) - 1, 60).round().astype(int)[::3]


def gaussian_oracle(alpha, sources, targets, points, dps):
    """The Gaussian interpolant of (sources, targets) at the points, solved at dps digits.

    Returns mpf values as a list of rows, one per point.
    """
    with mp.workdps(dps):
        a2 = mp.mpf(alpha) ** 2
        src = [[mp.mpf(float(v)) for v in p] for p in sources]

        def row(p):
            return [mp.exp(-a2 * sum((x - y) ** 2 for x, y in zip(p, s))) for s in src]

        matrix = mp.matrix([row(p) for p in src])
        coef = [mp.lu_solve(matrix, mp.matrix([mp.mpf(float(v)) for v in col]))
                for col in np.asarray(targets).T]
        out = []
        for p in points:
            values = row([mp.mpf(float(v)) for v in p])
            out.append([mp.fsum(v * w for v, w in zip(values, c)) for c in coef])
        return out


def _split(rows) -> np.ndarray:
    """mpf rows as (2, P, m) float64: hi words, then the lo words of the remainders."""
    hi = np.array([[float(v) for v in r] for r in rows])
    lo = np.array([[float(v - mp.mpf(h)) for v, h in zip(r, hr)] for r, hr in zip(rows, hi)])
    return np.stack([hi, lo])


def _cached(cache, name, compute) -> np.ndarray:
    path = None if cache is None else Path(cache) / f"{name}.npy"
    if path is not None and path.exists():
        return np.load(path)
    value = _split(compute())
    if path is not None:
        np.save(path, value)
    return value


def _mp(pairs):
    """(2, P, m) hi/lo pairs back to mpf rows."""
    return [[mp.mpf(float(h)) + mp.mpf(float(lo)) for h, lo in zip(hr, lr)]
            for hr, lr in zip(pairs[0], pairs[1])]


def oracle(method, case, alpha, transform, landmarks, points, dps, cache):
    """F* at the points: mpf rows at 200 working digits."""
    if method == "g":
        return _mp(_cached(cache, f"g|{case}|{alpha}|{dps}", lambda: gaussian_oracle(
            alpha, landmarks.sources, landmarks.targets, points, dps)))
    from landreg.landmarks import k_nearest
    from landreg.shepard import _weights_matrix
    near, d2 = k_nearest(landmarks.sources, points, transform.config.n_w)
    wbar = _weights_matrix(landmarks, transform.config, transform.rho, points, near, d2)
    out = [[mp.mpf(0)] * landmarks.dimension for _ in points]
    for nf in transform.nodal:
        active, slots = np.nonzero((near == nf.center) & (wbar != 0.0))
        if not len(active):
            continue
        idx = nf.neighbors
        node = _mp(_cached(cache, f"shep-g|{case}|{alpha}|{dps}|{nf.center}", lambda: (
            gaussian_oracle(alpha, landmarks.sources[idx], landmarks.targets[idx], points, dps))))
        for k, slot in zip(active, slots):
            w = mp.mpf(float(wbar[k, slot]))
            out[k] = [acc + w * v for acc, v in zip(out[k], node[k])]
    return out


def _rungs(transform) -> str:
    if hasattr(transform, "precision"):
        return RUNG_TAGS[transform.precision]
    counts = Counter(RUNG_TAGS[nf.interpolant.precision] for nf in transform.nodal)
    return " ".join(f"{tag}:{counts[tag]}" for tag in ("64", "80", "dd") if counts[tag])


def audit(method, case, alpha, cache) -> dict:
    from landreg import bench
    landmarks, grid, _ = bench.gen_case(bench.CaseSpec(case))
    transform = bench.build_method(method, landmarks, case, alpha)
    rows = probe_rows(grid.points)
    points = grid.points[rows]
    values = transform(grid.points)[rows]
    with mp.workdps(200):
        exact, check = (oracle(method, case, alpha, transform, landmarks, points, dps, cache)
                        for dps in DIGITS)
        error = max(abs(mp.mpf(float(v)) - e) for vr, er in zip(values, exact)
                    for v, e in zip(vr, er))
        gap = max(abs(e - c) for er, cr in zip(exact, check) for e, c in zip(er, cr))
        size = max(abs(e) for er in exact for e in er)
    return {"method": method, "case": case, "alpha": alpha, "rung": _rungs(transform),
            "condition": float(transform.condition), "residual": float(transform.residual),
            "error": float(error), "oracle_max": float(size), "oracle_gap": float(gap)}


HEADER = (f"{'method':<7} {'case':<16} {'alpha':>5} {'rung':<16} {'condition':>9} "
          f"{'residual':>9} {'|F - F*|':>9} {'max |F*|':>9} {'F* gap':>9}")


def line(row) -> str:
    return (f"{row['method']:<7} {row['case']:<16} {row['alpha']:>5} {row['rung']:<16} "
            f"{row['condition']:>9.2e} {row['residual']:>9.2e} {row['error']:>9.2e} "
            f"{row['oracle_max']:>9.2e} {row['oracle_gap']:>9.2e}")


def run(cache, out) -> int:
    from landreg.bench import CASE_KINDS
    if cache is not None:
        Path(cache).mkdir(parents=True, exist_ok=True)
    rows = []
    print(HEADER)
    for method in METHODS:
        for case in CASE_KINDS:
            for alpha in ALPHAS:
                rows.append(audit(method, case, alpha, cache))
                print(line(rows[-1]), flush=True)
    if out is not None:
        Path(out).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


def compare(path_a, path_b) -> int:
    a = {(r["method"], r["case"], r["alpha"]): r for r in json.loads(Path(path_a).read_text())}
    b = {(r["method"], r["case"], r["alpha"]): r for r in json.loads(Path(path_b).read_text())}
    risen = 0
    print(f"{'method':<7} {'case':<16} {'alpha':>5} {'A |F - F*|':>10} {'B |F - F*|':>10} "
          f"{'B / A':>7}  rung A -> B")
    for key in sorted(a.keys() & b.keys()):
        ra, rb = a[key], b[key]
        allowed = max(0.01 * ra["error"], 1e-15 * max(1.0, ra["oracle_max"]))
        rose = rb["error"] - ra["error"] > allowed
        risen += rose
        ratio = rb["error"] / ra["error"] if ra["error"] else float("inf")
        print(f"{key[0]:<7} {key[1]:<16} {key[2]:>5} {ra['error']:>10.3e} {rb['error']:>10.3e} "
              f"{ratio:>7.4f}{'!' if rose else ' '} {ra['rung']} -> {rb['rung']}")
    for key in sorted(a.keys() ^ b.keys()):
        print(f"{key}: only in {path_a if key in a else path_b}")
    print(f"{risen} of {len(a.keys() & b.keys())} operations rose beyond the allowance")
    return 1 if risen or a.keys() != b.keys() else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="audit every Gaussian seed operation")
    r.add_argument("--cache", help="directory that keeps the oracle values between runs")
    r.add_argument("--out", help="write the rows as JSON here")
    c = sub.add_parser("compare", help="compare two audits' errors")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.cache, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
