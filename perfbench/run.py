"""landreg benchmark: one workload per process, end-to-end or traced.

Run from the root of a landreg checkout:

    python3 perfbench/run.py --workload sweep-square --seed 0 --seconds 40 --trace 0

The library is imported from ``src/`` of the working directory.  The run
prints a host record, every metric by name and unit, the correctness gate's
verdict, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("sweep-square", "register-cli", "scale-dense")

# Time of one pass with its correctness checks, measured on a 2-core x86_64
# host with 7 GB at the commit that defined the benchmark, and the time its
# five set-ups take.  A run makes floor((seconds - SETUP_ALLOWANCE_S) /
# nominal) passes, at least one, so that a run fits in --seconds and its work
# depends on --seconds alone: a faster commit does the same work sooner and
# its percentiles are taken over the same number of samples.
NOMINAL_PASS_S = {"sweep-square": 35.0, "register-cli": 3.2, "scale-dense": 13.5}
SETUP_ALLOWANCE_S = 5.0

# Set-ups per run: the run's own, plus SETUP_REPEATS - 1 in fresh interpreters.
SETUP_REPEATS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds it took, and exit")
    return parser.parse_args(argv)


def set_blas_threads() -> int:
    """Give BLAS one thread per available core; must run before numpy is imported.

    Not pinned to 1: with two threads OpenBLAS stalls ~8 ms in small
    triangular solves, and a benchmark pinned to one thread would hide that.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _blas_threads() -> dict:
    """Thread count reported by every OpenBLAS copy loaded in this process."""
    import ctypes
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                out[Path(path).name] = func()
                break
    return out


def host_record(nproc: int) -> dict:
    import platform

    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    finfo = np.finfo(np.longdouble)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "longdouble": {"bits": finfo.bits, "nmant": int(finfo.nmant),
                       "eps": float(finfo.eps), "precision": int(finfo.precision)},
    }


def tail(per_pass):
    """(value, label) of the tail of samples grouped by pass.

    The highest percentile with at least ten samples beyond it: the
    11th-largest pooled sample.  With ten samples or fewer no such percentile
    exists, and the tail is the median over passes of each pass's largest.
    """
    ordered = sorted(x for samples in per_pass for x in samples)
    n = len(ordered)
    if n <= 10:
        return (statistics.median(max(samples) for samples in per_pass),
                f"median of {len(per_pass)} per-pass maxima, {n} samples")
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"


def end_to_end(pass_ops, pass_walls, setup_s, peak_rss_mb):
    """{name: (value, unit, note)} for every end-to-end metric."""
    fit = [[1e3 * op.fit_s for op in ops] for ops in pass_ops]
    warp = [[1e3 * op.warp_s for op in ops] for ops in pass_ops]
    reg = [[1e3 * (op.fit_s + op.warp_s if op.reg_s is None else op.reg_s) for op in ops]
           for ops in pass_ops]
    metrics = {"wall_s": (statistics.median(pass_walls), "s", f"median of {len(pass_walls)} passes"),
               "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups, "
                                       f"{SETUP_REPEATS - 1} in fresh interpreters")}
    for name, per_pass in (("fit", fit), ("warp", warp), ("reg", reg)):
        pooled = [x for samples in per_pass for x in samples]
        metrics[f"{name}_p50_ms"] = (statistics.median(pooled), "ms", f"{len(pooled)} samples")
        value, note = tail(per_pass)
        metrics[f"{name}_tail_ms"] = (value, "ms", note)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", "ru_maxrss")
    return metrics


def import_library(root: Path) -> float:
    """Import landreg from ./src and the benchmark's modules; the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import landreg  # noqa: F401
    import spans  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - t0


@contextlib.contextmanager
def work_dir(workload: str):
    """A scratch directory under .bench_work/ in the working directory, removed on exit."""
    path = Path.cwd() / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass


def prepare(workload: str, seed: int, workdir: Path):
    """Generate the workload's inputs and warm up; (state, seconds)."""
    import workloads
    t0 = time.perf_counter()
    state = workloads.WORKLOADS[workload][0](seed, workdir)
    return state, time.perf_counter() - t0


def fresh_setups(workload: str, seed: int) -> list:
    """Set-up times (import + prepare) of SETUP_REPEATS - 1 fresh interpreters, one at a time."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout.split()[-1]))
    return times


def run_passes(workload: str, state, passes: int, tracer=None):
    """Run the timed passes on prepared inputs; returns a result dict."""
    import workloads

    run_pass = workloads.WORKLOADS[workload][1]
    if tracer is not None:
        tracer.install()
    gate = workloads.Gate()
    pass_ops, walls = [], []
    try:
        for _ in range(passes):
            watch = workloads.Stopwatch(tracer)
            pass_ops.append(run_pass(state, gate, watch))
            walls.append(watch.total)
    finally:
        if tracer is not None:
            tracer.restore()
    return {"pass_ops": pass_ops, "walls": walls, "gate": gate}


def measure(workload: str, seed: int, passes: int, tracer=None):
    """Prepare once, then run the passes.  The library must already be importable."""
    with work_dir(workload) as workdir:
        state, prepare_s = prepare(workload, seed, workdir)
        result = run_passes(workload, state, passes, tracer)
    result["prepare_s"] = prepare_s
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "landreg" / "__init__.py").is_file():
        print(f"error: no landreg sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    nproc = set_blas_threads()
    import_s = import_library(root)
    import landreg
    if not Path(landreg.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported landreg from {landreg.__file__}, not from ./src", file=sys.stderr)
        return 2
    if args.setup_only:
        with work_dir(args.workload) as workdir:
            print(import_s + prepare(args.workload, args.seed, workdir)[1])
        return 0
    import spans
    print("host " + json.dumps(host_record(nproc), sort_keys=True))

    passes = max(1, int((args.seconds - SETUP_ALLOWANCE_S) // NOMINAL_PASS_S[args.workload]))
    tracer = spans.Tracer() if args.trace else None
    result = measure(args.workload, args.seed, passes, tracer)
    import resource
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median([import_s + result["prepare_s"]]
                                + fresh_setups(args.workload, args.seed))

    gate = result["gate"]
    ops = [op for pass_ops in result["pass_ops"] for op in pass_ops]
    failed = sum(not op.ok for op in ops)
    failed_frac = failed / max(1, len(ops))
    metrics = end_to_end(result["pass_ops"], result["walls"], setup_s, peak_rss_mb)
    print(f"workload {args.workload} seed {args.seed} passes {passes} "
          f"ops {len(ops)} trace {args.trace}")
    prefix = "traced " if args.trace else ""
    for name, (value, unit, note) in metrics.items():
        print(f"  {prefix + name:<20} {value:14.6f} {unit:<3} ({note})")
    print(f"  {'failed_frac':<20} {failed_frac:14.6f} ratio "
          f"({failed} of {len(ops)} ops failed the correctness gate)")
    for failure in gate.failures[:20]:
        print(f"  FAILED {failure}")

    if tracer is not None:
        layer = tracer.layer_metrics(passes)
        layer["trace.wall_s"] = statistics.median(result["walls"])
        layer["failed_frac"] = failed_frac
        print("  span calls: " + json.dumps(tracer.calls(), sort_keys=True))
        for name, value in layer.items():
            print(f"  {name:<32} {value:18.6f} {spans.LAYER_METRICS[name][0]}")
        reported = {name: {"value": value, "unit": spans.LAYER_METRICS[name][0]}
                    for name, value in layer.items()}
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}
    print(json.dumps({"correct": failed == 0 and not gate.failures,
                      "attempted": len(ops), "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
