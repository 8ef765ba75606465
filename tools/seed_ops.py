"""Record and compare the results of every seed-case operation, bit for bit.

A seed-case operation builds one method of ``landreg.bench`` on one of its
seven cases at one parameter value (alpha in 0.2, 0.4, 1.2, 2.0 or c in 0.1,
0.2, 0.6, 1.0; tps and shep-tps take none) and evaluates it on the 40 x 40
default grid: 238 operations in all.  ``dump`` also records the three
scale-dense transforms of the benchmark at seed 0 (Wendland, TPS and
Shepard-TPS on N = 1000 landmarks and a 141 x 141 grid), whose inputs it
takes from ``perfbench/workloads.py``, loaded read-only.  It records
``regcli``'s emitted text too, so a change to the file formats is checked
byte for byte: for each seed case the landmark CSV of ``gen-case``, the
grid CSV of a ``tps`` solve and its ``render`` SVG with landmark markers,
then one ``sweep`` CSV and the ``real-life`` CSV.  Run from the root of a
checkout, with the landreg to record on the path:

    PYTHONPATH=src python3 tools/seed_ops.py dump OUT.npz
    python3 tools/seed_ops.py compare A.npz B.npz

``dump`` records, per operation, the grid output, the transform's values at
the source landmarks, the landmark residual, the condition estimate and the
rung it was accepted at, or the error message of a solve that failed.  A
Shepard transform records its nodal rungs joined as its rung, every
nodal interpolant's own solution (coefficients and tail, in the precision
of its rung; a double-double one as its stacked hi and lo words), residual,
condition estimate and rung, and the centre values L_j(x_j) its residual is
the maximum over.  A scale-dense transform records its grid output,
landmark values, residual and condition estimate, and the Shepard one its
centre values too.  ``compare``
lists every field whose bits differ, or that only one file has, and exits 1
if there is any; it needs numpy only.  For a float field of one shape in
both files it also prints max |a - b| and max |a|, so a change meant to
move values at rounding level can be read off the same report.  After the
list it prints one line per method (the first part of a field's name:
a method, ``regcli`` or ``blas``) with fields that moved: their count and
the largest max |a - b| among them.  An x87 80-bit longdouble is stored
in 12 or 16 bytes, of which only the first 10 carry the value; ``compare``
reads those and ignores the padding, which numpy leaves as whatever was in
memory.

OpenBLAS reads its thread count once, when numpy loads it, and a few
scale-dense fields move with it.  So a script run sets
OPENBLAS_NUM_THREADS=1 before numpy loads, unless the caller has set it,
and ``dump`` records the setting as the field ``blas|OPENBLAS_NUM_THREADS``
("unset" where it is not set): ``compare`` lists it for two dumps made at
different settings.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

VALUES = {"alpha": (0.2, 0.4, 1.2, 2.0), "c": (0.1, 0.2, 0.6, 1.0), None: (None,)}
WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
DENSE_SEED = 0
REGCLI_CONFIG = "kernel = tps\n"
REGCLI_SWEEP = ("square-shift-32", "w2-2d")


def operations():
    """(method, case, value) of every seed-case operation."""
    from landreg import bench
    for case in bench.CASE_KINDS:
        for method, param in bench.METHOD_PARAMETERS.items():
            for value in VALUES[param]:
                yield method, case, value


def _rung(transform) -> str:
    if hasattr(transform, "precision"):
        return transform.precision
    return ",".join(nf.interpolant.precision for nf in transform.nodal)


def _solution(interpolant) -> np.ndarray:
    z = interpolant._z
    return np.stack([z.hi, z.lo]) if interpolant.precision == "mp" else z


def _center_values(transform) -> np.ndarray:
    """L_j(x_j) of every node of a Shepard transform, as it computes them for its residual.

    A landreg from before ``shepard._center_values`` has the per-node
    ``_center_value``, so a dump of it can be compared with a newer one.
    """
    from landreg import shepard
    nodal, landmarks = transform.nodal, transform.landmarks
    if hasattr(shepard, "_center_values"):
        return shepard._center_values(nodal, landmarks)
    return np.array([shepard._center_value(nf, landmarks) for nf in nodal])


def _nodal_fields(transform) -> dict:
    """Each nodal interpolant's solution, residual, condition and rung, and every centre value."""
    nodal = [nf.interpolant for nf in getattr(transform, "nodal", ())]
    if not nodal:
        return {}
    fields = {f"nodal{j}_solution": _solution(t) for j, t in enumerate(nodal)}
    fields["nodal_residual"] = np.array([t.residual for t in nodal])
    fields["nodal_condition"] = np.array([t.condition for t in nodal])
    fields["nodal_rung"] = np.array([t.precision for t in nodal])
    fields["nodal_center"] = _center_values(transform)
    return fields


def record(method, case, value) -> dict:
    """The fields of one operation, as numpy arrays."""
    from landreg import bench
    from landreg.transform import SolveError
    landmarks, grid, _ = bench.gen_case(bench.CaseSpec(case))
    try:
        transform = bench.build_method(method, landmarks, case, value)
    except SolveError as exc:
        return {"error": np.array(str(exc))}
    return {
        "grid": transform(grid.points),
        "landmarks": transform(landmarks.sources),
        "residual": np.array(transform.residual),
        "condition": np.array(transform.condition),
        "rung": np.array(_rung(transform)),
        **_nodal_fields(transform),
    }


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def record_dense():
    """(method, fields) of each scale-dense transform at DENSE_SEED, as the benchmark builds it."""
    from landreg import bench
    from landreg.landmarks import LandmarkSet
    workloads = _workloads()
    sources, targets = workloads.dense_landmarks(DENSE_SEED)
    grid = bench.default_grid(workloads.DENSE_GRID, workloads.DENSE_GRID).points
    landmarks = LandmarkSet(sources, targets)
    for method, build in workloads.dense_methods(landmarks.n):
        transform = build(landmarks)
        fields = {
            "grid": transform(grid),
            "landmarks": transform(landmarks.sources),
            "residual": np.array(transform.residual),
            "condition": np.array(transform.condition),
        }
        if hasattr(transform, "nodal"):
            fields["nodal_center"] = _center_values(transform)
        yield method, fields


def record_regcli():
    """(label, fields) of regcli's emitted files, each field the file's bytes."""
    from landreg import bench
    from landreg.cli import cli_main

    with tempfile.TemporaryDirectory() as tmp:
        def emit(*argv) -> np.ndarray:
            out = Path(tmp) / "out"
            code = cli_main([*argv, "--out", str(out)])
            if code:
                raise RuntimeError(f"regcli {' '.join(argv)} exited {code}")
            return np.array(out.read_bytes())

        landmarks, config, grid = (str(Path(tmp) / name) for name in ("lm.csv", "tps.cfg", "grid.csv"))
        Path(config).write_text(REGCLI_CONFIG)
        for case in bench.CASE_KINDS:
            landmark_csv = emit("gen-case", "--case", case)
            Path(landmarks).write_bytes(landmark_csv.item())
            if cli_main(["solve", "--landmarks", landmarks, "--config", config, "--grid-out", grid]):
                raise RuntimeError(f"regcli solve on {case} failed")
            yield f"{case}|tps", {
                "landmark_csv": landmark_csv,
                "grid_csv": np.array(Path(grid).read_bytes()),
                "svg": emit("render", "--grid", grid, "--landmarks", landmarks),
            }
        case, method = REGCLI_SWEEP
        yield f"{case}|{method}", {"sweep_csv": emit("sweep", "--case", case, "--method", method,
                                                     "--reference", "identity")}
        yield "real-life|report", {"real_life_csv": emit("real-life")}


def dump(path: str) -> int:
    fields = {"blas|OPENBLAS_NUM_THREADS": np.array(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))}
    for method, case, value in operations():
        for name, array in record(method, case, value).items():
            fields[f"{method}|{case}|{value}|{name}"] = array
    for method, dense_fields in record_dense():
        for name, array in dense_fields.items():
            fields[f"{method}|scale-dense|{DENSE_SEED}|{name}"] = array
    for label, text_fields in record_regcli():
        for name, array in text_fields.items():
            fields[f"regcli|{label}|{name}"] = array
    np.savez(path, **fields)
    print(f"{len(fields)} fields of {len(list(operations()))} seed-case operations"
          f", the scale-dense transforms and regcli's files -> {path}")
    return 0


def _significant_bytes(array) -> bytes:
    """The bytes of an array's values: an x87 extended value drops its padding."""
    dtype = array.dtype
    if dtype.kind == "f" and dtype.itemsize > 10 and np.finfo(dtype).nmant == 63:
        raw = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        return raw.reshape(-1, dtype.itemsize)[:, :10].tobytes()   # little-endian: value first
    return array.tobytes()


def _same(a, b) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and _significant_bytes(a) == _significant_bytes(b))


def _gap(a, b):
    """(max |a - b|, max |a|) of two float fields of one shape, or None."""
    if a.dtype.kind != "f" or b.dtype.kind != "f" or a.shape != b.shape or not a.size:
        return None
    diff = np.abs(a.astype(np.longdouble) - b.astype(np.longdouble)).max()
    return float(diff), float(np.abs(a).max())


def compare(path_a: str, path_b: str) -> int:
    moved = {}        # method -> the max |a - b| of each of its fields that differ, or None
    with np.load(path_a) as a, np.load(path_b) as b:
        keys = sorted(set(a.files) | set(b.files))
        for key in keys:
            gap = None
            if key not in a.files or key not in b.files:
                print(f"{key}: only in {path_a if key in a.files else path_b}")
            elif not _same(a[key], b[key]):
                gap = _gap(a[key], b[key])
                extra = "" if gap is None else f", max |a - b| {gap[0]:.3e}, max |a| {gap[1]:.3e}"
                print(f"{key}: differs{extra}")
            else:
                continue
            moved.setdefault(key.split("|")[0], []).append(None if gap is None else gap[0])
    differ = sum(map(len, moved.values()))
    print(f"{differ} of {len(keys)} fields differ")
    for method, gaps in sorted(moved.items()):
        gaps = [gap for gap in gaps if gap is not None]
        largest = f", max |a - b| {max(gaps):.3e}" if gaps else ""
        print(f"{method}: fields moved {len(moved[method])}{largest}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump", help="record every seed-case operation").add_argument("out")
    cmp = sub.add_parser("compare", help="list the fields that differ between two dumps")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
