"""Self-test of the benchmark's tracing and gate.  Takes about two minutes.

Run from the root of a landreg checkout:

    python3 perfbench/selftest.py

Checks, each printed as one PASS/FAIL line:
  * BENCHMARK.json lists exactly the metrics this benchmark emits;
  * every span fires (>= 1 call) on the workload whose arrow names it;
  * the precision ladder's spans record 0 calls on register-cli at seed 0;
  * rung counts repeat exactly between two traced sweep-square runs;
  * after each traced run every wrapped attribute is the original object;
  * no operation fails the correctness gate, traced or not.
It also reports the tracing overhead: traced wall_s minus untraced wall_s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

run.set_blas_threads()
sys.path.insert(0, str(Path.cwd() / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SWEEP, CLI, DENSE = run.WORKLOAD_NAMES

# span name -> workloads on which it must fire.  kernels.eval_univariate and
# lobachevsky.eval_spline evaluate tensor-product kernels, which scale-dense
# does not build; they are held to the workloads that do.
ARROWS = {
    "precision.mp_eval": (SWEEP,),
    "precision.mp_solve": (SWEEP,),
    "precision.lu80_factor": (SWEEP,),
    "precision.lu80_solve": (SWEEP,),
    "transform.eval80": (SWEEP,),
    "transform.eval_mp": (SWEEP,),
    "transform.solve": (SWEEP, CLI, DENSE),
    "transform.assemble": (SWEEP, CLI, DENSE),
    "transform.lu64": (SWEEP, CLI, DENSE),
    "transform.cond_est": (SWEEP, CLI, DENSE),
    "transform.refine": (SWEEP, CLI, DENSE),
    "transform.eval64": (SWEEP, CLI, DENSE),
    "kernels.eval_radial": (DENSE,),
    "kernels.eval_univariate": (SWEEP, CLI),
    "lobachevsky.eval_spline": (SWEEP, CLI),
    "landmarks.init": (DENSE,),
    "shepard.radii": (DENSE,),
    "shepard.weights": (DENSE,),
    "shepard.nodal_build": (DENSE,),
    "shepard.nodal_solve": (DENSE,),
    "shepard.evaluate": (SWEEP, DENSE),
    "io.parse": (CLI,),
    "io.emit": (CLI,),
    "cli.main": (CLI,),
    "bench.gen_case": (SWEEP,),
    "bench.rmse": (SWEEP,),
}
LADDER_SPANS = ("precision.mp_eval", "precision.mp_solve",
                "precision.lu80_factor", "precision.lu80_solve")


class Report:
    def __init__(self):
        self.failed = 0

    def line(self, ok: bool, what: str, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {what}" + (f": {detail}" if detail and not ok else ""))
        self.failed += not ok


def traced(workload: str, report: Report):
    """One traced pass at seed 0; checks the gate and that attributes come back."""
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in spans.WRAPS}
    tracer = spans.Tracer()
    result = run.measure(workload, 0, 1, tracer)
    back = [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), original in originals.items() if owner.__dict__[attr] is not original]
    report.line(not back, f"{workload}: every wrapped attribute restored", back)
    report.line(not result["gate"].failures, f"{workload}: traced pass passes the gate",
                result["gate"].failures[:5])
    return tracer, result["walls"][0]


def main() -> int:
    report = Report()
    declared = json.loads(Path("BENCHMARK.json").read_text())
    report.line({m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
                == spans.LAYER_METRICS, "BENCHMARK.json per_layer matches the traced metrics")
    report.line([m["name"] for m in declared["end_to_end"]]
                == ["wall_s", "setup_s", "fit_p50_ms", "fit_tail_ms", "warp_p50_ms",
                    "warp_tail_ms", "reg_p50_ms", "reg_tail_ms", "peak_rss_mb"],
                "BENCHMARK.json end_to_end matches the untraced metrics")
    report.line([w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES),
                "BENCHMARK.json names the three workloads")

    calls, rungs = {}, []
    for workload in run.WORKLOAD_NAMES:
        plain = run.measure(workload, 0, 1)
        report.line(not plain["gate"].failures, f"{workload}: untraced pass passes the gate",
                    plain["gate"].failures[:5])
        tracer, traced_wall = traced(workload, report)
        calls[workload] = tracer.calls()
        print(f"     {workload}: tracing overhead {traced_wall - plain['walls'][0]:+.3f} s "
              f"(traced wall_s {traced_wall:.3f} s, untraced {plain['walls'][0]:.3f} s, "
              f"{len(tracer.spans)} spans)")
        if workload == SWEEP:
            rungs.append([s[5] for s in tracer.spans if s[0] == "transform.solve"])
            again, _ = traced(workload, report)
            rungs.append([s[5] for s in again.spans if s[0] == "transform.solve"])

    for name, where in ARROWS.items():
        silent = [w for w in where if calls[w].get(name, 0) < 1]
        report.line(not silent, f"span {name} fires on {', '.join(where)}", f"silent on {silent}")
    ladder = {name: calls[CLI].get(name, 0) for name in LADDER_SPANS}
    report.line(not any(ladder.values()), "precision spans record 0 calls on register-cli, seed 0",
                ladder)
    histogram = {rung: rungs[0].count(rung) for rung in ("double", "longdouble", "mp")}
    report.line(rungs[0] == rungs[1], f"rung counts repeat between two traced runs {histogram}")
    print(f"{report.failed} check(s) failed")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
