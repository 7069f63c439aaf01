"""The repository's benchmark: ``hamop verify`` end to end, and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-cli --seed 1 --seconds 15 --trace 0

Each run is one process, one workload and one operation at a time in a closed
loop: the next ``verify`` starts when the previous one has returned.  It
repeats whole passes over the workload's operations until ``--seconds`` have
passed (at least one pass), and checks every result against its known answer
(see ``workloads.check``); a result that differs byte for byte from the same
input's result in an earlier pass of the run is wrong as well.  Since a run
usually makes one pass, an untraced run then verifies a seeded sample of the
operations once more, outside the measured time: operations in the seed's
order that fit in ``REPEAT_SHARE`` of a pass.  A traced run compares its
traced pass instead.  ``large-n`` has two operations of half a pass each, so
only its traced runs make the comparison; repeating one would add half a pass
to every run.

Every reported time is scaled to a reference host speed measured while it
ran (see ``speed``): on a shared host the raw times of the same pass differ by
up to 1.8x from one minute to the next.  The raw times and the scales are
printed on the line before the result and kept in the record file.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it then makes one more pass with every layer wrapped by ``tracer.Tracer`` and
reports the per-layer metrics instead; the spans go to
``.perfbench_out/trace-<workload>-seed<seed>.json.gz``.  End-to-end numbers
always come from untraced passes.

The last line of standard output is the result object; the two lines before
it are the environment record and the raw (unscaled) figures.  All three are
also written to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
REPEAT_SHARE = 0.25  # of a pass, verified again for the byte-identical check

END_TO_END = (
    ("wall_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p75_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# ``<span>.calls``, ``<span>.self_s`` and ``<span>.s`` (inclusive) come
# straight from the trace summary; the others are derived in layer_metrics.
PER_LAYER = (
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.divide_exact.calls", "count"),
    ("poly.divide_exact.hit_ratio", "ratio"),
    ("poly.poly_gcd.calls", "count"),
    ("poly.poly_gcd.self_s", "s"),
    ("poly.poly_gcd.budget_exceeded", "count"),
    ("poly.rf_new.self_s", "s"),
    ("poly.rf_new.unreduced", "count"),
    ("poly.rf_equal.calls", "count"),
    ("matrices.determinant.calls", "count"),
    ("matrices.adjugate_det.self_s", "s"),
    ("matrices.matrix_inverse.self_s", "s"),
    ("geometry.levi_civita.self_s", "s"),
    ("geometry.flatness_witness.calls", "count"),
    ("geometry.flatness_witness.self_s", "s"),
    ("geometry.obstruction_tensor.self_s", "s"),
    ("geometry.nijenhuis_torsion.self_s", "s"),
    ("geometry.killing_residual.self_s", "s"),
    ("verify.mokhov_conditions.s", "s"),
    ("verify.theorem2_conditions.s", "s"),
    ("pointcheck.sample_points.self_s", "s"),
    ("pointcheck.frame.calls", "count"),
    ("pointcheck.frame_cache.hit_ratio", "ratio"),
    ("pointcheck.obstruction_at.self_s", "s"),
    ("pointcheck.flat_at.self_s", "s"),
    ("spectral.segre_of_spec.s", "s"),
    ("spectral.inconsistent", "count"),
    ("roots.rational_roots.self_s", "s"),
    ("linsolve.rref.calls", "count"),
    ("specfile.load_operator_spec.self_s", "s"),
    ("catalog.build_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "gmpy2": find_spec("gmpy2") is not None,
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup() -> list[dict]:
    """Time ``import hamop.cli`` plus ``catalog()`` in ``SETUP_REPS`` cold
    interpreters, one after the other."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def run_pass(ops, gate, probe, tracer=None) -> tuple[float, float, list[float], list]:
    """One pass over ``ops``: (raw wall seconds, wall seconds and per-operation
    ms at reference host speed, reports).  Each operation is scaled by the
    speed samples taken while it ran."""
    from hamop import cli

    results, spans = [], []
    pass_mark = probe.mark()
    t_pass = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        out = io.StringIO()
        mark = probe.mark()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["verify", op.path, "--output", "json"])
        except Exception as ex:  # an escaped exception is a wrong result
            rc = f"exception {type(ex).__name__}: {ex}"
        spans.append((time.perf_counter() - t0, mark, probe.mark()))
        results.append((op, rc, out.getvalue()))
    wall = time.perf_counter() - t_pass
    scaled_wall = wall * probe.scale(pass_mark)
    ms = [dt * 1000.0 * probe.scale(m0, m1) for dt, m0, m1 in spans]
    reports = [gate.record(op, rc, text) for op, rc, text in results]
    return wall, scaled_wall, ms, reports


def repeat_sample(ops, first_pass_ms) -> list:
    """Operations of the pass, in the seed's order, that fit in
    ``REPEAT_SHARE`` of it; ``first_pass_ms`` holds their [name, ms]."""
    budget = REPEAT_SHARE * sum(ms for _, ms in first_pass_ms)
    sample, spent = [], 0.0
    for op, (_, ms) in zip(ops, first_pass_ms):
        if spent + ms <= budget:
            sample.append(op)
            spent += ms
    return sample


def layer_metrics(summary: dict, reports: list, setup: list[dict], scale: float,
                  overhead: float) -> dict:
    """Per-layer metrics of a traced pass; span times are multiplied by the
    pass's host-speed ``scale``."""

    def derived(name: str):
        if name == "poly.divide_exact.hit_ratio":
            rec = summary["poly.divide_exact"]
            return rec["flagged"] / rec["calls"] if rec["calls"] else 0.0
        if name == "poly.poly_gcd.budget_exceeded":
            return summary["poly.poly_gcd"]["raised"]
        if name == "poly.rf_new.unreduced":
            return summary["poly.rf_new"]["flagged"]
        if name == "pointcheck.frame_cache.hit_ratio":
            calls = summary["pointcheck.frame_cache"]["calls"]
            misses = summary["pointcheck.frame"]["child_of"].get("pointcheck.frame_cache", 0)
            return (calls - misses) / calls if calls else 0.0
        if name == "spectral.inconsistent":
            return sum(1 for r in reports
                       if r is not None and (r.get("segre") or {}).get("consistent") is False)
        if name == "catalog.build_s":
            return statistics.median(s["catalog_s"] * s["scale"] for s in setup)
        if name == "trace.overhead_ratio":
            return overhead
        span, field = name.rsplit(".", 1)
        return summary[span][field] * (1 if field == "calls" else scale)

    return {name: {"value": derived(name), "unit": unit} for name, unit in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    """One benchmark run; ``limit`` keeps only the first operations (self-tests)."""
    import speed
    import tracer as tracing
    import workloads

    os.environ.pop("HAMOP_SEED", None)  # hamop's own seed stays at its default
    setup = measure_setup()
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    try:
        ops = workloads.build(workload, seed, str(work))[:limit]
        gate = workloads.Gate()
        raw_walls, walls, op_ms = [], [], []
        with speed.SpeedProbe() as probe:
            t_start = time.perf_counter()
            while not walls or time.perf_counter() - t_start < seconds:
                raw, wall, ms, _ = run_pass(ops, gate, probe)
                raw_walls.append(raw)
                walls.append(wall)
                op_ms.extend([op.name, x] for op, x in zip(ops, ms))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace:
                t = tracing.Tracer()
                with t:
                    raw, traced_wall, _, reports = run_pass(ops, gate, probe, t)
                scale, overhead = traced_wall / raw, traced_wall / statistics.median(walls)
            else:
                run_pass(repeat_sample(ops, op_ms[:len(ops)]), gate, probe)
        if trace:
            metrics = layer_metrics(t.summary(), reports, setup, scale, overhead)
            t.dump(str(outdir / f"trace-{workload}-seed{seed}.json.gz"))
        else:
            ms = [x for _, x in op_ms]
            metrics = {
                "wall_s": statistics.median(walls),
                "verdict_p50_ms": statistics.median(ms),
                "verdict_p75_ms": statistics.quantiles(ms, n=4, method="inclusive")[2]
                if len(ms) > 1 else ms[0],
                "ok_ratio": 1.0 - len(gate.errors) / gate.attempted,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(
                    (s["import_s"] + s["catalog_s"]) * s["scale"] for s in setup),
            }
            metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not gate.errors,
        "attempted": gate.attempted,
        "failed": len(gate.errors),
        "metrics": metrics,
    }
    record = {
        "env": environment(),
        "raw": {
            "wall_s": statistics.median(raw_walls),
            "pass_scale": [w / r for w, r in zip(walls, raw_walls)],
            "setup_s": statistics.median(s["import_s"] + s["catalog_s"] for s in setup),
        },
        "workload": workload,
        "seed": seed,
        "passes": len(walls),
        "pass_wall_s": walls,
        "raw_pass_wall_s": raw_walls,
        "setup_probes": setup,
        "operations_per_pass": len(ops),
        "operation_ms": op_ms,
        "errors": gate.errors,
        "result": result,
    }
    with open(outdir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hamop verify benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hamop" / "__init__.py").is_file():
        print(f"error: no hamop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, reason in record["errors"][:20]:
        print(f"wrong: {name}: {reason}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    print("raw " + json.dumps(record["raw"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
