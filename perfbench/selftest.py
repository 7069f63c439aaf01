"""Self-tests of the benchmark.

Run from the root of a checkout (takes about two minutes):

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pencils  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Operations per smoke pass (None: all).  One large-n entry takes about 15 s.
SMOKE_OPS = {"catalog-cli": None, "pencil-corpus": 16, "large-n": 1}

# For each count or time a layer reports: the workload on which it must be
# non-zero at this commit.  Metrics missing here can be 0 today
# (poly_gcd.budget_exceeded, rf_equal.calls), or are ratios.
EXERCISED = {
    "poly.mul.calls": "catalog-cli",
    "poly.mul.self_s": "catalog-cli",
    "poly.divide_exact.calls": "catalog-cli",
    "poly.poly_gcd.calls": "catalog-cli",
    "poly.poly_gcd.self_s": "catalog-cli",
    "poly.rf_new.self_s": "catalog-cli",
    "poly.rf_new.unreduced": "catalog-cli",
    "matrices.determinant.calls": "catalog-cli",
    "matrices.adjugate_det.self_s": "catalog-cli",
    "matrices.matrix_inverse.self_s": "catalog-cli",
    "geometry.levi_civita.self_s": "catalog-cli",
    "geometry.flatness_witness.calls": "catalog-cli",
    "geometry.flatness_witness.self_s": "catalog-cli",
    "geometry.obstruction_tensor.self_s": "catalog-cli",
    "geometry.nijenhuis_torsion.self_s": "pencil-corpus",
    "geometry.killing_residual.self_s": "pencil-corpus",
    "verify.mokhov_conditions.s": "pencil-corpus",
    "verify.theorem2_conditions.s": "pencil-corpus",
    "pointcheck.sample_points.self_s": "large-n",
    "pointcheck.frame.calls": "large-n",
    "pointcheck.obstruction_at.self_s": "large-n",
    "pointcheck.flat_at.self_s": "large-n",
    "spectral.segre_of_spec.s": "catalog-cli",
    "roots.rational_roots.self_s": "catalog-cli",
    "linsolve.rref.calls": "catalog-cli",
    "specfile.load_operator_spec.self_s": "catalog-cli",
    "catalog.build_s": "catalog-cli",
    "trace.overhead_ratio": "catalog-cli",
}


def test_generator_is_deterministic():
    def dumped(seed):
        return [(p.name, p.kind, p.expected, json.dumps(pencils.dump_operator_spec(p.spec)))
                for p in pencils.make_pencils(seed)]

    first = dumped(5)
    assert first == dumped(5)
    assert first != dumped(6)
    kinds = [k for _, k, _, _ in first]
    assert {k: kinds.count(k) for k in pencils.KINDS} == {
        k: sum(c[k] for c in pencils.CORPUS.values()) for k in pencils.KINDS
    }


def test_manifest_records_kind_and_expected_verdict(tmp_path):
    manifest = pencils.write_corpus(str(tmp_path), 3)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == {"seed": 3, "pencils": manifest}
    for m in manifest:
        assert (tmp_path / m["file"]).is_file()
        assert m["expected"] == pencils.EXPECTED[m["kind"]]


def test_every_binding_of_a_target_is_wrapped():
    import hamop  # noqa: F401  (loads every hamop module)
    import hamop.cli  # noqa: F401

    t = tracer.Tracer()
    originals = {id(tracer._resolve(m, p)[2]) for _, m, p, _ in tracer.TARGETS}
    with t:
        assert ("hamop.matrices", "divide_exact") in t.bindings()
        assert ("MultiPoly", "__rmul__") in t.bindings()
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "hamop" or name.startswith("hamop.")):
                continue
            spaces = [module] + [v for v in vars(module).values() if isinstance(v, type)]
            for space in spaces:
                for key, value in vars(space).items():
                    assert id(value) not in originals, f"{name}: {key} left unwrapped"
    for _, m, p, _ in tracer.TARGETS:
        owner, attr, value = tracer._resolve(m, p)
        assert not hasattr(value, "__wrapped__"), f"{m}.{p} not restored"


def test_gate_rejects_wrong_results():
    op = workloads.Op("x", "x.json", "pass", "[2]")
    good = json.dumps({"verdict": "pass", "conditions": [], "segre": {"segre_type": "[2]"}})
    assert workloads.check(op, 0, good)[0] is None
    assert workloads.check(op, 3, "")[0] == "exit code 3"
    assert "expected pass" in workloads.check(op, 1, good.replace('"pass"', '"fail"'))[0]
    wrong_segre = good.replace('"[2]"', '"[1]+[1]"')
    assert "segre type" in workloads.check(op, 0, wrong_segre)[0]
    free = workloads.Op("y", "y.json", None)
    no_witness = json.dumps({"verdict": "fail", "conditions": [{"name": "T1", "pass": False}]})
    assert "witness" in workloads.check(free, 1, no_witness)[0]
    gate = workloads.Gate()
    gate.record(op, 0, good)
    gate.record(op, 0, good + " ")
    assert gate.errors == [("x", "JSON differs from the same input's earlier result")]


def test_repeat_sample_takes_a_share_of_the_pass():
    ops = [workloads.Op(f"op{k}", f"op{k}.json", "pass") for k in range(4)]
    assert run.repeat_sample(ops, [["a", 10.0], ["b", 10.0], ["c", 10.0], ["d", 70.0]]) == ops[:2]
    assert run.repeat_sample(ops, [["a", 90.0], ["b", 4.0], ["c", 4.0], ["d", 2.0]]) == ops[1:]
    assert run.repeat_sample(ops[:2], [["a", 50.0], ["b", 50.0]]) == []


def test_untraced_run_compares_repeated_outputs(monkeypatch):
    """An untraced run verifies some inputs twice and counts a result that
    differs from the first one (here: one trailing blank) as wrong."""
    from hamop import cli

    original, seen = cli.main, set()

    def drifting(argv):
        rc = original(argv)
        if argv[1] in seen:
            sys.stdout.write(" ")
        seen.add(argv[1])
        return rc

    monkeypatch.setattr(cli, "main", drifting)
    record = run.measure("catalog-cli", seed=11, seconds=0, trace=False, limit=8)
    repeated = record["result"]["attempted"] - 8
    assert repeated >= 1
    assert record["result"]["failed"] == repeated
    assert {why for _, why in record["errors"]} == {
        "JSON differs from the same input's earlier result"}


def _busy(n: int = 100_000) -> None:
    d = {}
    for k in range(n):
        d[k % 64] = Fraction(k, 7) * Fraction(3, k + 1)


def test_scaled_time_follows_an_injected_slowdown(tmp_path, monkeypatch):
    """The host-speed scale must not absorb a slowdown of hamop itself.  Each
    ``verify_operator`` call is made to run ``_busy`` first, with a larger
    heap in the process as well; the scaled pass time must rise by what
    ``_busy`` costs at reference speed, measured on its own."""
    from hamop import cli

    ops = workloads.build("catalog-cli", 11, str(tmp_path))[:10]
    with speed.SpeedProbe() as probe:
        _, base, _, _ = run.run_pass(ops, workloads.Gate(), probe)
        ballast = [[k] for k in range(200_000)]  # noqa: F841  (kept alive)
        mark, t0 = probe.mark(), time.perf_counter()
        for _ in ops:
            _busy()
        injected = (time.perf_counter() - t0) * probe.scale(mark)
        original = cli.verify_operator

        def slowed(*args, **kwargs):
            _busy()
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_operator", slowed)
        _, slow, _, _ = run.run_pass(ops, workloads.Gate(), probe)
    rise = slow - base
    assert 0.85 * injected < rise < 1.2 * injected, (base, slow, injected)


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run per workload: {workload: record}."""
    return {w: run.measure(w, seed=11, seconds=0, trace=True, limit=SMOKE_OPS[w])
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_has_no_errors(traced, workload):
    result = traced[workload]["result"]
    per_pass = traced[workload]["operations_per_pass"]
    assert per_pass == SMOKE_OPS[workload] or SMOKE_OPS[workload] is None
    assert result["attempted"] == 2 * per_pass  # one untraced and one traced pass
    assert result["failed"] == 0 and result["correct"], traced[workload]["errors"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(traced, workload):
    metrics = traced[workload]["result"]["metrics"]
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    for name, unit in run.PER_LAYER:
        assert metrics[name]["unit"] == unit
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and value >= 0
        if EXERCISED.get(name) == workload:
            assert value > 0, f"{name} is 0 on {workload}"


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
