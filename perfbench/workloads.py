"""The benchmark's workloads and the correctness gate for their operations.

Every operation is one in-process ``hamop verify <spec>.json --output json``.
Spec files are written during set-up, so each operation parses a fresh
``LinearMetric`` and no geometry cache carries over between operations.  The
seed fixes the inputs: the pencils of ``pencil-corpus`` and the order of the
operations in every workload.  hamop's own ``--seed`` stays at its default.

Why these three:

* ``catalog-cli``: every catalog entry with n <= 5 in symbolic mode.  All of
  them pass, so the full identity scans and the Segre payload run to the end.
* ``pencil-corpus``: seeded pencils at n = 2 and 3, about half failing.  The
  same layers as ``catalog-cli`` but used differently: the two-point
  screen, the numerator T-scans and early exits with witnesses.
* ``large-n``: the two n = 6 entries that ``default_mode`` sends to sampled
  mode, the one workload where ``pointcheck`` does most of the work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from hamop.catalog import catalog, get_entry
from hamop.specfile import default_param_values, dump_operator_spec, specialize_spec
from hamop.spectral import format_segre_type

import pencils

WORKLOADS = ("catalog-cli", "pencil-corpus", "large-n")
CATALOG_MAX_N = 5
LARGE_N_IDS = ("mokhov-n6", "thm7-n6-a4")


@dataclass(frozen=True)
class Op:
    name: str
    path: str
    expected: str | None  # "pass", or None when only the criteria's agreement is known
    segre: str | None = None  # expected formatted Segre type


def _write_spec(directory: str, name: str, spec) -> str:
    path = os.path.join(directory, name + ".json")
    with open(path, "w") as fh:
        json.dump(dump_operator_spec(spec), fh, indent=1)
    return path


def _catalog_ops(directory: str, entries) -> list[Op]:
    ops = []
    for e in entries:
        values = default_param_values(e.spec)
        spec = specialize_spec(e.spec, values) if values else e.spec
        segre = format_segre_type(e.expected_segre) if e.expected_segre else None
        ops.append(Op(e.id, _write_spec(directory, e.id, spec), "pass", segre))
    return ops


def build(workload: str, seed: int, directory: str) -> list[Op]:
    """Write the workload's spec files into ``directory`` and return its
    operations in the seed's order."""
    os.makedirs(directory, exist_ok=True)
    if workload == "catalog-cli":
        ops = _catalog_ops(directory, [e for e in catalog() if e.n <= CATALOG_MAX_N])
    elif workload == "large-n":
        ops = _catalog_ops(directory, [get_entry(i) for i in LARGE_N_IDS])
    elif workload == "pencil-corpus":
        manifest = pencils.write_corpus(directory, seed)
        ops = [Op(m["name"], os.path.join(directory, m["file"]), m["expected"])
               for m in manifest]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(ops)
    return ops


def check(op: Op, rc, out: str) -> tuple[str | None, dict | None]:
    """(why the operation's result is wrong or None when it is right, the
    parsed report or None)."""
    if rc not in (0, 1):
        return f"exit code {rc}", None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as ex:
        return f"output is not JSON: {ex}", None
    verdict = report.get("verdict")
    if verdict != ("pass" if rc == 0 else "fail"):
        return f"exit code {rc} with verdict {verdict!r}", report
    if op.expected is not None and verdict != op.expected:
        return f"verdict {verdict}, expected {op.expected}", report
    failing = [c for c in report["conditions"]
               if not c["pass"] and not c.get("informational")]
    if verdict == "fail" and not failing:
        return "failing verdict without a failing condition", report
    if any("witness" not in c for c in failing):
        return "failing condition without a witness", report
    if op.segre is not None:
        got = (report.get("segre") or {}).get("segre_type")
        if got != op.segre:
            return f"segre type {got}, expected {op.segre}", report
    return None, report


class Gate:
    """Correctness gate over every operation of a run."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[tuple[str, str]] = []
        self._first_output: dict[str, str] = {}

    def record(self, op, rc, out: str) -> dict | None:
        self.attempted += 1
        reason, report = check(op, rc, out)
        first = self._first_output.setdefault(op.path, out)
        if reason is None and out != first:
            reason = "JSON differs from the same input's earlier result"
        if reason is not None:
            self.errors.append((op.name, reason))
        return report
