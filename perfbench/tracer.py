"""Span tracer that wraps hamop's public functions from outside the library.

``Tracer.install()`` replaces each target in *every* binding under which the
library can reach it: the defining module, each ``hamop.*`` module that did
``from .x import name`` (for example ``divide_exact`` in ``matrices``), the
package namespace, and class attributes (``MultiPoly.__rmul__`` is the same
function as ``__mul__``).  ``uninstall()`` puts the originals back.

Each call of a wrapped function records one span: name, start, end, parent
span and operation id, plus a small outcome flag (see ``TARGETS``).  Spans are
kept in typed arrays in memory and written out by ``dump``.  A span's self
time is its duration minus the durations of its child spans; wrapped calls
nest strictly on one thread, so children never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

RAISED = 2  # flag of a span whose call raised


def _not_none(args, result) -> int:
    return result is not None


def _unreduced(args, result) -> int:
    return not args[0].reduced


# (span name, module, attribute path, outcome flag of a normal return)
TARGETS = (
    ("cli.main", "hamop.cli", "main", None),
    ("specfile.load_operator_spec", "hamop.specfile", "load_operator_spec", None),
    ("verify.verify_operator", "hamop.verify", "verify_operator", None),
    ("verify.mokhov_conditions", "hamop.verify", "mokhov_conditions", None),
    ("verify.theorem2_conditions", "hamop.verify", "theorem2_conditions", None),
    ("poly.mul", "hamop.poly", "MultiPoly.__mul__", None),
    ("poly.divide_exact", "hamop.poly", "divide_exact", _not_none),
    ("poly.poly_gcd", "hamop.poly", "poly_gcd", None),
    ("poly.rf_new", "hamop.poly", "RationalFunction.__init__", _unreduced),
    ("poly.rf_equal", "hamop.poly", "rf_equal", None),
    ("matrices.determinant", "hamop.matrices", "determinant", None),
    ("matrices.adjugate_det", "hamop.matrices", "adjugate_det", None),
    ("matrices.matrix_inverse", "hamop.matrices", "matrix_inverse", None),
    ("geometry.levi_civita", "hamop.geometry", "levi_civita", None),
    ("geometry.flatness_witness", "hamop.geometry", "flatness_witness", None),
    ("geometry.obstruction_tensor", "hamop.geometry", "obstruction_tensor", None),
    ("geometry.nijenhuis_torsion", "hamop.geometry", "nijenhuis_torsion", None),
    ("geometry.killing_residual", "hamop.geometry", "killing_residual", None),
    ("pointcheck.sample_points", "hamop.pointcheck", "sample_points", None),
    ("pointcheck.frame", "hamop.pointcheck", "PointFrame.__init__", None),
    ("pointcheck.frame_cache", "hamop.pointcheck", "FrameCache.frame", None),
    ("pointcheck.obstruction_at", "hamop.pointcheck", "obstruction_at", None),
    ("pointcheck.flat_at", "hamop.pointcheck", "flat_at", None),
    ("spectral.segre_of_spec", "hamop.spectral", "segre_of_spec", None),
    ("roots.rational_roots", "hamop.roots", "rational_roots", None),
    ("linsolve.rref", "hamop.linsolve", "rref", None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans of the ``TARGETS`` while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("H")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.op = 0  # operation id stamped on new spans
        self._stack = [-1]  # open spans, shared by every wrapper
        self._saved = []  # (namespace owner, attribute, original)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "hamop" or k.startswith("hamop.")) and m is not None]
        for nid, (name, module, path, outcome) in enumerate(TARGETS):
            owner, attr, original = _resolve(module, path)
            wrapper = self._wrap(nid, original, outcome)
            # every other binding of the same function object: module
            # globals and aliases in the same class body
            spaces = [owner] + [m for m in modules if m is not owner]
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._saved.append((space, key, original))
                        setattr(space, key, wrapper)

    def uninstall(self) -> None:
        for space, key, original in reversed(self._saved):
            setattr(space, key, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def bindings(self) -> list[tuple[str, str]]:
        """(namespace, attribute) of every binding replaced by ``install``."""
        return [(getattr(s, "__qualname__", None) or s.__name__, k)
                for s, k, _ in self._saved]

    def _wrap(self, nid: int, fn, outcome):
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, flag = self.start, self.end, self.flag
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            flag.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                flag[i] = RAISED
                stack.pop()
                raise
            end[i] = clock()
            stack.pop()
            if outcome is not None and outcome(args, result):
                flag[i] = 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, the number
        of spans with outcome flag 1 and with RAISED, and the parents' names.
        Inclusive seconds count a span nested in a span of the same name
        twice; none of the inclusive metrics the benchmark reports nests."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "flagged": 0, "raised": 0,
                      "child_of": {}}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            if self.flag[i] == 1:
                rec["flagged"] += 1
            elif self.flag[i] == RAISED:
                rec["raised"] += 1
            p = self.parent[i]
            if p >= 0:
                pname = self.names[self.name_id[p]]
                rec["child_of"][pname] = rec["child_of"].get(pname, 0) + 1
        return out

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON columns (times relative to the
        first span, in seconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "op", "start", "end", "flag"],
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op_id.tolist(),
            "start": [round(x - t0, 7) for x in self.start],
            "end": [round(x - t0, 7) for x in self.end],
            "flag": self.flag.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))
