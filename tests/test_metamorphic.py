"""Metamorphic oracle: an affine change of the dependent variables.

Under u = P v + c, with P a unimodular integer matrix and c an integer
shift, a contravariant metric becomes g'(v) = P^-1 g(P v + c) P^-T: a
constant g stays constant and a linear h stays linear.  Flatness, T1..T5,
linearity in flat coordinates, Nijenhuis torsion and the Killing condition
are tensorial, and the Segre type is a pointwise invariant of the affinor,
so ``hamop verify`` must give the same verdict and the same pass / fail per
condition, and ``hamop classify`` the same exit code and Segre type, on
every transformed spec.  Witnesses move with the coordinates and are not
compared.
"""

import contextlib
import functools
import io
import json
import os
import random
import tempfile

import pytest

from hamop import pointcheck as pc
from hamop import verify as vf
from hamop.catalog import catalog, get_entry
from hamop.cli import main
from hamop.linsolve import inverse
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.poly import MultiPoly
from hamop.specfile import default_param_values, dump_operator_spec, specialize_spec

from conftest import corpus_pairs, refuse_symbolic_work


def _unimodular(n: int, rng) -> list[list[int]]:
    """Seeded integer matrix of determinant +-1: row additions, then a row
    permutation."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        e = rng.choice((-2, -1, 1, 2))
        p[i] = [a + e * b for a, b in zip(p[i], p[j])]
    rng.shuffle(p)
    return p


def _transform(spec: OperatorSpec, p, shift) -> OperatorSpec:
    """The spec in the coordinates v of u = p v + shift (the u-block only;
    trailing formal parameters stay)."""
    n, nvars = spec.n, spec.nvars
    v = [MultiPoly.variable(nvars, j + 1) for j in range(n)]
    u = [sum((v[j] * p[k][j] for j in range(n) if p[k][j]), MultiPoly.const(nvars, shift[k]))
         for k in range(n)]
    at_zero = {k + 1: 0 for k in range(n)}

    def substituted(e: MultiPoly) -> MultiPoly:
        # e is at most linear in u, so e(u) = e(0) + sum_k (d_k e) u^k
        return sum((e.partial(k + 1) * u[k] for k in range(n)), e.substitute(at_zero))

    q = PolyMatrix.from_scalars(nvars, inverse(p))
    return OperatorSpec([
        LinearMetric(n, q @ m.mat.map(substituted) @ q.transpose()) for m in spec.metrics
    ])


def _run(directory, spec, name):
    """((verify exit code, verdict, [(condition, pass)]), (verify's Segre
    type, classify exit code, classify's Segre type)) of a spec."""
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(dump_operator_spec(spec), fh)
    out = {}
    for command in ("verify", "classify"):
        with contextlib.redirect_stdout(io.StringIO()) as buf, \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main([command, path, "--output", "json"])
        out[command] = rc, json.loads(buf.getvalue()) if rc in (0, 1) else None
    (rc, report), (crc, classified) = out["verify"], out["classify"]
    verified = (rc, report["verdict"], [(c["name"], c["pass"]) for c in report["conditions"]])
    classified = classified and classified["segre"]["segre_type"]
    return verified, ((report["segre"] or {}).get("segre_type"), crc, classified)


def _catalog_specs():
    out = []
    for e in catalog():
        if e.n <= 4 and e.spec.d == 2:
            values = default_param_values(e.spec)
            out.append((e.id, specialize_spec(e.spec, values) if values else e.spec))
    return out


def _corpus_specs():
    out = []
    for n, seed in ((2, 51), (3, 52)):
        g, hs = corpus_pairs(n, random.Random(seed), raw=1, killing=1, family=1, constant=1)
        out += [(f"corpus-n{n}-{k}", OperatorSpec([g, h])) for k, h in enumerate(hs)]
    return out


CASES = _catalog_specs() + _corpus_specs()


@functools.cache
def _before_after(name):
    spec = dict(CASES)[name]
    rng = random.Random(f"metamorphic-{name}")
    p = _unimodular(spec.n, rng)
    shift = [rng.randint(-3, 3) for _ in range(spec.n)]
    with tempfile.TemporaryDirectory() as directory:
        return (_run(directory, spec, "before"),
                _run(directory, _transform(spec, p, shift), "after"))


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_affine_change_keeps_every_verdict(name):
    (verified, _), (moved, _) = _before_after(name)
    assert moved == verified


# The Killing pencil corpus-n2-1 has eigenvalues a +- sqrt(b c) outside
# Q(i) at generic points; its Segre type [2] comes from sample points on
# the locus b c = 0, which the change of variables moves off the small
# integer grid, so the transformed spec exits 4
SEGRE_BROKEN = {
    "corpus-n2-1": pytest.mark.xfail(strict=True, reason="Segre type of special points"),
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=SEGRE_BROKEN.get(name, ())) for name, _ in CASES
])
def test_affine_change_keeps_the_segre_type(name):
    (_, segre), (_, moved) = _before_after(name)
    assert moved == segre


def test_transformed_mokhov_n4_is_proven_on_its_constant_connection(monkeypatch):
    # b^{ij}_k of h transforms with the constant Jacobian, so it stays
    # constant, and the Mokhov side of the transformed entry is proven
    # without a point scan or a rational stream; the triple is proven on
    # the integer coefficient arrays, with no point kernel and no symbolic
    # adjugate
    spec = get_entry("mokhov-n4").spec
    rng = random.Random(1)
    moved = _transform(spec, _unimodular(4, rng), [rng.randint(-3, 3) for _ in range(4)])
    assert moved.gt.mat != spec.gt.mat
    refuse = refuse_symbolic_work(monkeypatch, "condition not proven on its arrays")
    monkeypatch.setattr(pc, "mokhov_at", refuse)
    monkeypatch.setattr(pc, "flat_at", refuse)
    monkeypatch.setattr(vf, "_t_streams", refuse)
    assert vf.verify_operator(moved).verdict
