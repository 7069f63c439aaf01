"""Reports of the CLI and of the library on a fixed corpus, for a byte
comparison of two versions of the code.

    python tests/report_corpus.py OUT.json

writes one JSON object to OUT.json, mapping each case to its output:

* ``cli:<command>:<spec>:seed<s>``: exit code, stdout and stderr of
  ``hamop verify`` and ``hamop classify --output json`` at seeds 0 and 11,
  run in process on the catalog entries (formal parameters at their
  ``default_param_values``), the pencil-corpus specs of seeds 1-3
  (``perfbench/pencils.py``), the golden specs, and the failing raw pencils
  ``random_linear_bivector(random.Random(100 n), n)`` over the antidiagonal
  metric at n = 6, 8, 10 and 12, whose Segre payloads split characteristic
  polynomials with square-free factors of degree up to n;
* ``spec:<spec>``: the text of each spec file written for those runs
  (``dump_operator_spec``);
* ``mokhov:<mutant>``: ``mokhov_conditions(g, h, points=[])`` on every
  one-coefficient mutant of h of the d = 2 entries with n <= 3;
* ``connection:<case>``: the first nonzero component, or null, of each of
  flat(g2), T1, T2, T3 and T5 on the constant contravariant connection of h
  (``geometry.constant_connection`` at the seed-0 candidate point, with no
  derivative term), for every d = 2 catalog entry and for each of those
  mutants that has one; null for an entry without one;
* ``pair:<mutant>:<b>|<c>:<points>``: ``pair_conditions`` of every pair of
  every one-coefficient mutant of a later metric of the d >= 3 entries,
  with no points and at the seed-0 scan points;
* ``corpus-pair:n<n>:<ref>|<h>``: ``pair_conditions(points=[])`` on seeded
  corpus pencils over the antidiagonal metric g at n = 2 and 3, with g, h
  or a neighbouring pencil as the reference;
* ``manifest`` and ``entry:<id>``: ``catalog_manifest()``, and each catalog
  entry before specialisation (metric polynomials, ring size, parameters,
  expected eigenvalues and Segre type, notes);
* ``ctor:<constructor>(<args>)``: the metric polynomials of the normal-form
  constructors at n <= 8, with formal and with given parameters;
* ``cli:catalog:<args>``: exit code, stdout and stderr of ``hamop catalog``
  (text and JSON, filtered by n and d) and of ``hamop catalog --id X
  --output json`` for every id and family;
* ``cli:normalize:<args>``: the same of ``hamop normalize`` (text and JSON)
  on a grid of n = 3..10 with xi_0 = 1 (integer and fractional xi), and
  with xi_0 = 0 at every leading index alpha, and of xi_0 = 1 with a right
  and a wrong ``--alpha``;
* ``cli:frobenius:<args>``: the same of ``hamop frobenius --n N`` (text and
  JSON) for N = 1..12;
* ``linalg:<routine>:<case>``: for n = 2..12, ``killing_vector_basis`` and
  ``killing_bivector_space`` of the antidiagonal metric, the basis of
  ``solve_jordan_family(n, 5/3, verify=False)`` and
  ``intersection_form(build_cp_frobenius(n))``, each polynomial with its
  type and ring size; and ``rref``, ``nullspace``, ``inverse`` and
  ``solve`` on seeded rational and integer matrices (dense, mostly zero,
  rank-deficient, rectangular), each entry with its type name;
* ``spectrum:<blocks>:<point>``: ``spectrum_at_point`` of
  L = (u1 I + u2 A) / 2 for each ``JORDAN_CASES`` conjugate A at three
  points, each block's value and partition, and the point's Segre type;
* ``roots:<case>``: ``rational_roots`` of characteristic polynomials, each
  with its rational and Gaussian roots and their multiplicities and its
  exact residual: chi of the integer affinor at the seed-0 Segre points of
  every spec above with d >= 2 (``roots:segre:<spec>:<point>``), the planted
  polynomials of ``test_roots`` (``roots:planted:<label>``, among them two
  and three Gaussian pairs of one multiplicity, beside rational roots and
  beside a cubic whose constant term is a product of two large primes),
  and chi of 300 seeded integer matrices, P J P^-1 with unimodular P and J
  a direct sum of Jordan blocks of rational and Gaussian eigenvalues and of
  repeated companion blocks of x^2 - d, or dense with small entries
  (``roots:seeded:<t>:<n>``);
* ``cli:<command>:<args>`` on the error paths: ``verify`` and ``classify`` of
  malformed JSON, a non-UTF-8 file, a missing file, an identically
  degenerate metric, a non-constant first metric, a d = 1 spec and a spec
  whose eigenvalues lie outside Q(i); ``normalize`` with bad option values
  and with ``--lam``, which it no longer takes; and every command with an
  ``--out`` path it cannot write.

Spec files are written to a temporary directory and named by basename, and
the CLI runs there, so no path reaches a key or an output: the files of two
checkouts compare with ``cmp``.  The script imports ``hamop`` from the
``src`` next to its own directory.  pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(TESTS)]

from hamop import cli  # noqa: E402
from hamop.catalog import (  # noqa: E402
    catalog,
    catalog_manifest,
    example2_operator,
    exampleN_operator,
    mokhov_operator,
    theorem4_metric,
    theorem7_metric,
)
from hamop.families import (  # noqa: E402
    killing_bivector_space,
    killing_vector_basis,
    solve_jordan_family,
)
from hamop.frobenius import build_cp_frobenius, intersection_form  # noqa: E402
from hamop.geometry import (  # noqa: E402
    constant_connection,
    mokhov_identities,
    raised_obstruction,
    riemann_components,
)
from hamop.linsolve import inverse, mat_mul, nullspace, rref, solve  # noqa: E402
from hamop.matrices import PolyMatrix  # noqa: E402
from hamop.metrics import LinearMetric, OperatorSpec  # noqa: E402
from hamop.pointcheck import sample_points  # noqa: E402
from hamop.poly import MultiPoly  # noqa: E402
from hamop.roots import char_poly, rational_roots  # noqa: E402
from hamop.specfile import dump_operator_spec, load_operator_spec  # noqa: E402
from hamop.spectral import (  # noqa: E402
    SEGRE_POINTS,
    SEGRE_RANGE,
    format_segre_type,
    integer_affinor,
    spectrum_at_point,
)
from hamop.verify import _sample, mokhov_conditions, pair_conditions  # noqa: E402

from conftest import (  # noqa: E402
    JORDAN_CASES,
    block_diag,
    corpus_pairs,
    jordan_block,
    jordan_conjugate,
    jordan_id,
    one_coefficient_mutants,
    random_linear_bivector,
    real_jordan_block,
    specialized_catalog,
    unimodular,
)
from perfbench.pencils import write_corpus  # noqa: E402
from test_roots import _planted  # noqa: E402
from test_specfile import op5_file  # noqa: E402

SEEDS = (0, 11)


def _spec_files(directory: Path) -> list[str]:
    """Write the specs the CLI runs on into ``directory``; their basenames."""
    names = []
    for eid, spec in specialized_catalog():
        name = f"catalog-{eid}.json"
        (directory / name).write_text(json.dumps(dump_operator_spec(spec), indent=1))
        names.append(name)
    for seed in (1, 2, 3):
        sub = directory / f"corpus{seed}"
        for p in write_corpus(str(sub), seed):
            name = f"corpus{seed}-{p['file']}"
            (sub / p["file"]).rename(directory / name)
            names.append(name)
    for path in sorted((TESTS / "golden").glob("*.spec.json")):
        (directory / path.name).write_text(path.read_text())
        names.append(path.name)
    for n in (6, 8, 10, 12):
        h = random_linear_bivector(random.Random(100 * n), n)
        spec = OperatorSpec([LinearMetric.antidiagonal(n), LinearMetric(n, h)])
        name = f"raw-n{n}.json"
        (directory / name).write_text(json.dumps(dump_operator_spec(spec), indent=1))
        names.append(name)
    return names


def _run(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _cli_reports(report: dict) -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in _spec_files(Path(tmp)):
                report[f"spec:{name}"] = Path(name).read_text()
                for seed in SEEDS:
                    for command in ("verify", "classify"):
                        report[f"cli:{command}:{name}:seed{seed}"] = _run(
                            [command, name, "--output", "json", "--seed", str(seed)])
        finally:
            os.chdir(cwd)


def _outcome(fn):
    """The JSON-ready result of ``fn()``, or its exception as text."""
    try:
        return fn()
    except Exception as ex:  # a report of either version may raise
        return f"{type(ex).__name__}: {ex}"


def _conditions(results) -> list:
    return [c.to_dict() for c in results]


def _connection_hits(g, h):
    """name -> the first nonzero (indices, value) of flat(g2), T1, T2, T3 and
    T5 on the constant contravariant connection of h, or None when h has
    none at the seed-0 candidate point."""
    conn = constant_connection(h, sample_points(g.nvars, [g, h], 0, 1)[0])
    if conn is None:
        return None
    c, _ = conn
    streams = dict(mokhov_identities(raised_obstruction(g.arrays[1][0], c, g.n), None, c, None, g.n))
    streams["flat(g2)"] = riemann_components(c, None, g.n)
    hits = {}
    for name in ("flat(g2)", "T1", "T2", "T3", "T5"):
        hit = next((hit for hit in streams[name] if hit[1]), None)
        hits[name] = hit and [list(hit[0]), str(hit[1])]
    return hits


def _library_reports(report: dict) -> None:
    for eid, spec in specialized_catalog(d=2):
        if spec.d == 2:
            report[f"connection:{eid}"] = _outcome(lambda: _connection_hits(spec.g, spec.gt))
    for eid, spec in specialized_catalog(d=2, max_n=3):
        for label, mutant in one_coefficient_mutants(spec, 1):
            report[f"mokhov:{eid}+{label}"] = _outcome(
                lambda: mokhov_conditions(mutant.g, mutant.gt, points=[]).to_dict())
            hits = _outcome(lambda: _connection_hits(mutant.g, mutant.gt))
            if hits is not None:
                report[f"connection:{eid}+{label}"] = hits
    for eid, spec in specialized_catalog(d=3):
        for m in range(1, spec.d):
            for label, mutant in one_coefficient_mutants(spec, m):
                points = _outcome(lambda: _sample(mutant.nvars, mutant.metrics, 0))
                for b, gb in enumerate(mutant.metrics, 1):
                    for c, gc in enumerate(mutant.metrics[: b - 1], 1):
                        key = f"pair:{eid}+{label}#{m + 1}:{b}|{c}"
                        report[f"{key}:none"] = _outcome(
                            lambda: _conditions(pair_conditions(gc, gb, [], None, (b, c))))
                        if not isinstance(points, str):
                            report[f"{key}:seeded"] = _outcome(
                                lambda: _conditions(pair_conditions(gc, gb, points, None, (b, c))))
    for n in (2, 3):
        g, hs = corpus_pairs(n, random.Random(n))
        named = [("g", g)] + [(f"h{i}", h) for i, h in enumerate(hs)]
        pairs = [(named[0], x) for x in named[1:]] + [(x, named[0]) for x in named[1:]]
        pairs += [p for x, y in zip(named[1:], named[2:]) for p in ((x, y), (y, x))]
        for (rname, ref), (hname, h) in pairs:
            report[f"corpus-pair:n{n}:{rname}|{hname}"] = _outcome(
                lambda: _conditions(pair_conditions(ref, h, [])))


def _spec_text(spec) -> dict:
    return {"nvars": spec.nvars,
            "metrics": [[[p.to_str() for p in row] for row in m.mat.entries]
                        for m in spec.metrics]}


def _constructor_specs():
    """(label, thunk) of each normal-form constructor call."""
    values = (None, 2)
    for n in range(2, 9):
        yield f"mokhov_operator({n})", lambda: mokhov_operator(n)
        for k in values:
            for lam in values:
                yield (f"theorem4_metric({n}, {k}, {lam})",
                       lambda: theorem4_metric(n, k, lam))
                for alpha in range(1, n - 1):
                    yield (f"theorem7_metric({n}, {alpha}, {k}, {lam})",
                           lambda: theorem7_metric(n, alpha, k, lam))
        if n >= 3:
            for lam in values:
                yield f"example2_operator({n}, {lam})", lambda: example2_operator(n, lam)
                yield f"exampleN_operator({n}, {lam})", lambda: exampleN_operator(n, lam)


def _catalog_reports(report: dict) -> None:
    report["manifest"] = catalog_manifest()
    for e in catalog():
        report[f"entry:{e.id}"] = {
            "family": e.family, "location": e.location, **_spec_text(e.spec),
            "params": e.params, "segre": repr(e.expected_segre),
            "eigenvalues": [[re.to_str(), im.to_str()] for re, im in e.expected_eigenvalues],
            "reducible": e.reducible, "notes": e.notes}
    for label, thunk in _constructor_specs():
        report[f"ctor:{label}"] = _outcome(lambda: _spec_text(thunk()))
    runs = [["catalog"], ["catalog", "--output", "json"], ["catalog", "--id", "nonesuch"]]
    runs += [["catalog", "--n", str(n)] for n in range(1, 9)]
    runs += [["catalog", "--d", str(d), "--output", "json"] for d in range(1, 6)]
    names = sorted({x for e in catalog() for x in (e.id, e.family)})
    runs += [["catalog", "--id", x, "--output", "json"] for x in names]
    for argv in runs:
        report["cli:" + " ".join(argv)] = _run(argv)


def _normalize_reports(report: dict) -> None:
    runs = [["--n", "4", "--xi", "0,1,2"], ["--n", "4", "--xi", "0,1,2", "--alpha", "2"],
            ["--n", "4", "--xi", "2,1,2"], ["--n", "4", "--xi", "1,1"],
            ["--n", "4", "--xi", "1,1,2", "--alpha", "0"],
            ["--n", "4", "--xi", "1,1,2", "--alpha", "2"]]
    for n in range(3, 11):
        rest = n - 2
        runs.append(["--n", str(n), "--xi", ",".join(["1"] + [str(k) for k in range(1, rest + 1)])])
        runs.append(["--n", str(n), "--xi", ",".join(
            ["1"] + [f"{(-1) ** k}/{k + 1}" for k in range(1, rest + 1)])])
        for alpha in range(1, n - 1):
            xi = ["0"] * alpha + ["1"] + [str(k) for k in range(1, n - 1 - alpha)]
            runs.append(["--n", str(n), "--xi", ",".join(xi), "--alpha", str(alpha)])
    for argv in runs:
        for output in ("text", "json"):
            argv2 = ["normalize", *argv, "--output", output]
            report["cli:" + " ".join(argv2)] = _run(argv2)


def _frobenius_reports(report: dict) -> None:
    for n in range(1, 13):
        for output in ("text", "json"):
            argv = ["frobenius", "--n", str(n), "--output", output]
            report["cli:" + " ".join(argv)] = _run(argv)


def _typed(values) -> list:
    return [f"{type(x).__name__}:{x}" for x in values]


def _poly_text(p) -> str:
    return f"{type(p).__name__}[{p.nvars}]:{p.to_str()}"


def _matrix_text(m) -> list:
    return [[_poly_text(x) for x in row] for row in m.entries]


def _seeded_matrices():
    """(label, rows) of seeded rational and integer matrices: dense, with
    about 70 % zeros, with a last row that combines the others, and of every
    shape up to 6 x 7."""
    rng = random.Random(2024)
    out = []
    for t in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        if t % 5 == 4:
            cols = rows
        zeros = (0.0, 0.7)[t % 2]
        m = [[Fraction(0) if rng.random() < zeros
              else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(cols)] for _ in range(rows)]
        if t % 3 == 2 and rows > 1:
            c = [rng.randint(-2, 2) for _ in range(rows - 1)]
            m[-1] = [sum(ci * row[j] for ci, row in zip(c, m)) for j in range(cols)]
        if t % 7 == 6:
            m = [[int(x * 12) for x in row] for row in m]
        out.append((f"{t}:{rows}x{cols}", m))
    return out


def _linalg_reports(report: dict) -> None:
    for n in range(2, 13):
        g = LinearMetric.antidiagonal(n)
        basis = killing_vector_basis(g)
        report[f"linalg:killing_vector_basis:n{n}"] = {
            "rotational": basis.rotational_count,
            "vectors": [[_poly_text(x) for x in v] for v in basis.vectors]}
        report[f"linalg:killing_bivector_space:n{n}"] = [
            _matrix_text(b) for b in killing_bivector_space(g)]
        report[f"linalg:jordan_family:n{n}"] = [
            _matrix_text(b) for b in solve_jordan_family(n, Fraction(5, 3), verify=False).basis]
        report[f"linalg:intersection_form:n{n}"] = _matrix_text(
            intersection_form(build_cp_frobenius(n)))
    for label, m in _seeded_matrices():
        red, pivots = rref(m)
        report[f"linalg:rref:{label}"] = {"rows": [_typed(r) for r in red], "pivots": pivots}
        report[f"linalg:nullspace:{label}"] = [_typed(v) for v in nullspace(m)]
        rhs = [row[0] - row[-1] + 1 for row in m]
        sol = solve(m, rhs)
        report[f"linalg:solve:{label}"] = None if sol is None else _typed(sol)
        if len(m) == len(m[0]):
            inv = inverse(m)
            report[f"linalg:inverse:{label}"] = None if inv is None else [_typed(r) for r in inv]


def _spectrum_reports(report: dict) -> None:
    for case in JORDAN_CASES:
        a, _ = jordan_conjugate(case, random.Random(2))
        n = len(a)
        # (u1 I + u2 A) / 2 has the eigenvalues (u1 + u2 lambda) / 2 and, for
        # u2 != 0, the partitions of A
        L = PolyMatrix([[MultiPoly.from_affine_parts(n, 2, [0, int(i == j), x] + [0] * (n - 2))
                         for j, x in enumerate(row)] for i, row in enumerate(a)])
        for pt in ((0, 1), (3, -2), (-5, 7)):
            s = spectrum_at_point(L, [Fraction(x) for x in pt] + [Fraction(1)] * (n - 2), n)
            report[f"spectrum:{jordan_id(case)}:{pt[0]},{pt[1]}"] = None if s is None else {
                "blocks": [[str(b.value), list(b.partition)] for b in s.blocks],
                "type": format_segre_type(s.type_key())}


def _roots_text(c) -> dict:
    rep = rational_roots(c)
    return {"chi": [str(x) for x in c],
            "rational": [[str(r), m] for r, m in sorted(rep.rational.items())],
            "gaussian": [[str(z), m] for z, m in
                         sorted(rep.gaussian.items(), key=lambda t: (t[0].re, t[0].im))],
            "residual": [str(x) for x in rep.residual]}


def _seeded_charpolys():
    """(label, chi) of 300 seeded integer matrices (module docstring)."""
    rng = random.Random(39)
    for t in range(300):
        if t % 3 == 2:
            n = rng.randint(1, 7)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        else:
            parts = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.3:
                    parts.append(real_jordan_block(rng.randint(-3, 3), rng.randint(1, 3),
                                                   rng.randint(1, 2)))
                else:
                    parts.append(jordan_block(rng.randint(-4, 4), rng.randint(1, 4)))
            if t % 3 == 1:
                d = rng.choice((2, 3, 5, -2))
                parts += [[[0, d], [1, 0]]] * rng.randint(1, 2)
            a = block_diag(*parts)
            if len(a) > 1:
                p, pinv = unimodular(rng, len(a))
                a = mat_mul(mat_mul(p, a), pinv)
        yield f"{t}:{len(a)}", char_poly(a)


def _roots_reports(report: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in _spec_files(Path(tmp)):
            spec = _outcome(lambda: load_operator_spec(json.loads((Path(tmp) / name).read_text())))
            if isinstance(spec, str) or spec.d < 2:
                continue
            L = _outcome(lambda: integer_affinor(spec.metrics[0], spec.metrics[1]))
            points = _outcome(lambda: sample_points(spec.nvars, spec.metrics, 0, SEGRE_POINTS,
                                                    SEGRE_RANGE))
            if isinstance(L, str) or isinstance(points, str):
                report[f"roots:segre:{name}"] = L if isinstance(L, str) else points
                continue
            for pt in points:
                label = ",".join(str(x) for x in pt)
                report[f"roots:segre:{name}:{label}"] = _outcome(
                    lambda: _roots_text(char_poly(L.form.int_at(pt))))
    for label, poly in _planted(MultiPoly.variable(1, 1)):
        report[f"roots:planted:{label}"] = _roots_text(poly.univariate_coeffs())
    for label, c in _seeded_charpolys():
        report[f"roots:seeded:{label}"] = _roots_text(c)


def _error_specs(directory: Path) -> None:
    """Write op5 and the specs that reach the CLI's error paths."""
    data = {"op5.json": op5_file()}
    for slot in (0, 1):
        # [[u1, u1], [u1, u1]]: non-constant, with det = 0 identically
        data[f"degenerate{slot}.json"] = op5_file()
        data[f"degenerate{slot}.json"]["metrics"][slot] = {
            "constant": [["0/1", "0/1"], ["0/1", "0/1"]],
            "linear": [{"i": i, "j": j, "k": 1, "coeff": "1/1"}
                       for i, j in ((1, 1), (1, 2), (2, 2))]}
    data["swapped.json"] = op5_file()
    data["swapped.json"]["metrics"].reverse()
    data["single.json"] = {"n": 2, "d": 1, "metrics": [op5_file()["metrics"][0]]}
    # L = diag(2, 1) J: its characteristic polynomial x^2 - 2 splits over no Q(i)
    data["sqrt2.json"] = dump_operator_spec(OperatorSpec(
        [LinearMetric.antidiagonal(2), LinearMetric.constant([[2, 0], [0, 1]])]))
    for name, value in data.items():
        (directory / name).write_text(json.dumps(value))
    (directory / "malformed.json").write_text("{ not json")
    (directory / "latin1.json").write_bytes(b'{"name": "caf\xe9"}')


def _error_reports(report: dict) -> None:
    names = ["malformed.json", "latin1.json", "missing.json", "degenerate0.json",
             "degenerate1.json", "swapped.json", "single.json", "sqrt2.json"]
    runs = [[command, name, "--output", "json"]
            for name in names for command in ("verify", "classify")]
    runs += [["normalize", "--n", "3", "--xi", "1,abc"],
             ["normalize", "--n", "3", "--xi", "1e3,2"],
             ["normalize", "--n", "3", "--xi", "1,2", "--lam", "abc"],
             ["normalize", "--n", "3", "--xi", "1,2", "--lam", "1/0"],
             ["normalize", "--n", "3", "--xi", "1,2,3"],
             ["normalize", "--n", "3", "--xi", "0,1"],
             ["normalize", "--n", "4", "--xi", "0,0,1", "--alpha", "1"],
             ["normalize", "--n", "3", "--xi", "3,1"],
             ["normalize", "--n", "1", "--xi", ","]]
    unwritable = ["--out", "missing/x.json"]
    runs += [argv + unwritable for argv in (
        ["verify", "op5.json"], ["classify", "op5.json", "--output", "json"],
        ["catalog"], ["catalog", "--id", "mokhov-n3"],
        ["normalize", "--n", "3", "--xi", "1,2"], ["frobenius", "--n", "2"])]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _error_specs(Path(tmp))
            for argv in runs:
                report["cli:" + " ".join(argv)] = _run(argv)
        finally:
            os.chdir(cwd)


def main(out_path: str) -> None:
    report = {}
    _cli_reports(report)
    _library_reports(report)
    _catalog_reports(report)
    _normalize_reports(report)
    _frobenius_reports(report)
    _linalg_reports(report)
    _spectrum_reports(report)
    _roots_reports(report)
    _error_reports(report)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
