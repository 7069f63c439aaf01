"""Command-line interface.

Subcommands: verify, classify, catalog, normalize, frobenius.  Reports are
emitted as deterministic JSON (stable field order, rationals as "p/q"; the
timing field stays null unless --timing is given, so identical inputs and
seed produce byte-identical output) or as human-readable text.

verify decides every condition exactly: the linearity / Nijenhuis /
Killing triple and, for d = 2, the Mokhov cross-check (flatness and T1..T5).

Exit codes: 0 success / verification passed; 1 verification failed.
Commands only compute and render: on an error they raise, and ``main`` maps
the error through one table, ``_EXITS``, to one stderr line and a code:

* 2, "error:": a usage error (``_UsageError``), a spec file that cannot be
  read or parsed (``SpecFileError``), a first metric not in constant form
  (``FirstMetricNotConstant``), or normalize coefficients whose leading one
  is not 1 (``ScalingNotNormalized``); argparse also exits 2 on a bad
  command line;
* 4, "error:": a well-formed input outside what the command supports
  (``UNSUPPORTED``): a spec whose affinor has eigenvalues outside Q(i) at
  every sample point, or with no point where every metric is
  non-degenerate, or, for classify, a spec with one metric, which has no
  affinor; verify reports these in its "segre" field and exits 0 or 1 on
  its verdict;
* 3, "internal error:": any other ``HamopError``, and any other exception,
  named with its class.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from .catalog import catalog, catalog_manifest, find_entries
from .errors import (
    DegenerateEverywhere,
    FirstMetricNotConstant,
    HamopError,
    ScalingNotNormalized,
    SingleMetric,
    SpecFileError,
    UnsupportedEigenvalueField,
)
from .families import JordanFamilyCoeffs, lie_flow_normalize, lie_flow_normalize_constant_eig
from .frobenius import build_cp_frobenius, check_frobenius_axioms, intersection_matches_mu
from .metrics import OperatorSpec
from .poly import MultiPoly
from .scalars import format_rational, parse_rational
from .pointcheck import sample_points
from .spectral import (
    SEGRE_POINTS,
    SEGRE_RANGE,
    format_segre_type,
    interpolate_affine_eigenvalues,
    segre_of_spec,
)
from .specfile import (
    default_param_values,
    dump_operator_spec,
    load_operator_spec,
    specialize_spec,
)
from .verify import verify_operator

SEED_ENV = "HAMOP_SEED"
REPORT_VERSION = 7

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_UNSUPPORTED = 4

UNSUPPORTED = (UnsupportedEigenvalueField, DegenerateEverywhere, SingleMetric)


class _UsageError(Exception):
    """A bad command-line value that argparse cannot see: a malformed
    --xi value (``_rational_option``), an --out path that cannot be
    written (``_write``), --n below 2 for normalize or frobenius
    (``_n_option``), an unknown catalog --id (``cmd_catalog``), and the wrong
    number of xi values, xi_0 = 0 without --alpha, or an --alpha that is
    not the index of the leading nonzero xi (0 when xi_0 != 0)
    (``cmd_normalize``)."""


# (error classes, stderr prefix, exit code); ``main`` takes the first row
# whose classes match the error a command raised
_EXITS = (
    ((_UsageError, SpecFileError, FirstMetricNotConstant, ScalingNotNormalized),
     "error", EXIT_USAGE),
    (UNSUPPORTED, "error", EXIT_UNSUPPORTED),
    (HamopError, "internal error", EXIT_INTERNAL),
)


def _write(args, payload: dict, text_lines) -> None:
    if args.output == "json":
        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(body)
        except OSError as ex:
            raise _UsageError(f"cannot write {args.out}: {ex}") from None
    else:
        sys.stdout.write(body)


def _report(args, command: str, fields: dict, lines) -> None:
    """Write a command's report: ``fields`` under the tool, report version
    and command name."""
    payload = {"tool": "hamop", "report_version": REPORT_VERSION, "command": command}
    _write(args, payload | fields, lines)


def _load_spec_file(path: str) -> OperatorSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as ex:
        raise SpecFileError(f"cannot read {path}: {ex}") from None
    except UnicodeDecodeError as ex:
        raise SpecFileError(f"{path} is not UTF-8 text: {ex}") from None
    return load_operator_spec(raw)


def _segre_payload(spec: OperatorSpec, seed: int) -> dict:
    try:
        return segre_of_spec(spec, seed=seed).to_dict()
    except UNSUPPORTED as ex:
        return {"error": str(ex)}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    spec = _load_spec_file(args.input)
    report = verify_operator(spec, seed=args.seed)
    segre = _segre_payload(spec, args.seed)
    timing_ms = int((time.monotonic() - t0) * 1000) if args.timing else None
    lines = [f"seed: {report.seed}"]
    for c in report.conditions:
        mark = "PASS" if c.passed else "FAIL"
        line = f"{mark} {c.name}"
        if c.witness is not None:
            line += f"   witness @ {c.witness.indices}: {c.witness.residual}"
            if c.witness.point:
                line += f" at point {list(c.witness.point)}"
        lines.append(line)
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    if args.timing:
        lines.append(f"timing_ms: {timing_ms}")
    _report(args, "verify", {**report.to_dict(), "segre": segre, "timing_ms": timing_ms}, lines)
    return EXIT_PASS if report.verdict else EXIT_FAIL


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _render_eigen_fit(fit, nvars: int) -> dict:
    """The real and (if nonzero) imaginary parts of an affine eigenvalue
    fit c_1 u_1 + ... + c_nvars u_nvars + c_0, coefficients constant last."""
    out = {}
    for part, (*linear, constant) in zip(("re", "im"), fit):
        poly = sum((MultiPoly.variable(nvars, k) * c for k, c in enumerate(linear, 1)),
                   MultiPoly.const(nvars, constant))
        if part == "re" or poly:
            out[part] = poly.to_str()
    return out


def cmd_classify(args) -> int:
    spec = _load_spec_file(args.input)
    # classification is independent of Hamiltonianity; it only needs the
    # affinor of the first two metrics
    npts = max(SEGRE_POINTS, spec.nvars + 2)
    points = sample_points(spec.nvars, spec.metrics, args.seed, npts, SEGRE_RANGE)
    report = segre_of_spec(spec, points=points, seed=args.seed)
    fits = interpolate_affine_eigenvalues(report, spec.nvars)
    eigenvalues = [_render_eigen_fit(f, spec.nvars) for f in fits] if fits else None
    matches = [
        e.id
        for e in catalog()
        if e.n == spec.n and e.d == spec.d and e.expected_segre == report.segre_type
    ]
    lines = [
        f"segre type: {format_segre_type(report.segre_type)}"
        + ("" if report.consistent else "   (inconsistent across points)"),
    ]
    if eigenvalues:
        for e in eigenvalues:
            text = f"({e['re']}) + i*({e['im']})" if "im" in e else e["re"]
            lines.append(f"eigenvalue: {text}")
    else:
        lines.append("eigenvalues: per-point values (no affine fit)")
        for s in report.spectra:
            vals = ", ".join(str(b.value) for b in s.blocks)
            lines.append(
                "  at (" + ", ".join(format_rational(x) for x in s.point) + f"): {vals}"
            )
    if len(report.segre_type) > 1:
        lines.append("hint: multiple eigenvalues; operator may be reducible")
    lines.append("catalog matches: " + (", ".join(matches) if matches else "none"))
    _report(args, "classify", {
        "n": spec.n,
        "d": spec.d,
        "seed": args.seed,
        "segre": report.to_dict(),
        "eigenvalues": eigenvalues,
        "reducible_hint": len(report.segre_type) > 1,
        "matches": matches,
    }, lines)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    entries = find_entries(args.id, args.n, args.d)
    if args.id is not None and not entries:
        available = sorted({e.id for e in catalog()})
        raise _UsageError(
            f"no catalog entry matches id {args.id!r}; available: " + ", ".join(available)
        )
    if args.id is not None and len(entries) == 1:
        e = entries[0]
        values = default_param_values(e.spec)
        spec = specialize_spec(e.spec, values) if values else e.spec
        payload = dump_operator_spec(spec)
        lines = [json.dumps(payload, indent=2)]
        meta = {
            "id": e.id,
            "location": e.location,
            "params": {
                name: format_rational(v) for name, v in zip(e.params, values)
            },
        }
        _write(args, payload, lines)
        if not args.out:
            print(f"# {meta}", file=sys.stderr)
        return EXIT_PASS
    manifest = catalog_manifest(entries)
    lines = []
    for m in manifest["entries"]:
        seg = m["segre"] or "?"
        par = (", params: " + ",".join(m["params"])) if m["params"] else ""
        red = " (reducible)" if m["reducible"] else ""
        lines.append(f"{m['id']:18s} n={m['n']} d={m['d']} segre={seg}{par}{red}")
    _write(args, manifest, lines)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def _normal_form_text(n: int, xi, with_gt0: bool = False) -> str:
    parts = []
    for m, x in enumerate(xi):
        if not x:
            continue
        term = f"mu({n};{m})"
        if x != 1:
            term = f"{format_rational(Fraction(x))}*{term}"
        parts.append(term)
    if with_gt0:
        parts.append("gt0")
    return " + ".join(parts) if parts else "0"


def _n_option(args) -> int:
    if args.n < 2:
        raise _UsageError("--n must be at least 2")
    return args.n


def _rational_option(name: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as ex:
        raise _UsageError(f"bad {name} value {text!r}: {ex}") from None


def cmd_normalize(args) -> int:
    n = _n_option(args)
    xi = [_rational_option("--xi", x.strip()) for x in args.xi.split(",") if x.strip()]
    if len(xi) != n - 1:
        raise _UsageError(f"--xi needs n-1 = {n-1} values")
    coeffs = JordanFamilyCoeffs(n, xi)
    leading = next((i for i, x in enumerate(xi) if x), None)
    if args.alpha is not None and leading is not None and leading != args.alpha:
        raise _UsageError(f"leading nonzero coefficient is xi_{leading}, not xi_{args.alpha}")
    if xi[0] == 0:
        if args.alpha is None:
            raise _UsageError(
                "xi_0 = 0 is the constant-eigenvalue case; pass --alpha "
                "with the leading index (xi_alpha = 1)"
            )
        norm, transcript, alpha, m = lie_flow_normalize_constant_eig(coeffs)
        form = _normal_form_text(n, norm.xi, with_gt0=True)
        extra = {"alpha": alpha, "m": m}
    else:
        norm, transcript = lie_flow_normalize(coeffs)
        form = _normal_form_text(n, norm.xi)
        extra = {}
    flows = [{"k": k, "t": format_rational(t) if t is not None else None} for k, t in transcript]
    lines = [f"normal form: {form}"]
    for f in flows:
        lines.append(f"flow k={f['k']}: "
                     + ("skipped (ladder coefficient 0)" if f["t"] is None else f"t = {f['t']}"))
    _report(args, "normalize", {
        "n": n,
        "input_xi": [format_rational(x) for x in xi],
        **extra,
        "normal_form": form,
        "coefficients": [format_rational(x) for x in norm.xi],
        "flows": flows,
    }, lines)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# frobenius
# ---------------------------------------------------------------------------


def cmd_frobenius(args) -> int:
    data = build_cp_frobenius(_n_option(args))
    report = check_frobenius_axioms(data)
    matches = intersection_matches_mu(data)
    lines = []
    for name, (ok, w) in report.axioms.items():
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}" + (f"   witness {w}" if w else ""))
    lines.append(
        "euler scalings (e, c, g_cov): "
        + ", ".join(str(report.scalings[k]) for k in ("e", "c", "g_cov"))
    )
    lines.append(f"intersection form equals mu({args.n};0): {matches}")
    lines.append(f"verdict: {'pass' if report.verdict and matches else 'fail'}")
    _report(args, "frobenius", {**report.to_dict(), "intersection_form_equals_mu": matches}, lines)
    return EXIT_PASS if report.verdict and matches else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, list]:
    """The parser and its --seed actions, built once, on the first call of
    ``main`` (not at import)."""
    p = argparse.ArgumentParser(
        prog="hamop",
        description="Exact verification, classification and normalization of "
        "first-order Hamiltonian operators defined by pairs (or tuples) of "
        "flat contravariant metrics.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    seeds = []

    def common(sp):
        seeds.append(sp.add_argument("--seed", type=int, default="0",
                                     help=f"random seed (default from ${SEED_ENV} or 0)"))
        sp.add_argument("--output", choices=("json", "text"), default="text")
        sp.add_argument("--out", help="write the report to this path")

    sp = sub.add_parser("verify", help="verify Hamiltonianity of a spec file")
    sp.add_argument("input", help="operator spec JSON file")
    sp.add_argument("--timing", action="store_true",
                    help="include wall-clock timing in the report")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("classify", help="Segre classification of a spec file")
    sp.add_argument("input", help="operator spec JSON file")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("catalog", help="list or emit catalog entries")
    sp.add_argument("--id", help="entry id or family name")
    sp.add_argument("--n", type=int, help="filter by component count")
    sp.add_argument("--d", type=int, help="filter by spatial dimension")
    common(sp)
    sp.set_defaults(fn=cmd_catalog)

    sp = sub.add_parser("normalize", help="Lie-flow normalization of family coefficients")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--xi", required=True,
                    help="comma-separated rationals xi_0..xi_{n-2}")
    sp.add_argument("--alpha", type=int, default=None,
                    help="index of the leading nonzero xi (required when xi_0 = 0)")
    common(sp)
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("frobenius", help="Frobenius axioms and intersection form")
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_frobenius)

    return p, seeds


def main(argv=None) -> int:
    parser, seeds = _parser()
    for action in seeds:
        # $HAMOP_SEED is read at every call.  argparse converts a string
        # default with ``type``, so a bad value is a usage error unless
        # --seed overrides it
        action.default = os.environ.get(SEED_ENV, "0")
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse exits 2 on usage errors already
        return int(ex.code or 0)
    # an exact report prints every digit of its rationals, however many;
    # Python (3.10.7 on) caps int-to-string conversion at 4300 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except Exception as ex:
        for types, prefix, code in _EXITS:
            if isinstance(ex, types):
                print(f"{prefix}: {ex}", file=sys.stderr)
                return code
        # no traceback may pass for "verification failed" (exit 1)
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
