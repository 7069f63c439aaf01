"""Command-line interface.

Subcommands: verify, classify, catalog, normalize, frobenius.  Reports are
emitted as deterministic JSON (stable field order, rationals as "p/q"; the
timing field stays null unless --timing is given, so identical inputs and
seed produce byte-identical output) or as human-readable text.

verify always proves the linearity / Nijenhuis / Killing triple, so its
verdict is exact; the report's "mode" (--mode, default symbolic for n <= 8,
sampled otherwise) says how the d = 2 Mokhov cross-check (flatness and
T1..T5) ran: proven, or scanned at seeded points mod p.

Exit codes: 0 success / verification passed; 1 verification failed;
2 parse or usage error; 3 internal error; 4 input outside what the command
supports (a well-formed spec whose affinor has eigenvalues outside Q(i) at
every sample point, or with no point where every metric is non-degenerate,
or, for classify, a spec with one metric, which has no affinor; verify
reports that in its "segre" field and exits 0 or 1 on its verdict).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .catalog import catalog, find_entries
from .errors import (
    DegenerateEverywhere,
    DisagreementBug,
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
from .scalars import format_rational
from .spectral import (
    SEGRE_POINTS,
    format_segre_type,
    interpolate_affine_eigenvalues,
    segre_of_spec,
    segre_sample_points,
)
from .specfile import (
    default_param_values,
    dump_operator_spec,
    load_operator_spec,
    specialize_spec,
)
from .verify import verify_operator

SEED_ENV = "HAMOP_SEED"
REPORT_VERSION = 4

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_UNSUPPORTED = 4

UNSUPPORTED = (UnsupportedEigenvalueField, DegenerateEverywhere, SingleMetric)


class _OutputError(Exception):
    """The report could not be written to the --out path (a usage error)."""


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
            raise _OutputError(f"cannot write {args.out}: {ex}") from None
    else:
        sys.stdout.write(body)


def _load_spec_file(path: str) -> OperatorSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as ex:
        raise SpecFileError(f"cannot read {path}: {ex}") from None
    except UnicodeDecodeError as ex:
        raise SpecFileError(f"{path} is not UTF-8 text: {ex}") from None
    return load_operator_spec(raw)


def _segre_payload(spec: OperatorSpec, seed: int):
    try:
        report = segre_of_spec(spec, seed=seed)
        return report, report.to_dict()
    except UNSUPPORTED as ex:
        return None, {"error": str(ex)}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    try:
        spec = _load_spec_file(args.input)
    except SpecFileError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = verify_operator(spec, mode=args.mode, seed=args.seed)
    except DisagreementBug as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    except UNSUPPORTED as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except HamopError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    _, segre = _segre_payload(spec, args.seed)
    payload = {
        "tool": "hamop",
        "report_version": REPORT_VERSION,
        "command": "verify",
        "n": spec.n,
        "d": spec.d,
        "mode": report.mode,
        "seed": report.seed,
        "verdict": "pass" if report.verdict else "fail",
        "conditions": [c.to_dict() for c in report.conditions],
        "segre": segre,
        "timing_ms": int((time.monotonic() - t0) * 1000) if args.timing else None,
    }
    lines = [f"mode: {report.mode}   seed: {report.seed}"]
    for c in report.conditions:
        mark = "PASS" if c.passed else "FAIL"
        line = f"{mark} {c.name}"
        if c.witness is not None:
            line += f"   witness @ {c.witness.indices}: {c.witness.residual}"
            if c.witness.point:
                line += f" at point {list(c.witness.point)}"
        lines.append(line)
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    _write(args, payload, lines)
    return EXIT_PASS if report.verdict else EXIT_FAIL


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _render_eigen_fit(fit, nvars: int) -> dict:
    re_coeffs, im_coeffs = fit

    def poly_of(coeffs):
        terms = {}
        for t, c in enumerate(coeffs[:-1]):
            if c:
                e = [0] * nvars
                e[t] = 1
                terms[tuple(e)] = c
        if coeffs[-1]:
            terms[(0,) * nvars] = coeffs[-1]
        return MultiPoly(nvars, terms)

    re_p = poly_of(re_coeffs)
    im_p = poly_of(im_coeffs)
    out = {"re": re_p.to_str()}
    if not im_p.is_zero():
        out["im"] = im_p.to_str()
    return out


def cmd_classify(args) -> int:
    try:
        spec = _load_spec_file(args.input)
    except SpecFileError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    # classification is independent of Hamiltonianity; it only needs the
    # affinor of the first two metrics
    npts = max(SEGRE_POINTS, spec.nvars + 2)
    try:
        points = segre_sample_points(
            spec.nvars, args.seed, count=npts, metrics=spec.metrics
        )
        report = segre_of_spec(spec, points=points, seed=args.seed)
    except UNSUPPORTED as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    fits = interpolate_affine_eigenvalues(report, spec.n, spec.nvars)
    matches = [
        e.id
        for e in catalog()
        if e.n == spec.n and e.d == spec.d and e.expected_segre == report.segre_type
    ]
    payload = {
        "tool": "hamop",
        "report_version": REPORT_VERSION,
        "command": "classify",
        "n": spec.n,
        "d": spec.d,
        "seed": args.seed,
        "segre": report.to_dict(),
        "eigenvalues": [_render_eigen_fit(f, spec.nvars) for f in fits]
        if fits
        else None,
        "reducible_hint": len(report.segre_type) > 1,
        "matches": matches,
    }
    lines = [
        f"segre type: {format_segre_type(report.segre_type)}"
        + ("" if report.consistent else "   (inconsistent across points)"),
    ]
    if fits:
        for f in fits:
            rendered = _render_eigen_fit(f, spec.nvars)
            text = rendered["re"]
            if "im" in rendered:
                text = f"({text}) + i*({rendered['im']})"
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
    _write(args, payload, lines)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    entries = find_entries(args.id, args.n, args.d)
    if args.id is not None and not entries:
        available = sorted({e.id for e in catalog()})
        print(
            f"error: no catalog entry matches id {args.id!r}; available: "
            + ", ".join(available),
            file=sys.stderr,
        )
        return EXIT_USAGE
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
    from .catalog import catalog_manifest

    manifest = catalog_manifest()
    manifest["entries"] = [
        m
        for m in manifest["entries"]
        if any(e.id == m["id"] for e in entries)
    ]
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


def _normal_form_text(n: int, xi, lam=None, with_gt0: bool = False) -> str:
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


def cmd_normalize(args) -> int:
    try:
        xi = [Fraction(x.strip()) for x in args.xi.split(",") if x.strip()]
    except (ValueError, ZeroDivisionError) as ex:
        print(f"error: bad --xi value: {ex}", file=sys.stderr)
        return EXIT_USAGE
    n = args.n
    if len(xi) != n - 1:
        print(f"error: --xi needs n-1 = {n-1} values", file=sys.stderr)
        return EXIT_USAGE
    lam = Fraction(args.lam) if args.lam is not None else Fraction(0)
    coeffs = JordanFamilyCoeffs(n, xi, lam)
    constant_mode = xi[0] == 0
    if constant_mode and args.alpha is None:
        print(
            "error: xi_0 = 0 is the constant-eigenvalue case; pass --alpha "
            "with the leading index (xi_alpha = 1)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        if constant_mode:
            norm, transcript, alpha, m = lie_flow_normalize_constant_eig(coeffs)
            if alpha != args.alpha:
                print(
                    f"error: leading nonzero coefficient is xi_{alpha}, "
                    f"not xi_{args.alpha}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            form = _normal_form_text(n, norm.xi, with_gt0=True)
            extra = {"alpha": alpha, "m": m}
        else:
            norm, transcript = lie_flow_normalize(coeffs)
            form = _normal_form_text(n, norm.xi)
            extra = {}
    except ScalingNotNormalized as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "tool": "hamop",
        "report_version": REPORT_VERSION,
        "command": "normalize",
        "n": n,
        "input_xi": [format_rational(x) for x in xi],
        **extra,
        "normal_form": form,
        "coefficients": [format_rational(x) for x in norm.xi],
        "flows": [
            {"k": k, "t": format_rational(t) if t is not None else None}
            for k, t in transcript
        ],
    }
    lines = [f"normal form: {form}"]
    for k, t in transcript:
        lines.append(
            f"flow k={k}: " + ("skipped (ladder coefficient 0)" if t is None else f"t = {format_rational(t)}")
        )
    _write(args, payload, lines)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# frobenius
# ---------------------------------------------------------------------------


def cmd_frobenius(args) -> int:
    if args.n < 2:
        print("error: --n must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    data = build_cp_frobenius(args.n)
    report = check_frobenius_axioms(data)
    matches = intersection_matches_mu(data)
    payload = {
        "tool": "hamop",
        "report_version": REPORT_VERSION,
        "command": "frobenius",
        **report.to_dict(),
        "intersection_form_equals_mu": matches,
    }
    lines = []
    for name, (ok, w) in report.axioms.items():
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}" + (f"   witness {w}" if w else ""))
    lines.append(
        "euler scalings (e, c, g_cov): "
        + ", ".join(str(report.scalings[k]) for k in ("e", "c", "g_cov"))
    )
    lines.append(f"intersection form equals mu({args.n};0): {matches}")
    lines.append(f"verdict: {'pass' if report.verdict and matches else 'fail'}")
    _write(args, payload, lines)
    return EXIT_PASS if report.verdict and matches else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hamop",
        description="Exact verification, classification and normalization of "
        "first-order Hamiltonian operators defined by pairs (or tuples) of "
        "flat contravariant metrics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_mode=False):
        # argparse converts a string default with ``type``, so a bad
        # $HAMOP_SEED is a usage error unless --seed overrides it
        sp.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV, "0"),
                        help=f"random seed (default from ${SEED_ENV} or 0)")
        sp.add_argument("--output", choices=("json", "text"), default="text")
        sp.add_argument("--out", help="write the report to this path")
        if with_mode:
            sp.add_argument("--mode", choices=("symbolic", "sampled"), default=None,
                            help="how the d = 2 Mokhov cross-check runs: proven "
                            "(symbolic) or at seeded points mod p (sampled); the "
                            "linearity/Nijenhuis/Killing triple is always proven "
                            "(default: symbolic for n <= 8, sampled otherwise)")

    sp = sub.add_parser("verify", help="verify Hamiltonianity of a spec file")
    sp.add_argument("input", help="operator spec JSON file")
    sp.add_argument("--timing", action="store_true",
                    help="include wall-clock timing in the report")
    common(sp, with_mode=True)
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
                    help="leading index for the constant-eigenvalue case")
    sp.add_argument("--lam", dest="lam", default=None,
                    help="constant part parameter lambda (default 0)")
    common(sp)
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("frobenius", help="Frobenius axioms and intersection form")
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_frobenius)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse exits 2 on usage errors already
        return int(ex.code or 0)
    try:
        return args.fn(args)
    except _OutputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except HamopError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as ex:
        # no traceback may pass for "verification failed" (exit 1)
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
