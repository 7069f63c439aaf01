"""JSON operator-spec files and report serialization.

An operator spec file carries exact rationals as "p/q" or integer strings
(never floats, decimals or exponents) and 1-based indices matching u1..un:

    {
      "n": 2, "d": 2,
      "variables": ["u1", "u2"],            # optional
      "metrics": [
        {"constant": [["0/1","1/1"],["1/1","0/1"]],
         "linear": [{"i":1,"j":1,"k":1,"coeff":"-2/1"}]},
        ...
      ]
    }

Unknown fields are rejected, the constant part must be symmetric, the sparse
linear list is symmetrized in (i, j) on load, and a second entry for the same
(i, j, k) slot (in either index order) is a duplicate error.

Each rational is read as an int pair (p, q) in lowest terms
(``scalars.parse_ratio``), so "2/4" and "1/2" are the same pair to the
symmetry check.  ``LinearMetric.from_g0_c`` builds the metric's integer
coefficient arrays D g = M0 + u_s M_s straight from the pairs: loading
builds no Fraction and no polynomial matrix (the metric builds ``mat`` on
first read).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SpecFileError
from .metrics import LinearMetric, OperatorSpec
from .scalars import format_rational, parse_ratio

_TOP_FIELDS = {"n", "d", "variables", "metrics"}
_METRIC_FIELDS = {"constant", "linear"}
_LINEAR_FIELDS = {"i", "j", "k", "coeff"}
PARAM_TRIES = 100  # parameter bases tried by default_param_values


def _rational(text, where: str) -> tuple[int, int]:
    """The rational ``text`` as (p, q) in lowest terms (``parse_ratio``)."""
    if isinstance(text, bool) or isinstance(text, float):
        raise SpecFileError(f"{where}: rationals must be strings \"p/q\"")
    try:
        return parse_ratio(str(text))
    except ValueError as ex:
        raise SpecFileError(f"{where}: bad rational {text!r}: {ex}") from None


def _is_int(v) -> bool:
    """A JSON integer; the JSON literals true and false are not, though bool
    is an int."""
    return isinstance(v, int) and not isinstance(v, bool)


def load_operator_spec(data) -> OperatorSpec:
    """Parse and validate a spec file given as a dict or as JSON text (a str
    is always parsed as JSON, never read as a path)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as ex:
            raise SpecFileError(f"invalid JSON: {ex}") from None
    if not isinstance(data, dict):
        raise SpecFileError("spec file must be a JSON object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise SpecFileError(f"unknown fields: {sorted(unknown)}")
    for req in ("n", "d", "metrics"):
        if req not in data:
            raise SpecFileError(f"missing field {req!r}")
    n, d = data["n"], data["d"]
    if not _is_int(n) or n < 1:
        raise SpecFileError("n must be a positive integer")
    if not _is_int(d) or d < 1:
        raise SpecFileError("d must be a positive integer")
    variables = data.get("variables")
    if variables is not None:
        if (
            not isinstance(variables, list)
            or len(variables) != n
            or not all(isinstance(v, str) for v in variables)
        ):
            raise SpecFileError("variables must be a list of n names")
    metrics_raw = data["metrics"]
    if not isinstance(metrics_raw, list) or len(metrics_raw) != d:
        raise SpecFileError("metrics must be a list of d entries")
    metrics = []
    for a, mraw in enumerate(metrics_raw):
        where = f"metrics[{a}]"
        if not isinstance(mraw, dict):
            raise SpecFileError(f"{where}: must be an object")
        unknown = set(mraw) - _METRIC_FIELDS
        if unknown:
            raise SpecFileError(f"{where}: unknown fields {sorted(unknown)}")
        const = mraw.get("constant")
        if const is None:
            raise SpecFileError(f"{where}: missing constant matrix")
        if (
            not isinstance(const, list)
            or len(const) != n
            or any(not isinstance(row, list) or len(row) != n for row in const)
        ):
            raise SpecFileError(f"{where}: constant matrix must be {n}x{n}")
        g0 = [
            [_rational(const[i][j], f"{where}.constant[{i}][{j}]") for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(i + 1, n):
                if g0[i][j] != g0[j][i]:
                    raise SpecFileError(
                        f"{where}: constant matrix not symmetric at ({i+1},{j+1})"
                    )
        c = [[[(0, 1)] * n for _ in range(n)] for _ in range(n)]
        seen = set()
        linear = mraw.get("linear", [])
        if not isinstance(linear, list):
            raise SpecFileError(f"{where}: linear must be a list of entries")
        for t, entry in enumerate(linear):
            ew = f"{where}.linear[{t}]"
            if not isinstance(entry, dict):
                raise SpecFileError(f"{ew}: must be an object")
            unknown = set(entry) - _LINEAR_FIELDS
            if unknown:
                raise SpecFileError(f"{ew}: unknown fields {sorted(unknown)}")
            try:
                i, j, k = entry["i"], entry["j"], entry["k"]
            except KeyError as ex:
                raise SpecFileError(f"{ew}: missing {ex}") from None
            for name, v in (("i", i), ("j", j), ("k", k)):
                if not _is_int(v) or not 1 <= v <= n:
                    raise SpecFileError(f"{ew}: index {name}={v!r} out of 1..{n}")
            slot = (min(i, j), max(i, j), k)
            if slot in seen:
                raise SpecFileError(f"{ew}: duplicate entry for (i,j,k)=({i},{j},{k})")
            seen.add(slot)
            coeff = _rational(entry.get("coeff"), f"{ew}.coeff")
            c[i - 1][j - 1][k - 1] = coeff
            c[j - 1][i - 1][k - 1] = coeff
        try:
            metrics.append(LinearMetric.from_g0_c(g0, c))
        except ValueError as ex:
            raise SpecFileError(f"{where}: {ex}") from None
    try:
        return OperatorSpec(metrics)
    except ValueError as ex:
        raise SpecFileError(str(ex)) from None


def dump_operator_spec(spec: OperatorSpec, variables=None) -> dict:
    """Serialize a parameter-free operator spec to the file format."""
    if spec.nvars != spec.n:
        raise ValueError("spec has formal parameters; specialize them first")
    n = spec.n
    out = {"n": n, "d": spec.d}
    if variables is not None:
        out["variables"] = list(variables)
    ms = []
    for m in spec.metrics:
        # D m = M0 + u_s M_s with int entries: the constant part is M0 / D
        # and d_k m^{ij} = M_k[i][j] / D
        D, M = m.arrays
        const = [[format_rational(Fraction(x, D)) for x in row] for row in M[0]]
        linear = [{"i": i + 1, "j": j + 1, "k": k,
                   "coeff": format_rational(Fraction(M[k][i][j], D))}
                  for i in range(n) for j in range(i, n) for k in range(1, n + 1) if M[k][i][j]]
        ms.append({"constant": const, "linear": linear})
    out["metrics"] = ms
    return out


def specialize_spec(spec: OperatorSpec, values) -> OperatorSpec:
    """Substitute rational values for the formal parameters (ring slots
    n+1..nvars, in order) and shrink the ring back to n variables."""
    n = spec.n
    nparams = spec.nvars - n
    if len(values) != nparams:
        raise ValueError(f"need {nparams} parameter values")
    subs = {n + 1 + t: Fraction(v) for t, v in enumerate(values)}
    metrics = []
    for m in spec.metrics:
        mat = m.mat.map(lambda p: p.substitute(subs).extended(n))
        metrics.append(LinearMetric(n, mat))
    return OperatorSpec(metrics)


def default_param_values(spec: OperatorSpec):
    """Deterministic rational values for the formal parameters such that the
    specialized spec is valid (all metrics non-degenerate)."""
    nparams = spec.nvars - spec.n
    if nparams == 0:
        return []
    for base in range(PARAM_TRIES):
        values = [Fraction(base + t + 1) for t in range(nparams)]
        try:
            specialize_spec(spec, values)
        except ValueError:
            continue
        return values
    raise ValueError("could not find non-degenerate parameter values")
