import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hamop.cli import main
from hamop.errors import (
    DisagreementBug,
    FirstMetricNotConstant,
    IdenticallySingular,
    UnsupportedEigenvalueField,
)
from hamop import pointcheck as pc
from hamop import spectral
from hamop.poly import MultiPoly
from hamop.specfile import default_param_values, dump_operator_spec, specialize_spec
from hamop.catalog import catalog, mokhov_operator

from test_specfile import op5_file


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data) if isinstance(data, dict) else data)
    return str(p)


def test_verify_pass_exit0(tmp_path, capsys):
    path = write(tmp_path, "op5.json", op5_file())
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_verify_fail_exit1_with_killing_witness(tmp_path, capsys):
    # changing gt^{11} to -3u1 breaks the Killing condition: the residual at
    # (1,1,2) becomes 2*c^{12}_2 + c^{11}_1 = -1
    data = op5_file()
    data["metrics"][1]["linear"][0]["coeff"] = "-3/1"
    path = write(tmp_path, "bad.json", data)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL killing" in out
    assert "(1, 1, 2)" in out and "-1/1" in out


def test_verify_malformed_exit2(tmp_path, capsys):
    path = write(tmp_path, "broken.json", "{ not json")
    assert main(["verify", path]) == 2


def test_verify_non_utf8_file_exit2(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["verify", str(p)]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err


def test_unwritable_out_exit2(tmp_path, capsys):
    path = write(tmp_path, "op5.json", op5_file())
    out = tmp_path / "missing" / "x.json"
    assert main(["verify", path, "--output", "json", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, target", [
    ("verify", "verify_operator"), ("classify", "segre_of_spec"),
], ids=["verify", "classify"])
@pytest.mark.parametrize("error, line, code", [
    pytest.param(error, line, code, id=error.__name__) for error, line, code in (
        (RuntimeError, "internal error: RuntimeError: boom", 3),
        (IdenticallySingular, "internal error: boom", 3),
        (DisagreementBug, "internal error: boom", 3),
        (UnsupportedEigenvalueField, "error: boom", 4),
        (FirstMetricNotConstant, "error: boom", 2),
    )
])
def test_raised_error_exit_table(tmp_path, capsys, monkeypatch, command, target, error, line, code):
    # an error a command raises gets the same stderr line and exit code
    # from every command: any HamopError outside the table is internal
    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(f"hamop.cli.{target}", boom)
    path = write(tmp_path, "op5.json", op5_file())
    assert main([command, path]) == code
    out, err = capsys.readouterr()
    assert out == "" and err == line + "\n"


def test_verify_json_deterministic(tmp_path):
    path = write(tmp_path, "op5.json", op5_file())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", path, "--output", "json", "--seed", "5", "--out", str(out1)]) == 0
    assert main(["verify", path, "--output", "json", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["verdict"] == "pass"
    assert payload["timing_ms"] is None
    assert payload["segre"]["segre_type"] == "[2]"


def test_verify_timing_flag(tmp_path):
    path = write(tmp_path, "op5.json", op5_file())
    out = tmp_path / "t.json"
    assert main(["verify", path, "--output", "json", "--timing", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["timing_ms"] is not None


def test_verify_timing_flag_in_text(tmp_path, capsys):
    # the text report ends with a timing line only when --timing is given
    path = write(tmp_path, "op5.json", op5_file())
    assert main(["verify", path]) == 0
    plain = capsys.readouterr().out
    assert "timing" not in plain
    assert main(["verify", path, "--timing"]) == 0
    timed = capsys.readouterr().out.splitlines()
    assert timed[:-1] == plain.splitlines()
    label, value = timed[-1].split(": ")
    assert label == "timing_ms" and int(value) >= 0


def test_verify_sampled_mode_flag(tmp_path, capsys):
    # verify has one exact mode and no option to choose one: the former
    # flag is argparse's usage error, and no report is written
    flag = "--" + "mode"
    path = write(tmp_path, "op5.json", op5_file())
    out = tmp_path / "s.json"
    assert main(["verify", path, flag, "sampled", "--output", "json", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("usage: hamop ")
    assert err.endswith(f"hamop: error: unrecognized arguments: {flag} sampled\n")
    assert not out.exists()
    assert main(["verify", "--help"]) == 0
    assert "mode" not in capsys.readouterr().out


def test_classify_operator5(tmp_path, capsys):
    path = write(tmp_path, "op5.json", op5_file())
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "segre type: [2]" in out
    assert "1/1*u2" in out  # interpolated eigenvalue polynomial
    assert "mokhov-n2" in out


def test_classify_direct_sum_reducible_hint(tmp_path, capsys):
    from hamop.catalog import direct_sum
    from hamop.metrics import LinearMetric, OperatorSpec

    one = OperatorSpec([LinearMetric.constant([[1]]), LinearMetric.constant([[4]])])
    s = direct_sum(mokhov_operator(2), one)
    path = write(tmp_path, "sum.json", dump_operator_spec(s))
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "may be reducible" in out


def test_classify_accepts_failing_spec(tmp_path, capsys):
    data = op5_file()
    data["metrics"][1]["linear"][0]["coeff"] = "-3/1"
    path = write(tmp_path, "bad.json", data)
    assert main(["classify", path]) == 0


def test_catalog_unknown_id(tmp_path, capsys):
    assert main(["catalog", "--id", "unknown"]) == 2
    err = capsys.readouterr().err
    assert "available" in err and "mokhov-n2" in err


def test_catalog_list_with_filter(capsys):
    assert main(["catalog", "--n", "4", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "s22-case1" in out and "mokhov-n4" in out
    assert "mokhov-n3" not in out


def test_catalog_emit_round_trip(tmp_path, capsys):
    out = tmp_path / "entry.json"
    assert main(["catalog", "--id", "mokhov", "--n", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 3
    path = write(tmp_path, "emitted.json", data)
    assert main(["verify", path]) == 0


def test_catalog_emit_with_params_round_trip(tmp_path, capsys):
    out = tmp_path / "thm3.json"
    assert main(["catalog", "--id", "thm3-case1", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_normalize_commands(capsys):
    assert main(["normalize", "--n", "5", "--xi", "1,2,3,4"]) == 0
    out = capsys.readouterr().out
    assert "normal form: mu(5;0)" in out
    assert main(["normalize", "--n", "7", "--xi", "1,1/2,3,-2,5,7"]) == 0
    out = capsys.readouterr().out
    assert "mu(7;0) + 67/24*mu(7;2)" in out
    # constant-eigenvalue mode demanded when xi_0 = 0
    assert main(["normalize", "--n", "5", "--xi", "0,1,3,4"]) == 2
    err = capsys.readouterr().err
    assert "--alpha" in err
    assert main(["normalize", "--n", "5", "--xi", "0,1,3,4", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "mu(5;1)" in out and "gt0" in out
    # wrong count
    assert main(["normalize", "--n", "5", "--xi", "1,2"]) == 2


def test_normalize_checks_a_given_alpha(capsys):
    # --alpha must name the leading nonzero xi, which is xi_0 here
    assert main(["normalize", "--n", "4", "--xi", "1,1,2", "--alpha", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: leading nonzero coefficient is xi_0, not xi_2\n"
    assert main(["normalize", "--n", "4", "--xi", "1,1,2", "--alpha", "0"]) == 0
    assert capsys.readouterr().out.startswith("normal form: mu(4;0) + mu(4;1)\n")


@pytest.mark.parametrize("argv, message", [
    (["--n", "1", "--xi", ","], "--n must be at least 2"),
    (["--n", "3", "--xi", "1e3,2"], "bad --xi value '1e3': expected an integer or p/q"),
], ids=["n-1", "xi-exponent"])
def test_normalize_bad_values_exit2(capsys, argv, message):
    # a malformed option value is a usage error, never an internal error
    assert main(["normalize", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_normalize_refuses_lam(capsys):
    # lambda reached no normalize output, so the option is gone
    assert main(["normalize", "--n", "3", "--xi", "1,2", "--lam", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: unrecognized arguments: --lam 5\n")


def test_frobenius_command(capsys):
    assert main(["frobenius", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "intersection form equals mu(4;0): True" in out
    assert main(["frobenius", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "1, 1, -1" in out  # scalings (n-1, n-1, 1-n) at n = 2
    assert main(["frobenius", "--n", "1"]) == 2


def test_env_seed(monkeypatch, tmp_path):
    monkeypatch.setenv("HAMOP_SEED", "42")
    path = write(tmp_path, "op5.json", op5_file())
    out = tmp_path / "r.json"
    assert main(["verify", path, "--output", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 42


def test_env_seed_is_read_at_every_call(monkeypatch, tmp_path):
    # the parser is built once per process; the seed default is not
    path = write(tmp_path, "op5.json", op5_file())
    out = tmp_path / "r.json"
    seeds = []
    for value in ("42", "7"):
        monkeypatch.setenv("HAMOP_SEED", value)
        assert main(["verify", path, "--output", "json", "--out", str(out)]) == 0
        seeds.append(json.loads(out.read_text())["seed"])
    monkeypatch.delenv("HAMOP_SEED")
    assert main(["verify", path, "--output", "json", "--out", str(out)]) == 0
    assert seeds + [json.loads(out.read_text())["seed"]] == [42, 7, 0]


def test_bad_env_seed_is_a_usage_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("HAMOP_SEED", "abc")
    path = write(tmp_path, "op5.json", op5_file())
    assert main(["verify", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("usage:") == 1
    assert err.endswith("error: argument --seed: invalid int value: 'abc'\n")
    assert main(["verify", path, "--seed", "3"]) == 0
    assert "seed: 3" in capsys.readouterr().out


def test_classify_eigenvalues_outside_q_i_exit4(tmp_path, capsys):
    # L = diag(2, 1) J has characteristic polynomial x^2 - 2, which does not
    # split over Q(i) at any point: a well-formed spec the classifier does
    # not support, so not a usage error
    from hamop.metrics import LinearMetric, OperatorSpec

    spec = OperatorSpec([LinearMetric.antidiagonal(2), LinearMetric.constant([[2, 0], [0, 1]])])
    path = write(tmp_path, "sqrt2.json", dump_operator_spec(spec))
    assert main(["classify", path]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: characteristic polynomial does not split over Q(i)")
    assert main(["verify", path]) == 0


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("slot", [0, 1])
def test_identically_degenerate_metric_exit2(tmp_path, capsys, command, slot):
    # [[u1, u1], [u1, u1]]: non-constant, with det = 0 identically
    data = op5_file()
    data["metrics"][slot] = {
        "constant": [["0/1", "0/1"], ["0/1", "0/1"]],
        "linear": [
            {"i": i, "j": j, "k": 1, "coeff": "1/1"}
            for i, j in ((1, 1), (1, 2), (2, 2))
        ],
    }
    path = write(tmp_path, "degenerate.json", data)
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"metrics[{slot}]: metric is identically degenerate" in err


def test_single_metric_spec(tmp_path, capsys):
    # d = 1 has no affinor: verify checks flat(g1) alone and reports the
    # missing Segre type in its payload; classify does not support the spec
    data = {"n": 2, "d": 1, "metrics": [op5_file()["metrics"][0]]}
    path = write(tmp_path, "single.json", data)
    assert main(["verify", path, "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == 1 and report["verdict"] == "pass"
    assert [c["name"] for c in report["conditions"]] == ["flat(g1)"]
    assert report["segre"] == {
        "error": "a Segre type needs two metrics; the spec has d = 1"
    }
    assert main(["classify", path]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "error: a Segre type needs two metrics; the spec has d = 1\n"


def _mutated(path, value):
    """op5_file() with the node at ``path`` (keys and list indices) set to ``value``."""
    data = op5_file()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("path, value, message", [
    (("metrics", 0, "constant"), 5, "metrics[0]: constant matrix must be 2x2"),
    (("metrics", 0, "constant"), [5, 6], "metrics[0]: constant matrix must be 2x2"),
    (("metrics", 1, "linear"), 5, "metrics[1]: linear must be a list of entries"),
    (("n",), True, "n must be a positive integer"),
    (("d",), True, "d must be a positive integer"),
    (("metrics", 1, "linear", 0, "i"), True, "metrics[1].linear[0]: index i=True out of 1..2"),
], ids=["constant-int", "constant-int-rows", "linear-int", "n-true", "d-true", "index-true"])
def test_spec_type_errors_exit2(tmp_path, capsys, command, path, value, message):
    # a JSON value of the wrong type is a usage error, never an internal
    # error, and true is not the integer 1
    spec = write(tmp_path, "typed.json", _mutated(path, value))
    assert main([command, spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_non_constant_first_metric_exit2(tmp_path, capsys, command):
    # both commands need the first metric in constant form: a usage error
    data = op5_file()
    data["metrics"].reverse()
    spec = write(tmp_path, "swapped.json", data)
    assert main([command, spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert "first metric" in err and "constant" in err


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("coeff", ["1e3000", "1e999999999"])
def test_exponent_coefficient_exit2(tmp_path, capsys, command, coeff):
    # spec rationals are integers or p/q: an exponent form is refused before
    # it builds its power of ten
    spec = write(tmp_path, "exponent.json", _mutated(("metrics", 1, "linear", 0, "coeff"), coeff))
    assert main([command, spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: metrics[1].linear[0].coeff: bad rational '{coeff}': "
        "expected an integer or p/q\n"
    )


def test_many_digit_residuals_print_exactly(tmp_path, capsys):
    # c^{11}_1 = 10^2500 in mokhov-n3 (it was -4) breaks Killing at (1,1,3),
    # whose residual c^{11}_1 + 2 c^{13}_3 is 10^2500 + 4 at every point;
    # other residuals have more digits than Python's default string limit
    data = json.loads((Path(__file__).parent / "golden" / "mokhov-n3.spec.json").read_text())
    assert data["metrics"][1]["linear"][0] == {"i": 1, "j": 1, "k": 1, "coeff": "-4/1"}
    data["metrics"][1]["linear"][0]["coeff"] = f"{10**2500}/1"
    path = write(tmp_path, "big.json", data)
    limit = sys.get_int_max_str_digits()
    assert main(["verify", path, "--output", "json"]) == 1
    assert sys.get_int_max_str_digits() == limit
    out, err = capsys.readouterr()
    assert err == ""
    conditions = {c["name"]: c for c in json.loads(out)["conditions"]}
    killing = conditions["killing"]["witness"]
    assert killing["indices"] == [1, 1, 3] and killing["residual"] == f"{10**2500 + 4}/1"
    assert max(len(c.get("witness", {}).get("residual", "")) for c in conditions.values()) > 4300


def test_passing_verify_builds_no_polynomial_matrix(tmp_path, capsys, monkeypatch):
    # a loaded metric is its integer arrays: a passing verify of a catalog
    # entry builds no LinearMetric.mat (each would be n^2 from_affine_parts
    # calls) and draws its scan points as ints
    built, points = [], []
    from_affine_parts, sample_points = MultiPoly.from_affine_parts, pc.sample_points
    monkeypatch.setattr(MultiPoly, "from_affine_parts",
                        staticmethod(lambda *a: built.append(a) or from_affine_parts(*a)))

    def spy(*args, **kwargs):
        pts = sample_points(*args, **kwargs)
        points.extend(pts)
        return pts

    monkeypatch.setattr(pc, "sample_points", spy)
    monkeypatch.setattr(spectral, "sample_points", spy)
    for e in catalog():
        if e.n > 5:
            continue
        values = default_param_values(e.spec)
        spec = specialize_spec(e.spec, values) if values else e.spec
        path = write(tmp_path, e.id + ".json", dump_operator_spec(spec))
        assert main(["verify", path, "--output", "json"]) == 0, e.id
        assert not built, e.id
    capsys.readouterr()
    assert points and all(type(x) is int for pt in points for x in pt)
