import json
import random
from fractions import Fraction

import pytest

from hamop.catalog import catalog, get_entry, mokhov_operator
from hamop.errors import SpecFileError
from hamop.metrics import LinearMetric, coefficient_arrays
from hamop.specfile import (
    default_param_values,
    dump_operator_spec,
    load_operator_spec,
    specialize_spec,
)


def op5_file():
    return {
        "n": 2,
        "d": 2,
        "metrics": [
            {"constant": [["0/1", "1/1"], ["1/1", "0/1"]], "linear": []},
            {
                "constant": [["0/1", "0/1"], ["0/1", "0/1"]],
                "linear": [
                    {"i": 1, "j": 1, "k": 1, "coeff": "-2/1"},
                    {"i": 1, "j": 2, "k": 2, "coeff": "1"},
                ],
            },
        ],
    }


def test_round_trip():
    spec = load_operator_spec(op5_file())
    assert spec.n == 2 and spec.d == 2
    dumped = dump_operator_spec(spec)
    again = load_operator_spec(dumped)
    for m1, m2 in zip(spec.metrics, again.metrics):
        assert m1.mat == m2.mat
    # serialized rationals always carry an explicit denominator
    assert dumped["metrics"][1]["linear"][0]["coeff"] == "-2/1"


def test_symmetry_enforced_on_load():
    spec = load_operator_spec(op5_file())
    gt = spec.metrics[1]
    assert gt.mat[0, 1] == gt.mat[1, 0]


def test_unknown_fields_rejected():
    data = op5_file()
    data["extra"] = 1
    with pytest.raises(SpecFileError, match="unknown"):
        load_operator_spec(data)
    data = op5_file()
    data["metrics"][0]["foo"] = []
    with pytest.raises(SpecFileError, match="unknown"):
        load_operator_spec(data)
    data = op5_file()
    data["metrics"][1]["linear"][0]["extra"] = 0
    with pytest.raises(SpecFileError, match="unknown"):
        load_operator_spec(data)


def test_duplicate_entries_rejected():
    data = op5_file()
    data["metrics"][1]["linear"].append({"i": 1, "j": 1, "k": 1, "coeff": "3/1"})
    with pytest.raises(SpecFileError, match="duplicate"):
        load_operator_spec(data)
    # the mirrored (j, i, k) slot counts as the same entry
    data = op5_file()
    data["metrics"][1]["linear"].append({"i": 2, "j": 1, "k": 2, "coeff": "1/1"})
    with pytest.raises(SpecFileError, match="duplicate"):
        load_operator_spec(data)


def test_validation_errors():
    data = op5_file()
    data["metrics"][0]["constant"][0][1] = "2/1"  # breaks symmetry
    with pytest.raises(SpecFileError, match="symmetric"):
        load_operator_spec(data)
    data = op5_file()
    data["metrics"][1]["linear"][0]["k"] = 3
    with pytest.raises(SpecFileError, match="out of"):
        load_operator_spec(data)
    data = op5_file()
    data["metrics"][1]["linear"][0]["coeff"] = 0.5
    with pytest.raises(SpecFileError, match="strings"):
        load_operator_spec(data)
    with pytest.raises(SpecFileError, match="JSON"):
        load_operator_spec("{not json")
    data = op5_file()
    data["d"] = 3
    with pytest.raises(SpecFileError, match="list of d"):
        load_operator_spec(data)
    # degenerate metric rejected
    data = op5_file()
    data["metrics"][1] = {"constant": [["0/1", "0/1"], ["0/1", "0/1"]], "linear": []}
    with pytest.raises(SpecFileError, match="degenerate"):
        load_operator_spec(data)


def test_one_based_indices():
    data = op5_file()
    data["metrics"][1]["linear"][0]["i"] = 0
    with pytest.raises(SpecFileError, match="out of"):
        load_operator_spec(data)


def test_specialize_and_defaults():
    e = get_entry("thm3-case1")
    values = default_param_values(e.spec)
    assert len(values) == 1
    spec = specialize_spec(e.spec, values)
    assert spec.nvars == spec.n == 3
    # specializing a parameter-free spec is the identity
    m = mokhov_operator(3)
    assert default_param_values(m) == []
    with pytest.raises(ValueError):
        specialize_spec(e.spec, [])


def test_dump_rejects_formal_parameters():
    e = get_entry("thm3-case1")
    with pytest.raises(ValueError, match="formal"):
        dump_operator_spec(e.spec)


def test_json_stability():
    spec = load_operator_spec(op5_file())
    d1 = json.dumps(dump_operator_spec(spec))
    d2 = json.dumps(dump_operator_spec(load_operator_spec(json.loads(d1))))
    assert d1 == d2


def test_constant_part_is_compared_in_lowest_terms():
    data = op5_file()
    data["metrics"][0]["constant"] = [["0/1", "2/4"], ["1/2", "0/1"]]
    g = load_operator_spec(data).g
    assert g.mat == LinearMetric.constant([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]).mat
    data["metrics"][0]["constant"][0][1] = "2/3"
    with pytest.raises(SpecFileError, match="not symmetric at"):
        load_operator_spec(data)


def _rational_spec(rng, n):
    """A spec file of two metrics with seeded rational entries over several
    denominators, written unreduced ("2/4")."""
    def q():
        d = rng.choice([1, 2, 3, 4, 6])
        return f"{rng.randint(-3, 3) * rng.choice([1, 2])}/{d * rng.choice([1, 2])}"
    metrics = []
    for _ in range(2):
        const = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                const[i][j] = const[j][i] = q()
        linear = [{"i": i, "j": j, "k": k, "coeff": q()} for i in range(1, n + 1)
                  for j in range(i, n + 1) for k in range(1, n + 1) if rng.random() < 0.4]
        metrics.append({"constant": const, "linear": linear})
    metrics[0] = {"constant": [["1/1" if i + j == n - 1 else "0/1" for j in range(n)]
                               for i in range(n)], "linear": []}
    return {"n": n, "d": 2, "metrics": metrics}


def test_loaded_arrays_are_the_arrays_of_the_matrix():
    files = [op5_file()]
    for e in catalog():
        if e.n <= 4:
            values = default_param_values(e.spec)
            files.append(dump_operator_spec(specialize_spec(e.spec, values) if values else e.spec))
    rng = random.Random(3)
    while len(files) < 60:
        try:
            files.append(_rational_spec(rng, rng.randint(1, 4)))
            load_operator_spec(files[-1])
        except SpecFileError:  # identically degenerate
            files.pop()
    for data in files:
        for m in load_operator_spec(data).metrics:
            D, M = m.arrays
            assert all(type(x) is int for k in M for row in k for x in row)
            assert (D, M) == coefficient_arrays(m.mat, m.n)
