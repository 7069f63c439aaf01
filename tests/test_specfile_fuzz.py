"""Fuzzed spec files through ``hamop verify`` and ``hamop classify``.

Each example takes a valid spec under ``golden/`` and makes one mutation:
it replaces a node (the whole document included) with a random JSON value,
drops a field or a list element, or adds a field.  Whatever the result, the
exit code means what it says (0 or 1 a verdict, 2 a usage error, 4 an input
the command does not support), no internal error is reported, and a spec
the loader accepts gives the same report after a dump and a reload.  The
draw is derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from hamop.cli import main
from hamop.errors import SpecFileError
from hamop.specfile import dump_operator_spec, load_operator_spec

GOLDEN = Path(__file__).parent / "golden"
BASES = [
    json.loads((GOLDEN / f"{case}.spec.json").read_text())
    for case in ("pencil-n2-raw", "pencil-n2-killing", "pencil-n2-d3", "mokhov-n3")
]
# the spec format's own names, so that added fields sometimes collide
NAMES = ["n", "d", "variables", "metrics", "constant", "linear", "i", "j", "k", "coeff"]

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.fractions(max_denominator=50).map(str)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every node's path (keys and list indices), the root's first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_specs(draw):
    data = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    paths = list(_paths(data))
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        path = draw(st.sampled_from(paths))
        value = draw(_json)
        if not path:
            return value
        _at(data, path[:-1])[path[-1]] = value
    elif action == "drop":
        path = draw(st.sampled_from(paths[1:]))
        del _at(data, path[:-1])[path[-1]]
    else:
        objects = [p for p in paths if isinstance(_at(data, p), dict)]
        target = _at(data, draw(st.sampled_from(objects)))
        target[draw(st.sampled_from(NAMES) | st.text(max_size=3))] = draw(_json)
    return data


def _run(command, data, directory):
    path = os.path.join(directory, f"{command}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, path, "--output", "json"])
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_specs())
def test_mutated_spec_files_keep_the_exit_code_contract(data):
    try:
        dumped = dump_operator_spec(load_operator_spec(data))
    except SpecFileError:
        dumped = None
    with tempfile.TemporaryDirectory() as directory:
        for command in ("verify", "classify"):
            code, out, err = _run(command, data, directory)
            assert code in (0, 1, 2, 4), (command, code, err)
            assert "internal error" not in err, (command, err)
            if code in (2, 4):
                assert out == "" and err.startswith("error: "), (command, err)
            if dumped is None:
                assert code == 2, (command, code)
            else:
                assert _run(command, dumped, directory) == (code, out, err), command
