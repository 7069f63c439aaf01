"""Byte-exact ``hamop verify`` and ``hamop classify`` JSON reports.

The spec of a catalog entry under ``golden/`` can be written by

    python -m hamop.cli catalog --id <case> --output json \
        --out golden/<case>.spec.json

Each verify report under ``golden/`` was written by

    python -m hamop.cli verify golden/<case>.spec.json --output json \
        --out golden/<case>.json

and each classify report by

    python -m hamop.cli classify golden/<case>.spec.json --output json \
        --out golden/<case>.classify.json

Every verify condition is exact, so each report is the one result of its
input and seed.  The cases cover a passing catalog entry (mokhov-n3), a
d = 3 entry (thm5-3d-1), a d = 4 entry with one formal parameter
(exampleN-N4, whose pairs against the linear g2 are proven on integer
coefficient arrays whose entries are polynomials in the parameter), a
passing n = 6 entry (mokhov-n6), a passing n = 4 entry with Segre type
[2,2] (s22-case2-b4p), whose Mokhov side, like
mokhov-n6's, is proven on the constant contravariant connection without a
scan, the constant n = 4 pencil g = [[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]],
h = diag(1, -1, 2, -2) (two-gaussian-pairs, not a catalog entry), and four
failing specs: an n = 2 and an n = 3 pencil (witnesses in
eight conditions, found at the scan points), an n = 4 Killing-space pencil
over the antidiagonal metric (pencil-n4-killing, the ``killing`` kind of
``perfbench/pencils.py`` drawn from ``random.Random(400)``, whose flat(g2),
T1..T5 and Nijenhuis witnesses come from the scan), and an n = 2, d = 3
spec (one linearity / Nijenhuis / Killing triple per unordered pair, with
witnesses against the constant and against a non-constant reference
metric).

The classify cases cover an affine eigenvalue fit over Q (mokhov-n3), ranks
over Q(i) with a conjugate pair of eigenvalues (complex-2x2, whose
``"eigenvalues"`` is null: the conjugate slots are sorted by real and then
imaginary part, so they swap with the sign of u4 and admit no affine fit),
a failing Killing pencil (pencil-n2-killing) whose sample points do not
all split over Q(i), and the eigenvalues +-i and +-2i of two-gaussian-pairs,
two Gaussian pairs of one multiplicity in one square-free factor of chi
(type [1]C+[1]C+[1]C+[1]C).  The JSON of the same input and seed may change
only together with ``cli.REPORT_VERSION``; a change that bumps it
regenerates these files with the commands above.
"""

from pathlib import Path

import pytest

from hamop.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    "mokhov-n3", "pencil-n2-raw", "thm5-3d-1", "exampleN-N4", "mokhov-n6",
    "s22-case2-b4p", "pencil-n3-raw", "pencil-n2-d3", "pencil-n4-killing", "two-gaussian-pairs",
]


@pytest.mark.parametrize("case", CASES)
def test_verify_report_is_golden(tmp_path, case):
    out = tmp_path / "report.json"
    golden = (GOLDEN / f"{case}.json").read_bytes()
    rc = main(["verify", str(GOLDEN / f"{case}.spec.json"), "--output", "json",
               "--out", str(out)])
    assert rc == (0 if b'"verdict": "pass"' in golden else 1)
    assert out.read_bytes() == golden


CLASSIFY_CASES = ["mokhov-n3", "complex-2x2", "pencil-n2-killing", "two-gaussian-pairs"]


@pytest.mark.parametrize("spec", CLASSIFY_CASES)
def test_classify_report_is_golden(tmp_path, spec):
    out = tmp_path / "report.json"
    rc = main(["classify", str(GOLDEN / f"{spec}.spec.json"), "--output", "json",
               "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{spec}.classify.json").read_bytes()
