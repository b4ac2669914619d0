"""Every residual of eight reference ``verify`` runs, pinned to the last bit.

``golden_residuals.json`` holds, as ``float.hex``, each record's residual for
the relation suites at (n, L) = (4,3) seed 1, (3,3) seed 0 and (2,5) seed 1,
the ``bgg,trace`` suites at (3,2), all at the default twist, the carrier
suites ``rll,fusion,factorization`` at n = 2 and n = 3 with the default
truncation and at n = 4 with ``--nmax 5 --buffer 4``, and the ``fusion`` and
``factorization`` suites at n = 4 with the default ``--nmax 8`` (12 modes,
the buffered block holding the states of total excitation at most 4).  The
``bgg`` value was regenerated when the signed-resolution check stopped
damping and extrapolating: it builds every member once, at the default twist,
and reads 9.5e-13 where the damped route read 5.0e-12.  The other relation
values were produced by the dictionary-based operator substrate;
the array-based one performs the same floating-point operations in the same
order, so they must not move at all.  The carrier values at n = 2, 3 and
``--nmax 5`` were produced while the fusion checks still kept their own matrix
type over the oscillator algebra, and the n = 4 ``--nmax 8`` values while
every Fock matrix was still built on the whole truncated space; ``CarrierOp``
sums every entry in the same order, and a matrix built only on the rows a
product reads holds those rows unchanged, so they must not move either.

A change that reorders a summation (for example dense BLAS sector blocks,
ROADMAP item 2) moves these residuals at rounding level.  Such a change must
regenerate the file on purpose and record in CHANGES.md which residuals moved
and by how much.
"""

import json
from pathlib import Path

import pytest

from qlab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_residuals.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
def test_residuals_are_bitwise_unchanged(case, capsys):
    main(case["argv"])
    records = json.loads(capsys.readouterr().out)["records"]
    got = [[r["name"], float(r["residual"]).hex()] for r in records]
    assert got == case["residuals"]
