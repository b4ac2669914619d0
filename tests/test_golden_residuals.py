"""Every residual of nine reference ``verify`` runs, pinned to the last bit.

``golden_residuals.json`` holds, as ``float.hex``, each record's residual for
the relation suites at (n, L) = (4,3) seed 1, (3,3) seed 0, (2,5) seed 1 and
(3,4) seed 1, the ``bgg,trace`` suites at (3,2), all at the default twist,
the carrier suites ``rll,fusion,factorization`` at n = 2 and n = 3 with the default
truncation and at n = 4 with ``--nmax 5 --buffer 4``, and the ``fusion`` and
``factorization`` suites at n = 4 with the default ``--nmax 8``.  The
``bgg`` value was regenerated when the signed-resolution check stopped
damping and extrapolating: it builds every member once, at the default twist,
and reads 9.5e-13 where the damped route read 5.0e-12; the trace value
was produced by the dictionary-based operator substrate, and the
array-based one performs the same floating-point operations in the same
order, so it must not move at all.  The algebra relations of the
carrier suites were produced while the fusion checks still kept their own
matrix type over the oscillator algebra, and ``CarrierOp`` sums every entry
in the same order, so they must not move either.  The fusion ``blocks …``
and factorization ``ordered product …`` values were regenerated when those
identities came to be decided exactly in the oscillator algebra instead of
on a truncated Fock space: each reads 0.0, where the Fock route read 2e-16
to 1.8e-15, and no longer depends on ``--nmax`` or ``--buffer``.  The
``rll`` values were regenerated likewise when the exchange relation came to
be decided from the commutators of the Lax coefficients instead of at five
spectral pairs on a truncated Fock space: each reads 0.0, where the Fock
route read 5.6e-16 to 1.4e-14.
The (3,4) case was added, from the code that checked one spectral point at a
time, when the checks began to stack their points.  Adding it regenerated no
other value.

The relation values (the (4,3), (3,3), (2,5) and (3,4) cases) were
regenerated on purpose when the relation checks moved onto dense
letter-count sector blocks (``qlab.tensor.Blocks``): their products run
through BLAS, which sums in another order, so every such value moved at
rounding level (CHANGES.md lists each one).  No pass flag moved at (4,3),
(3,3) or (2,5); the ``bgg,trace`` and carrier values did not move at all.
The block products do not depend on the number of BLAS threads, so the same
values hold with one thread and with several.  They were regenerated once
more when the family members came to be built as sector blocks and their
values came to be formed with CPython's complex product throughout, the
rounding the sparse members had used: again every relation value could move
at rounding level, no pass flag moved at (4,3), (3,3) or (2,5), and the
``bgg,trace`` and carrier values did not move.  They were regenerated once
more when every ``Q_I`` of one size came to be built from one Wick
expansion, that of the set ``1..p``: a member of another set now reads each
entry off another pair of its rotation orbit, relabelled, and divides it by
that pair's phase, so it moves at rounding level, while the sets ``1..p``
keep their bits.  Only records that read such a set could move, and 13 of
them did (CHANGES.md lists each one); no pass flag moved in any case, and the
anchors, ``bgg,trace`` and carrier values did not move.

A change that reorders a summation moves these residuals at rounding level.
Such a change must regenerate the file on purpose and record in CHANGES.md
which residuals moved and by how much.
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
