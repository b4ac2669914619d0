"""The benchmark's own checks must count a wrong output as a failed operation.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import copy
import io
import json

import scipy.sparse as sp

import child
from qlab import cli, oscillator


def _doc(op: child.Op) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(op.argv)
    return json.loads(buf.getvalue())


def test_perturbed_energy_is_a_failed_operation():
    op = child.Op("spectrum", 2, 3)
    doc = _doc(op)
    clean = child.Outcome.of(op, doc)
    assert clean.problems == [] and clean.failed == 0

    wrong_doc = copy.deepcopy(doc)
    wrong_doc["rows"][3]["E_direct"] += 1e-6
    wrong = child.Outcome.of(op, wrong_doc)
    assert wrong.problems and wrong.failed == wrong.attempted == 1


def test_wrong_output_in_a_later_round_is_a_failed_operation(monkeypatch):
    exact = cli.run_spectrum
    calls = []

    def stale_after_first(cfg):
        doc = exact(cfg)
        calls.append(cfg)
        if len(calls) > 1:
            doc["rows"][3]["E_direct"] += 1e-6
        return doc

    monkeypatch.setattr(cli, "run_spectrum", stale_after_first)
    _, _, _, outcomes, _, _ = child.run_rounds([child.Op("spectrum", 2, 3)], 0.0)
    assert len(outcomes) == child.MIN_ROUNDS
    assert outcomes[0][0].problems == []
    assert all(r[0].problems and r[0].failed == 1 for r in outcomes[1:])


def test_perturbed_fock_entry_is_a_failed_operation(monkeypatch):
    spaces = {((("m", 1, 2), ("m", 1, 3), ("m", 2, 3)), 4): 0}
    op = child.Op("verify", 3, None, ("fusion",))
    doc = _doc(op)
    clean = child.Outcome.of(op, doc)
    child.check_once([clean], spaces)
    assert clean.problems == [] and clean.failed == 0

    exact = oscillator.fock_matrix

    def perturbed(x, fock_space, rep="+"):
        m = sp.lil_matrix(exact(x, fock_space, rep))
        m[5, 2] += 1.0
        return sp.csr_matrix(m)

    monkeypatch.setattr(oscillator, "fock_matrix", perturbed)
    wrong = child.Outcome.of(op, doc)
    child.check_once([wrong], spaces)
    assert wrong.problems
    assert wrong.failed == wrong.attempted == len(doc["records"]) > 0
