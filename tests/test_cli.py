import cmath
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlab
from qlab.cli import COMMANDS, ConfigError, RunConfig, main, run_hasse
from qlab.relations import enumerate_hasse


# -- configuration ----------------------------------------------------------------

def test_config_guards():
    with pytest.raises(ConfigError):
        RunConfig(n=5)
    with pytest.raises(ConfigError):
        RunConfig(length=6)
    with pytest.raises(ConfigError):
        RunConfig(fmt="xml")
    with pytest.raises(ConfigError):
        RunConfig(suites=("nope",))
    with pytest.raises(ConfigError):
        RunConfig(n=3, phis=(0.1, -0.1))


def test_config_defaults_and_renormalization(capsys):
    cfg = RunConfig(n=2)
    assert cfg.phis == (0.7, -0.7)
    cfg = RunConfig(n=2, phis=(0.5, -0.3))
    assert cfg.phis == pytest.approx((0.4, -0.4))
    assert "renormalizing" in capsys.readouterr().err


def test_tolerance_override():
    assert RunConfig().tolerance("hirota") == 1e-10
    assert RunConfig(tol=1e-5).tolerance("hirota") == 1e-5


def test_records_follow_suite_order_and_carry_their_tolerance(capsys):
    argv = ["verify", "--n", "2", "--L", "1", "--suite", "trace,anchors"]
    assert main(argv) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r["suite"] for r in records] == ["trace", "anchors", "anchors"]
    assert [r["tolerance"] for r in records] == [1e-6, 1e-13, 1e-13]
    assert main(argv + ["--tol", "1e-3"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r["tolerance"] for r in records] == [1e-3] * 3


# -- exit codes -------------------------------------------------------------------

def test_verify_small_chain_passes(capsys):
    assert main(["verify", "--n", "2", "--L", "1", "--suite", "anchors,hirota"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] and len(doc["records"]) == 3


def test_corrupt_tolerance_reports_failure(capsys):
    # the signed-resolution suite has a small but strictly positive residual
    code = main(["verify", "--n", "2", "--L", "1", "--suite", "bgg",
                 "--tol", "1e-30"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["all_passed"]


def test_bad_flag_values_exit_two(capsys):
    assert main(["verify", "--n", "9", "--L", "1"]) == 2
    assert main(["verify", "--n", "2", "--L", "1", "--suite", "bogus"]) == 2
    assert main(["verify", "--config", "/nonexistent/cfg.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be non-negative"),
    (["--phi", "0.3,0.3"], "degenerate twist: phases of letters (1, 2) coincide"),
    (["--phi", "nan,0"], "phi must be finite angles"),
    (["--phi", "inf,-inf"], "phi must be finite angles"),
    (["--tol", "nan"], "tol must be a positive finite number"),
    (["--tol", "-1"], "tol must be a positive finite number"),
    (["--suite", "anchors,anchors"], "suite 'anchors' is listed twice"),
])
def test_invalid_inputs_exit_two_with_one_line_error(flags, message, capsys):
    # each of these once crashed with a traceback (exit 1, which means an
    # identity failed) or made every record fail
    assert main(["verify", "--n", "2", "--L", "1", "--suite", "anchors"] + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("buffer", ["5", "3"])
def test_buffer_must_leave_room_under_nmax(buffer, capsys):
    # no check reads the buffer any more, but the guard stays, so that a
    # configuration is valid exactly when it was before
    code = main(["verify", "--n", "2", "--suite", "fusion,factorization",
                 "--nmax", "3", "--buffer", buffer])
    assert code == 2
    assert "0 <= buffer < nmax" in capsys.readouterr().err


def test_buffer_is_accepted_echoed_and_ignored(capsys):
    # every carrier identity is decided exactly in the algebra, so the records
    # do not depend on the flag
    docs = []
    for buffer in ("1", "4"):
        assert main(["verify", "--n", "3", "--L", "1", "--suite", "rll,fusion,factorization",
                     "--nmax", "6", "--buffer", buffer]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert [d["config"]["buffer"] for d in docs] == [1, 4]
    records = [[(r["name"], r["residual"]) for r in d["records"]] for d in docs]
    assert records[0] == records[1]


@pytest.mark.parametrize("n", ["2", "3", "4"])
def test_carrier_records_read_no_truncation_flag_and_no_seed(n, capsys):
    # --nmax 2 --buffer 1 once failed the highest-weight evaluation at n=3
    # (3.2), where the truncated exchange relation had no room left
    def records(*argv):
        assert main(["verify", "--n", n, "--L", "1", *argv]) == 0
        return [(r["suite"], r["name"], r["residual"], r["passed"])
                for r in json.loads(capsys.readouterr().out)["records"]]

    want = records("--suite", "rll,fusion,factorization")
    rll = [r for r in want if r[0] == "rll"]
    assert rll and all(r[2] == 0.0 for r in rll)
    for flags in ([], ["--nmax", "5", "--buffer", "4"], ["--nmax", "2", "--buffer", "1"]):
        assert records("--suite", "rll,fusion,factorization", *flags) == want
        for seed in ("1", "11"):
            assert records("--suite", "rll", "--seed", seed, *flags) == rll


def test_hirota_suite_record_count(capsys):
    assert main(["verify", "--n", "3", "--L", "1", "--suite", "hirota"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == 6  # one per quadrilateral


# -- config file ------------------------------------------------------------------

@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "config file must hold a JSON object"),
    ('{"sute": "hirota"}', "unknown config key 'sute'"),
])
def test_bad_config_file_exits_two_with_one_line_error(tmp_path, content, message,
                                                      capsys):
    # a list once crashed with a traceback (exit 1); a misspelled key was ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["verify", "--n", "2", "--L", "1", "--suite", "anchors",
                 "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("config, flags, key", [
    ({"n": 3.9}, [], "n"),
    ({"L": 2.7}, [], "L"),
    ({"seed": True}, [], "seed"),
    ({"tol": True}, [], "tol"),
    (None, ["--n", "abc"], "n"),
    ({"out": ["x"], "n": 2, "L": 1, "suite": "anchors"}, [], "out"),
    ({"format": 1}, [], "format"),
])
def test_a_value_that_does_not_convert_exits_two_naming_its_key(tmp_path, monkeypatch,
                                                                 config, flags, key, capsys):
    # flags and file values pass through one conversion; the four files once
    # ran as n=3, L=2, seed=1 and tol=1.0 and exited 0, and the "out" file
    # wrote its report to a file named "['x']"
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--suite", "anchors"] + flags
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: %s must be " % key)
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if config else [])


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qlab")
    for name, doc in COMMANDS.items():
        assert any(line.split() == [name] + doc.split() for line in out.splitlines())


def test_an_unknown_command_exits_two_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verfy", "--n", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: qlab")
    assert "invalid choice: 'verfy'" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "L": 1, "suite": "hirota"}))
    assert main(["verify", "--config", str(cfg), "--suite", "anchors"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {r["suite"] for r in doc["records"]} == {"anchors"}
    assert doc["config"]["L"] == 1


# -- spectrum ---------------------------------------------------------------------

def test_spectrum_json_schema(capsys):
    assert main(["spectrum", "--n", "2", "--L", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 4
    row = doc["rows"][0]
    assert set(row) == {"sector", "state_index", "E_direct", "E_roots",
                        "E_TBox", "max_bethe_residual"}
    assert all(r["max_bethe_residual"] < 1e-8 for r in doc["rows"])


def test_spectrum_csv_to_file(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "2", "--L", "2", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sector,state_index,E_direct,E_roots,E_TBox,max_bethe_residual"
    assert len(lines) == 5


def test_spectrum_requires_positive_length(capsys):
    assert main(["spectrum", "--n", "2", "--L", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["spectrum", "bethe"])
@pytest.mark.parametrize("n,length", [(2, 0), (2, 1), (3, 1), (4, 1)])
def test_spectral_commands_need_two_sites(command, n, length, capsys):
    # a one-site chain has a zero Hamiltonian but T_box reads its wrap bond:
    # at (2,1) sector (0,1) once printed E_direct 0, E_roots 0 and E_TBox
    # -0.340-1.971i, with exit 0
    assert main([command, "--n", str(n), "--L", str(length)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: %s needs L >= 2" % command]
    assert "Traceback" not in err


#: sha256 of the stdout of ``qlab <command> --n n --L L`` at the default flags.
#: The spectral path forms its elementwise complex products and moduli as
#: CPython does, so the same digests hold with numpy's SIMD loops above
#: x86-64-v2 switched off and with one BLAS thread (the CI runs both)
SPECTRAL_STDOUT_SHA256 = {
    ("spectrum", 2, 3): "1ce9df273e5d42cf69e47c43602842598591076af503f455227fc6fc628979f2",
    ("bethe", 2, 3): "1daa1aa52d526e84e8a42ecb371a2c69f540997df376e8f53661ec09853f5220",
    ("spectrum", 3, 3): "017e93f78d5116a34b3fd9a5fd55554a5906f0d73bd69e8cc8c14ea7a5b86708",
    ("bethe", 3, 3): "612aed9fadfa19329ad7dc82fdda4cbcbc18db9c3f93a5714c5203037a51826d",
    ("spectrum", 4, 2): "f9e87595bb2b6a4c4346b3a252a0ae0512274f9bb1a954ea254d63ea592c60f2",
    ("bethe", 4, 2): "ce89cf1f7fcf621730053ef3b863298b958a1a7a755a7c9d4b09c437e93554f2",
    # the benchmark's spectrum round
    ("spectrum", 3, 4): "c8d6ba3dbc6d279f227fb48fa25f334322f7583577482e478314c6162706effb",
    ("spectrum", 4, 3): "d88c4fb8d0db37833fe0e7ba613b1497e35a9ea8c25c94040bd99e75a686dc32",
    ("spectrum", 2, 5): "4cfbf9b178c7f812497a468958f116c59b2af53733bbc5c4f847bff89879f3b4",
    ("bethe", 3, 4): "ac1e3af0a93c917e9ea9c280f6f596bdda79959edea819ea37f59c91e1428b0c",
    # the largest size groups of the spectral path
    ("spectrum", 4, 4): "2188ed29116c52bd981cd823de52fbc7208e4eb1affae7253fc807a1c1eaecc9",
}


@pytest.mark.parametrize("command,n,length", sorted(SPECTRAL_STDOUT_SHA256))
def test_spectral_stdout_is_pinned(command, n, length, capsys):
    # every energy, root and residual to the last bit
    assert main([command, "--n", str(n), "--L", str(length)]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == SPECTRAL_STDOUT_SHA256[command, n, length]


# -- bethe ------------------------------------------------------------------------

def test_bethe_output_structure(capsys):
    assert main(["bethe", "--n", "2", "--L", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chain"] == [1, 2]
    assert len(doc["states"]) == 4
    for st in doc["states"]:
        assert len(st["levels"]) == 3
        assert st["refined_max_residual"] < 1e-10


# -- hasse ------------------------------------------------------------------------

@pytest.mark.parametrize("n,nodes,quads,chains", [
    (2, 4, 1, 2), (3, 8, 6, 6), (4, 16, 24, 24),
])
def test_hasse_counts(n, nodes, quads, chains):
    doc = run_hasse(RunConfig(n=n, length=1))
    assert doc["counts"]["nodes"] == nodes
    assert doc["counts"]["quadrilaterals"] == quads
    assert doc["counts"]["chains"] == chains


def test_hasse_adjacency_edges_are_coverings(capsys):
    assert main(["hasse", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for lo, hi in doc["edges"]:
        assert set(lo) < set(hi) and len(hi) == len(lo) + 1


# -- report and determinism -------------------------------------------------------

def test_report_combines_sections(capsys):
    assert main(["report", "--n", "2", "--L", "2", "--suite", "anchors"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"]
    assert "verify" in doc and "hasse" in doc and "spectrum" in doc


def test_report_leaves_out_the_spectrum_below_two_sites(capsys):
    assert main(["report", "--n", "2", "--L", "1", "--suite", "anchors"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"]
    assert "verify" in doc and "hasse" in doc and "spectrum" not in doc


def test_report_builds_each_member_once(monkeypatch, capsys):
    # the verify suites and the spectrum share one family, so each
    # trivial-carrier chain member and T_box at L is built once, and the
    # trivial-carrier sets of one size share one expansion
    from qlab import relations, transfer
    built, expanded = [], []
    build_X, build_Qs, traced = transfer.build_X, transfer.build_Qs, transfer._traced_monodromy

    def counting_X(n, length, index_set, rep, *args, **kwargs):
        built.append((length, tuple(index_set), rep.kind))
        return build_X(n, length, index_set, rep, *args, **kwargs)

    def counting_Qs(n, length, index_sets, *args, **kwargs):
        out = build_Qs(n, length, index_sets, *args, **kwargs)
        built.extend((length, I, "trivial") for I in out)
        return out

    def counting_traced(n, length, lax, *args, **kwargs):
        expanded.append((length, tuple(sorted(lax.rep.labels)), lax.rep.kind))
        return traced(n, length, lax, *args, **kwargs)

    monkeypatch.setattr(transfer, "build_X", counting_X)
    monkeypatch.setattr(transfer, "build_Qs", counting_Qs)
    monkeypatch.setattr(relations, "build_Qs", counting_Qs)
    monkeypatch.setattr(transfer, "_traced_monodromy", counting_traced)
    assert main(["report", "--n", "3", "--L", "2", "--suite", "anchors,commuting"]) == 0
    capsys.readouterr()
    members = sorted((I, kind) for length, I, kind in built if length == 2)
    assert members == sorted([((), "trivial"), ((1,), "trivial"), ((2,), "trivial"),
                              ((3,), "trivial"), ((1, 2), "trivial"),
                              ((1, 3), "trivial"), ((2, 3), "trivial"),
                              ((1, 2, 3), "trivial"), ((1, 2, 3), "fundamental")])
    assert sorted((I, kind) for length, I, kind in expanded if length == 2) == sorted(
        [((1,), "trivial"), ((1, 2), "trivial"), ((1, 2, 3), "trivial"),
         ((1, 2, 3), "fundamental")])
    # the relation suites read every set of each size they touch: the family
    # builds each size in one expansion the first time a suite asks for it
    built.clear()
    expanded.clear()
    assert main(["verify", "--n", "4", "--L", "3",
                 "--suite", "hirota,determinant,plucker,commuting"]) == 0
    capsys.readouterr()
    assert sorted(built) == sorted([(3, I, "trivial") for I in enumerate_hasse(4).nodes]
                                   + [(3, (1, 2, 3, 4), "fundamental")])
    assert sorted(expanded) == sorted([(3, (1,), "trivial"), (3, (1, 2), "trivial"),
                                       (3, (1, 2, 3), "trivial"),
                                       (3, (1, 2, 3, 4), "trivial"),
                                       (3, (1, 2, 3, 4), "fundamental")])


@pytest.mark.parametrize("flag", ["--phi=-0.7,0.7", "--phi=-.7,.7"])
def test_a_twist_that_begins_with_a_minus_sign_is_read(flag, capsys):
    # argparse reads "-0.7,0.7" after a space as a flag, so --phi's help
    # asks for the '=' form
    assert main(["verify", "--n", "2", "--L", "2", "--suite", "anchors", flag]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["phi"] == [-0.7, 0.7]


def test_reports_are_deterministic(capsys):
    args = ["spectrum", "--n", "2", "--L", "2", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_residuals_do_not_depend_on_hash_seed():
    # the highest-weight traces multiply per-mode partition factors; their
    # order must not follow the hash order of the mode labels
    src = str(Path(qlab.__file__).resolve().parents[1])
    residuals = []
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "qlab.cli", "verify", "--n", "3", "--L", "2",
             "--suite", "bgg"], env=env, stdout=subprocess.PIPE, check=True, text=True)
        residuals.append([r["residual"].hex() for r in json.loads(out.stdout)["records"]])
    assert residuals[0] == residuals[1]


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from /proc")
def test_qlab_threads_caps_blas_threads():
    src = str(Path(qlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(QLAB_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import qlab.cli, numpy as np\n"
            "a = np.random.default_rng(0).random((300, 300))\n"
            "a @ a\n"
            "print([l for l in open('/proc/self/status') if l.startswith('Threads:')][0])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         stdout=subprocess.PIPE, check=True, text=True).stdout
    assert out.split() == ["Threads:", "1"]


def test_scipy_loaded_only_by_carrier_suites():
    """No command loads scipy, the carrier suites included: every check is
    decided in the oscillator algebra or on numpy arrays, and only the
    truncated Fock matrices, which no check builds, use scipy."""
    src = str(Path(qlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import contextlib, io, sys\n"
        "import qlab.cli, qlab.fusion, qlab.glrep, qlab.lax, qlab.oscillator\n"
        "import qlab.relations, qlab.spectral, qlab.tensor, qlab.transfer\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return qlab.cli.main(list(argv))\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "for n in ('2', '3', '4'):\n"
        "    for argv in (('verify', '--n', n, '--L', '2'),\n"
        "                 ('spectrum', '--n', n, '--L', '2'),\n"
        "                 ('bethe', '--n', n, '--L', '2'),\n"
        "                 ('hasse', '--n', n)):\n"
        "        assert run(*argv) == 0, argv\n"
        "        assert 'scipy' not in sys.modules, argv\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_carrier_suites_at_twelve_modes_stay_under_200_mb():
    """Fusion and factorization at n=4 and the default ``--nmax 8`` (12 modes).

    Both are decided in the oscillator algebra, so they build no Fock space
    (125,970 states at this truncation) and never load scipy.
    """
    src = str(Path(qlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import contextlib, io, resource, sys, qlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = qlab.cli.main(['verify', '--n', '4', '--L', '1',\n"
        "                            '--suite', 'fusion,factorization'])\n"
        "print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,\n"
        "      int('scipy' in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         stdout=subprocess.PIPE, check=True, text=True).stdout
    status, peak_kb, scipy_loaded = map(int, out.split())
    assert status == 0
    assert peak_kb / 1024 < 200
    assert not scipy_loaded


def test_trace_suite_domain_is_load_bearing():
    """The suite's power range keeps the damped extrapolation under the gate.

    Every power it draws passes on every suite weight; one power more fails
    on at least one of them, so widening the range would fail the suite.
    """
    from qlab.cli import TRACE_MAX_POWER, TRACE_WEIGHTS
    from qlab.oscillator import NormalOrderedOp as Op, extrapolated_traces, weighted_trace
    assert TRACE_MAX_POWER == 2

    def error(mode, angle, k):
        q = {mode: cmath.exp(1j * angle)}
        x = Op.creator(mode) ** k * Op.annihilator(mode) ** k
        return abs(weighted_trace(x, q) - extrapolated_traces([x], q)[0])

    gate = RunConfig().tolerance("trace")
    for mode, angle in TRACE_WEIGHTS:
        for k in range(TRACE_MAX_POWER + 1):
            assert error(mode, angle, k) < gate
    above = max(error(mode, angle, TRACE_MAX_POWER + 1) for mode, angle in TRACE_WEIGHTS)
    assert above > 5 * gate  # 6.3e-6, at angle -1.4


# -- a NaN in any place of a reduction fails its record -------------------------------

def _records(suite, **kwargs):
    from qlab.cli import run_verify
    doc = run_verify(RunConfig(suites=(suite,), **kwargs))
    return {r["name"]: r for r in doc["records"]}


def _assert_failed_on_nan(record):
    assert record["residual"] != record["residual"]
    assert not record["passed"]


def test_a_nan_at_the_second_point_fails_the_anchor_records(monkeypatch):
    from qlab.tensor import Blocks
    to_dense, calls = Blocks.to_dense, []

    def nan_every_second_call(self):
        out = to_dense(self)
        calls.append(1)
        if len(calls) % 2 == 0:
            out = out.copy()
            out[0, 0] = float("nan")
        return out

    monkeypatch.setattr(Blocks, "to_dense", nan_every_second_call)
    records = _records("anchors")
    assert len(records) == 2 and len(calls) == 4
    for r in records.values():
        _assert_failed_on_nan(r)


def test_a_nan_at_the_second_point_fails_the_fusion_blocks(monkeypatch):
    from qlab.fusion import FusionResult
    monkeypatch.setattr(FusionResult, "residual",
                        lambda self, z, **kw: float("nan") if z == -0.58 else 0.0)
    records = _records("fusion", length=1)
    _assert_failed_on_nan(records["blocks (1,) + (2,)"])
    assert records["merged algebra relations (1,)+(2,)"]["passed"]


def test_a_nan_in_a_later_pair_fails_the_commuting_record(monkeypatch):
    import numpy as np
    from qlab.tensor import Blocks
    norms = Blocks.norms

    def nan_last(self):
        out = np.array(norms(self))
        out[-1] = float("nan")
        return out

    monkeypatch.setattr(Blocks, "norms", nan_last)
    (record,) = _records("commuting").values()
    _assert_failed_on_nan(record)


def test_a_nan_in_a_later_draw_fails_the_trace_record(monkeypatch):
    from qlab import cli
    traces = cli.extrapolated_traces

    def nan_second(xs, q):
        out = traces(xs, q)
        out[1] = complex("nan")
        return out

    monkeypatch.setattr(cli, "extrapolated_traces", nan_second)
    (record,) = _records("trace").values()
    _assert_failed_on_nan(record)


def test_a_nan_at_the_second_point_fails_the_bgg_record(monkeypatch):
    from qlab import transfer
    alternating_sum_at = transfer._alternating_sum_at

    def nan_at_second_point(members, z):
        out = alternating_sum_at(members, z)
        return out * float("nan") if z == -0.6 else out

    monkeypatch.setattr(transfer, "_alternating_sum_at", nan_at_second_point)
    (record,) = _records("bgg", length=1).values()
    _assert_failed_on_nan(record)
