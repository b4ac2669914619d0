"""Command-line front end: configuration, suite orchestration, and reports.

Commands:

- ``qlab verify``   run identity-verification suites, exit 0 iff all pass
- ``qlab spectrum`` per-sector eigenvalue/root/energy table (JSON or CSV)
- ``qlab bethe``    per-state root systems, equation residuals, refinement
- ``qlab hasse``    subset-lattice dump (nodes, edges, quadrilaterals, chains)
- ``qlab report``   verify + spectrum + hasse in one JSON document

The commands form one table, :data:`COMMANDS`, and the settings another,
:data:`CONFIG_KEYS`: each key is both a flag (``--n``) and a key of a JSON
config file (``--config file.json``, one object; an unknown key is an
error, and explicit flags override file values).  Every command takes every
setting, so the parser is flat: the command is its one positional argument,
checked against :data:`COMMANDS`, and each flag is declared once.  A flag's string and a
file's value pass through the same conversion, so ``"n": 3.9`` in a file is
refused exactly as ``--n 3.9`` is.  Exit codes: 0 all-pass, 1
identity/tolerance failure, 2 usage or configuration error, with one
``error:`` line that names the setting.

The identity checks form one table, :data:`SUITES`: each suite has a default
tolerance and a lister that returns its ``(name, check)`` pairs, where
``check()`` returns the residual.  A lister does the work its checks share
(random draws, fused carriers); :func:`run_verify` alone calls the checks and
makes the records, and a record's ``seconds`` covers its ``check()`` call.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _apply_thread_cap() -> None:
    """Let ``QLAB_THREADS`` set every BLAS thread count.

    The BLAS libraries read these variables once, when numpy loads them, so
    this runs before numpy is first imported.
    """
    cap = os.environ.get("QLAB_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = cap


_apply_thread_cap()

import numpy as np  # noqa: E402

from .fusion import factorize_partons, fuse  # noqa: E402
from .glrep import (fundamental_rep, gl_relation_residual, scalar_rep,  # noqa: E402
                    trivial_rep, verma_rep)
from .lax import canonical_lax, eval_lax, partonic_lax, rll_residual  # noqa: E402
from .oscillator import NormalOrderedOp, _worst, extrapolated_traces, weighted_trace  # noqa: E402
from .relations import (QFamily, _residual, enumerate_hasse, hirota_residual,  # noqa: E402
                        plucker_residual, q_determinant_residual, t_determinant_residual)
from .spectral import (NEWTON_TARGET, SpectralAnalysis, build_hamiltonian,  # noqa: E402
                       solve_bethe_newton)
from .tensor import Blocks  # noqa: E402
from .transfer import TwistConfig, _check_weight, bgg_eigen_check  # noqa: E402

DEFAULT_PHIS: Dict[int, Tuple[float, ...]] = {
    2: (0.7, -0.7),
    3: (0.7, -0.4, -0.3),
    4: (0.9, 0.4, -0.5, -0.8),
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    n: int = 2
    length: int = 2
    phis: Tuple[float, ...] = ()
    # n_max and buffer are accepted, validated and echoed, but read by no
    # check: every carrier identity is decided exactly in the algebra
    n_max: int = 8
    buffer: int = 4
    tol: Optional[float] = None
    seed: int = 0
    suites: Tuple[str, ...] = field(default_factory=lambda: tuple(SUITES))
    out: Optional[str] = None
    fmt: str = "json"

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise ConfigError("n must be between 2 and 4")
        if not 0 <= self.length <= 5:
            raise ConfigError("L must be between 0 and 5")
        if not 0 <= self.buffer < self.n_max:
            raise ConfigError("buffer must satisfy 0 <= buffer < nmax "
                              "(got buffer=%d, nmax=%d)" % (self.buffer, self.n_max))
        if self.fmt not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        for i, s in enumerate(self.suites):
            if s not in SUITES:
                raise ConfigError("unknown suite %r (choose from %s)"
                                  % (s, ", ".join(SUITES)))
            if s in self.suites[:i]:
                raise ConfigError("suite %r is listed twice" % s)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative (got %d)" % self.seed)
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError("tol must be a positive finite number (got %r)"
                              % self.tol)
        if not self.phis:
            self.phis = DEFAULT_PHIS[self.n]
        if len(self.phis) != self.n:
            raise ConfigError("phi must list %d angles" % self.n)
        if not all(math.isfinite(p) for p in self.phis):
            raise ConfigError("phi must be finite angles (got %s)"
                              % ",".join(map(str, self.phis)))
        total = sum(self.phis)
        if abs(total) > 1e-9:
            print("warning: twist angles sum to %g; renormalizing to zero sum"
                  % total, file=sys.stderr)
            self.phis = tuple(p - total / self.n for p in self.phis)
        for a, b in itertools.combinations(range(self.n), 2):
            try:
                _check_weight(cmath.exp(-1j * (self.phis[a] - self.phis[b])),
                              (a + 1, b + 1))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    def tolerance(self, suite: str) -> float:
        return self.tol if self.tol is not None else SUITES[suite][0]

    def twist(self) -> TwistConfig:
        return TwistConfig(self.phis)


# -- verification suites -----------------------------------------------------------

#: one identity check: its record name and a call that returns its residual
Check = Tuple[str, Callable[[], float]]


def _suite_anchors(cfg: RunConfig, qf: QFamily) -> List[Check]:
    eye = np.eye(cfg.n ** cfg.length)

    def anchor(I: Tuple[int, ...], ref: Callable) -> Callable[[], float]:
        return lambda: _worst(float(np.max(np.abs(qf.q(I).at(z).to_dense() - ref(z))))
                              for z in (0.83, -0.27))

    return [("empty-set member is identity", anchor((), lambda z: eye)),
            ("full-set member is z^L", anchor(tuple(range(1, cfg.n + 1)),
                                              lambda z: z ** cfg.length * eye))]


def _suite_rll(cfg: RunConfig, qf: QFamily) -> List[Check]:
    labels = tuple(range(1, cfg.n + 1))
    cases = [("defining evaluation", eval_lax(fundamental_rep(labels)))]
    wt = tuple(0.3 - 0.17 * a for a in range(cfg.n))
    wt = tuple(w - sum(wt) / cfg.n for w in wt)
    cases.append(("highest-weight evaluation",
                  eval_lax(verma_rep(wt, labels=labels, tag="v"))))
    for a in labels:
        cases.append(("degenerate factor %d" % a, partonic_lax(cfg.n, a)))
    cases.append(("oscillator-traced block (1,)",
                  canonical_lax(cfg.n, (1,), trivial_rep((1,)))))
    if cfg.n >= 3:
        cases.append(("oscillator-traced block (1,2)",
                      canonical_lax(cfg.n, (1, 2), trivial_rep((1, 2)))))
    return [(name, partial(rll_residual, L)) for name, L in cases]


def _suite_factorization(cfg: RunConfig, qf: QFamily) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 1)
    wt = tuple(complex(rng.normal(), rng.normal()) for _ in range(cfg.n))
    fac = factorize_partons(cfg.n, wt)
    checks: List[Check] = [
        ("ordered product at z=%s" % z, partial(fac.residual, z))
        for z in (0.31, -0.74 + 0.2j)]
    checks.append(("triangular-core algebra relations",
                   lambda: gl_relation_residual(fac.generator_rep())))
    return checks


def _suite_fusion(cfg: RunConfig, qf: QFamily) -> List[Check]:
    specs = [((1,), (2,), scalar_rep(1, 0.23), scalar_rep(2, -0.41), 0.6)]
    if cfg.n >= 3:
        specs.append(((1,), (2, 3), scalar_rep(1, 0.23),
                      verma_rep((0.4, -0.2), labels=(2, 3), tag="v"), 0.6))
    checks: List[Check] = []
    for I, J, r1, r2, lam in specs:
        res = fuse(cfg.n, I, J, r1, r2, lam)
        checks.append(("blocks %s + %s" % (I, J), lambda res=res: _worst(
            res.residual(z) for z in (0.37, -0.58))))
        checks.append(("merged algebra relations %s+%s" % (I, J),
                       partial(gl_relation_residual, res.fused_rep)))
    return checks


def _suite_hirota(cfg: RunConfig, qf: QFamily) -> List[Check]:
    return [("quadrilateral I=%s a=%d b=%d" % (I, a, b),
             partial(hirota_residual, qf, I, a, b))
            for I, a, b in enumerate_hasse(cfg.n).quadrilaterals]


def _suite_determinant(cfg: RunConfig, qf: QFamily) -> List[Check]:
    checks: List[Check] = [
        ("pair form I=%s" % (I,), partial(q_determinant_residual, qf, I))
        for I in itertools.combinations(range(1, cfg.n + 1), 2)]
    checks.append(("defining transfer form", partial(t_determinant_residual, qf)))
    return checks


def _suite_plucker(cfg: RunConfig, qf: QFamily) -> List[Check]:
    chain = tuple(range(1, cfg.n + 1))
    rng = np.random.default_rng(cfg.seed + 2)
    return [("exchange relation k=%d" % k,
             partial(plucker_residual, qf, chain, k,
                     tuple(np.round(rng.uniform(-0.8, 0.8, size=k + 1), 3))))
            for k in range(2, cfg.n + 1)]


def _suite_commuting(cfg: RunConfig, qf: QFamily) -> List[Check]:
    members = [I for I in enumerate_hasse(cfg.n).nodes if 0 < len(I) < cfg.n]

    def worst() -> float:
        h = build_hamiltonian(qf.n, qf.length, qf.twist)
        ops = Blocks.join([h, qf.t_at((0.29,))] + [qf.q_at(I, (0.37,)) for I in members])

        def against_later(i: int) -> float:
            # operator i against every later one, as one run
            x, y = ops[[i] * (ops.count - 1 - i)], ops[i + 1:]
            return _residual(x @ y, y @ x)

        return _worst(against_later(i) for i in range(ops.count - 1))

    return [("max pairwise commutator (%d ops)" % (2 + len(members)), worst)]


def _suite_bgg(cfg: RunConfig, qf: QFamily) -> List[Check]:
    """``T_box`` against the signed highest-weight sum at the run's twist, ``L <= 2``."""
    weight = (1.0,) + (0.0,) * (cfg.n - 1)
    length = min(cfg.length, 2) or 1
    return [("signed resolution, weight %s, L=%d" % (weight, length),
             partial(bgg_eigen_check, cfg.n, length, weight, cfg.twist()))]


#: modes and twist angles of the ``trace`` suite; each weight is ``e^{i angle}``
TRACE_WEIGHTS = ((("m", 1, 2), 0.9), (("m", 2, 1), -1.4), (("m", 1, 3), 0.55))
#: largest per-mode power ``k`` of ``(B†)^k B^k`` that the ``trace`` suite draws
TRACE_MAX_POWER = 2


def _trace_draws(seed: int) -> List[NormalOrderedOp]:
    """The ``trace`` suite's 50 random operators: a complex scalar times
    ``(B†)^k B^k`` on each mode of ``TRACE_WEIGHTS``, ``k <= TRACE_MAX_POWER``."""
    rng = np.random.default_rng(seed + 3)
    draws = []
    for _ in range(50):
        x = NormalOrderedOp.scalar(complex(rng.normal(), rng.normal()))
        for m, _angle in TRACE_WEIGHTS:
            k = int(rng.integers(0, TRACE_MAX_POWER + 1))
            x = x * (NormalOrderedOp.creator(m) ** k) * (NormalOrderedOp.annihilator(m) ** k)
        draws.append(x)
    return draws


def _suite_trace(cfg: RunConfig, qf: QFamily) -> List[Check]:
    """Closed-form trace against the extrapolated damped trace, on 50 draws.

    The suite's domain is per-mode powers ``k <= TRACE_MAX_POWER`` on the
    unit-modulus ``TRACE_WEIGHTS``.  It is not a check of every operator:
    there, the default schedule of :func:`qlab.oscillator.extrapolated_traces`
    errs by up to 1.3e-8 at k=2 but by 6.3e-6 at k=3, over the 1e-6 gate.
    """
    qs = {m: cmath.exp(1j * a) for m, a in TRACE_WEIGHTS}

    def worst() -> float:
        draws = _trace_draws(cfg.seed)
        return _worst(abs(weighted_trace(x, qs) - numeric)
                      for x, numeric in zip(draws, extrapolated_traces(draws, qs)))

    return [("closed form vs damped extrapolation (50 draws)", worst)]


#: every suite in run order: its default tolerance and its lister, which takes
#: the configuration and the run's shared family and returns the suite's checks
SUITES: Dict[str, Tuple[float, Callable[[RunConfig, QFamily], List[Check]]]] = {
    "anchors": (1e-13, _suite_anchors),
    "rll": (1e-12, _suite_rll),
    "factorization": (1e-12, _suite_factorization),
    "fusion": (1e-12, _suite_fusion),
    "hirota": (1e-10, _suite_hirota),
    "determinant": (1e-10, _suite_determinant),
    "plucker": (1e-10, _suite_plucker),
    "commuting": (1e-10, _suite_commuting),
    "bgg": (1e-6, _suite_bgg),
    "trace": (1e-6, _suite_trace),
}


def run_verify(cfg: RunConfig, family: QFamily | None = None) -> dict:
    # one family per run: every suite reads the same lazily built members
    qf = family or QFamily(cfg.n, cfg.length, cfg.twist())
    records = []
    for suite in cfg.suites:
        tol = cfg.tolerance(suite)
        for name, check in SUITES[suite][1](cfg, qf):
            t0 = time.perf_counter()
            residual = float(check())
            records.append({
                "suite": suite,
                "name": name,
                "residual": residual,
                "tolerance": tol,
                "passed": residual < tol,
                "seconds": round(time.perf_counter() - t0, 3),
            })
        qf.drop_values()
    return {
        "command": "verify",
        "config": _config_dict(cfg),
        "records": records,
        "all_passed": all(r["passed"] for r in records),
    }


# -- spectrum / bethe --------------------------------------------------------------


def _cnum(x: complex) -> object:
    x = complex(x)
    if abs(x.imag) < 1e-12:
        return x.real
    return {"re": x.real, "im": x.imag}


def run_spectrum(cfg: RunConfig, family: QFamily | None = None) -> dict:
    if cfg.length < 2:
        raise ConfigError("spectrum needs L >= 2")
    sa = SpectralAnalysis(family or QFamily(cfg.n, cfg.length, cfg.twist()))
    rows = []
    for r in sa.all_records():
        rows.append({
            "sector": list(r.sector),
            "state_index": r.state,
            "E_direct": _cnum(r.energy_direct),
            "E_roots": _cnum(r.energy_roots),
            "E_TBox": _cnum(r.energy_tbox),
            "max_bethe_residual": r.max_bethe_residual,
        })
    return {"command": "spectrum", "config": _config_dict(cfg), "rows": rows}


def run_bethe(cfg: RunConfig) -> dict:
    if cfg.length < 2:
        raise ConfigError("bethe needs L >= 2")
    sa = SpectralAnalysis(QFamily(cfg.n, cfg.length, cfg.twist()))
    sigmas = [sa.q_polys[I].sigma for I in sa.sets]
    states = []
    for r in sa.all_records():
        # a start already at the target is what Newton would return at once,
        # with this residual to the last bit
        res, iters = r.max_bethe_residual, 1
        if not res < NEWTON_TARGET:
            _, res, iters = solve_bethe_newton(r.level_roots, sigmas)
        states.append({
            "sector": list(r.sector),
            "state_index": r.state,
            "levels": [{"index_set": list(I),
                        "roots": [_csv_num(_cnum(z)) for z in roots]}
                       for I, roots in zip(sa.sets, r.level_roots)],
            "max_residual": r.max_bethe_residual,
            "refined_max_residual": res,
            "newton_iterations": iters,
        })
    return {"command": "bethe", "config": _config_dict(cfg),
            "chain": list(range(1, cfg.n + 1)), "states": states}


def run_hasse(cfg: RunConfig) -> dict:
    h = enumerate_hasse(cfg.n)
    return {
        "command": "hasse",
        "n": cfg.n,
        "nodes": [list(x) for x in h.nodes],
        "edges": [[list(a), list(b)] for a, b in h.edges],
        "quadrilaterals": [[list(I), a, b] for I, a, b in h.quadrilaterals],
        "chains": [list(c) for c in h.chains],
        "counts": {"nodes": len(h.nodes), "edges": len(h.edges),
                   "quadrilaterals": len(h.quadrilaterals),
                   "chains": len(h.chains)},
    }


def run_report(cfg: RunConfig) -> dict:
    # the verify suites and the spectrum read the same members
    qf = QFamily(cfg.n, cfg.length, cfg.twist())
    verify = run_verify(cfg, qf)
    report = {
        "command": "report",
        "config": _config_dict(cfg),
        "verify": verify,
        "hasse": run_hasse(cfg),
    }
    if cfg.length >= 2:
        report["spectrum"] = run_spectrum(cfg, qf)
    report["all_passed"] = verify["all_passed"]
    return report


# -- plumbing ----------------------------------------------------------------------


def _config_dict(cfg: RunConfig) -> dict:
    """The run's settings under their config-file keys, the output ones left out."""
    return {k: getattr(cfg, f) for k, (f, _, _) in CONFIG_KEYS.items()
            if k not in ("out", "format")}


def _emit(doc: dict, cfg: RunConfig) -> str:
    if cfg.fmt == "csv":
        buf = io.StringIO()
        if doc.get("command") == "spectrum":
            w = csv.writer(buf)
            w.writerow(["sector", "state_index", "E_direct", "E_roots",
                        "E_TBox", "max_bethe_residual"])
            for row in doc["rows"]:
                w.writerow(["+".join(map(str, row["sector"])),
                            row["state_index"],
                            _csv_num(row["E_direct"]),
                            _csv_num(row["E_roots"]),
                            _csv_num(row["E_TBox"]),
                            "%.3e" % row["max_bethe_residual"]])
        elif "records" in doc:
            w = csv.writer(buf)
            w.writerow(["suite", "name", "residual", "tolerance", "passed"])
            for r in doc["records"]:
                w.writerow([r["suite"], r["name"], "%.3e" % r["residual"],
                            "%.1e" % r["tolerance"], r["passed"]])
        else:
            raise ConfigError("csv format is only available for tabular output")
        return buf.getvalue()
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_num(x: object) -> str:
    if isinstance(x, dict):
        return "%.12g%+.12gj" % (x["re"], x["im"])
    return "%.12g" % x


def _integer(raw: object) -> int:
    """An int, or a string that holds one; a bool or a float is refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise TypeError(raw)
    return int(raw)


def _number(raw: object) -> float:
    if isinstance(raw, bool):
        raise TypeError(raw)
    return float(raw)


def _numbers(raw: object) -> Tuple[float, ...]:
    return tuple(_number(x) for x in (raw.split(",") if isinstance(raw, str) else raw))


def _string(raw: object) -> str:
    if not isinstance(raw, str):
        raise TypeError(raw)
    return raw


def _names(raw: object) -> Tuple[str, ...]:
    names = tuple(raw.split(",")) if isinstance(raw, str) else tuple(raw)
    if not all(isinstance(x, str) for x in names):
        raise TypeError(raw)
    return names


#: each setting, which is both a flag and a config-file key: its ``RunConfig``
#: field, the conversion of a flag's string or a file's value, and what the
#: value must be; a key left out keeps the field's default
CONFIG_KEYS: Dict[str, Tuple[str, Callable[[object], object], str]] = {
    "n": ("n", _integer, "an integer from 2 to 4"),
    "L": ("length", _integer, "an integer from 0 to 5"),
    "phi": ("phis", _numbers, "one twist angle per letter, comma-separated, as --phi=-0.7,0.7"),
    "nmax": ("n_max", _integer, "an integer above buffer (read by no check)"),
    "buffer": ("buffer", _integer, "an integer from 0 to nmax - 1 (read by no check)"),
    "tol": ("tol", _number, "a positive number, the tolerance of every suite"),
    "seed": ("seed", _integer, "a non-negative integer, the seed of verify's draws"),
    "suite": ("suites", _names, "comma-separated suite names"),
    "out": ("out", _string, "an output path (default stdout)"),
    "format": ("fmt", _string, "json or csv"),
}

#: each command and its help; ``main`` runs the module's ``run_<command>``,
#: looked up when it runs, so that a wrapped or replaced runner is the one called
COMMANDS: Dict[str, str] = {
    "verify": "run identity-verification suites",
    "spectrum": "per-sector spectral table",
    "bethe": "root systems and equation residuals",
    "hasse": "subset-lattice dump",
    "report": "combined verification report",
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qlab",
        description="Finite-matrix laboratory for twisted chains: construct the\n"
                    "commuting operator family and verify its relations.",
        epilog="commands:\n" + "".join("  %-10s %s\n" % item for item in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=COMMANDS, metavar="command",
                    help="one of the commands below")
    ap.add_argument("--config", help="JSON config file (flat keys)")
    for key, (_, _, what) in CONFIG_KEYS.items():
        ap.add_argument("--" + key, help=what)
    return ap


def _load_config(args: argparse.Namespace) -> RunConfig:
    values: Dict[str, object] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("cannot read config file: %s" % exc) from exc
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object of flag keys")
        unknown = sorted(set(values) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError("unknown config key %r (choose from %s)"
                              % (unknown[0], ", ".join(CONFIG_KEYS)))
    values.update((k, getattr(args, k)) for k in CONFIG_KEYS
                  if getattr(args, k) is not None)
    fields = {}
    for key, (name, convert, what) in CONFIG_KEYS.items():
        if values.get(key) is not None:
            try:
                fields[name] = convert(values[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError("%s must be %s (got %r)"
                                  % (key, what, values[key])) from exc
    return RunConfig(**fields)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        doc = globals()["run_" + args.command](cfg)
        text = _emit(doc, cfg)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.command in ("verify", "report") and not doc["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
