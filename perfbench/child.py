"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with the environment it fixes (hash seed, one BLAS
thread, ``src`` on the path).  The child imports the package, then repeats
the workload's CLI commands in whole rounds through ``qlab.cli.main``.  Each
command is timed alone, after a garbage collection, and its output is parsed
only after the timer stops.  Every round's outputs are checked against
computations made apart from the program (``checks.py``) when the round ends,
outside the timers.  The costlier checks of the program's members and Fock
matrices run once, after the last round.  The child prints one JSON line for
``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: fewest rounds per run, so that every operation has a median of three
MIN_ROUNDS = 3

#: twist angles handed to the CLI explicitly (the package defaults)
PHIS = {2: (0.7, -0.7), 3: (0.7, -0.4, -0.3), 4: (0.9, 0.4, -0.5, -0.8)}

WORKLOADS = ("spectrum", "identities", "carriers")

IDENTITY_SUITES = ("anchors", "hirota", "determinant", "plucker", "commuting")
CARRIER_SUITES = ("rll", "fusion", "factorization")


@dataclass
class Op:
    """One CLI command of a workload; ``length`` is None where it plays no part."""
    command: str
    n: int
    length: Optional[int]
    suites: Tuple[str, ...] = ()
    flags: Tuple[str, ...] = ()
    seed: int = 0

    @property
    def argv(self) -> List[str]:
        out = [self.command, "--n", str(self.n),
               "--phi", ",".join(repr(p) for p in PHIS[self.n]),
               "--seed", str(self.seed)]
        if self.length is not None:
            out += ["--L", str(self.length)]
        if self.suites:
            out += ["--suite", ",".join(self.suites)]
        return out + list(self.flags)

    @property
    def label(self) -> str:
        parts = [self.command, "n=%d" % self.n]
        if self.length is not None:
            parts.append("L=%d" % self.length)
        return " ".join(parts + [",".join(self.suites)] + list(self.flags)).strip()


def workload(name: str, seed: int) -> List[Op]:
    """The commands of one round.

    ``seed`` becomes the CLI ``--seed`` of every command except two whose
    inputs are kept fixed: the (3,3) relations, where the known absolute-gate
    fault fails plucker k=3, so that the failed share is the same on every
    seed; and the trace suite, whose random operators set its amount of work
    (a seed-dependent workload size would spread ``wall_s`` across seeds).
    """
    s = seed % 2 ** 32
    if name == "spectrum":
        return [Op("spectrum", 3, 4, seed=s), Op("spectrum", 4, 3, seed=s),
                Op("spectrum", 2, 5, seed=s), Op("bethe", 3, 4, seed=s)]
    if name == "identities":
        return [Op("verify", 4, 3, IDENTITY_SUITES, seed=s),
                Op("verify", 3, 3, IDENTITY_SUITES, seed=0),
                Op("verify", 2, 5, IDENTITY_SUITES, seed=s),
                Op("verify", 3, 2, ("bgg", "trace"), seed=0)]
    if name == "carriers":
        return [Op("verify", 3, None, CARRIER_SUITES, seed=s),
                Op("verify", 4, None, CARRIER_SUITES, ("--nmax", "5", "--buffer", "4"),
                   seed=s)]
    raise ValueError("unknown workload %r" % name)


def output_problems(op: Op, doc: dict) -> List[str]:
    """The checks of one command's output; cheap enough to run on every round."""
    import checks
    if op.command == "spectrum":
        return checks.spectrum_problems(doc, op.n, op.length, PHIS[op.n])
    if op.command == "bethe":
        return checks.bethe_problems(doc, op.n, op.length)
    if not set(op.suites) & set(CARRIER_SUITES):
        return checks.record_count_problems(doc, op.n, op.suites)
    return []


@dataclass
class Outcome:
    """What one command produced in one round, and the problems found in it.

    Only the tallies are kept, not the output, so that stored rounds do not
    add to the peak resident set."""
    op: Op
    attempted: int
    gate_failures: int
    problems: List[str] = field(default_factory=list)

    @classmethod
    def of(cls, op: Op, doc: dict) -> "Outcome":
        """A verify command counts its records; any other command counts once."""
        records = doc.get("records", ())
        return cls(op, len(records) or 1,
                   sum(1 for r in records if not r["passed"]),
                   output_problems(op, doc))

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else self.gate_failures


def check_once(outcomes: List[Outcome], fock_spaces: Dict[tuple, int]) -> None:
    """Add the problems of the program's members and Fock matrices.

    These checks rebuild what they check, so they run once per run, on the
    outcomes of one round.  ``fock_spaces`` maps ``(modes, n_max)`` of each
    Fock space the workload built to the index of the first command that
    built it.
    """
    import checks
    from qlab.oscillator import FockSpace, NormalOrderedOp, fock_matrix
    from qlab.transfer import TwistConfig, build_Q

    for oc in outcomes:
        op = oc.op
        if "commuting" in op.suites:
            twist = TwistConfig(PHIS[op.n])
            members = {I: build_Q(op.n, op.length, I, twist)
                       for I in checks.nontrivial_subsets(op.n)}
            oc.problems += checks.commutator_problems(
                {I: (lambda z, q=q: q.at(z).to_dense())
                 for I, q in members.items()},
                op.n, op.length, PHIS[op.n])
    ladder = {"annihilator": NormalOrderedOp.annihilator,
              "creator": NormalOrderedOp.creator, "number": NormalOrderedOp.number}
    for (modes, n_max), index in fock_spaces.items():
        space = FockSpace(modes, n_max)
        outcomes[index].problems += checks.fock_problems(
            modes, space.states, n_max,
            lambda mode, kind: fock_matrix(ladder[kind](mode), space))


@contextlib.contextmanager
def recording_fock_spaces(sink: Dict[tuple, int], current: list):
    """Note each distinct Fock space built, with the index of the first command
    that built it; one dictionary lookup per construction."""
    from qlab.oscillator import FockSpace
    init = FockSpace.__init__

    def recording_init(self, modes, n_max):
        init(self, modes, n_max)
        sink.setdefault((self.modes, self.n_max), current[0])

    FockSpace.__init__ = recording_init
    try:
        yield
    finally:
        FockSpace.__init__ = init


def run_rounds(ops: List[Op], seconds: float, tracer=None):
    """Repeat every command in whole rounds for at least ``seconds``.

    Returns the per-round times, layer metrics and outcomes of each command.
    """
    from qlab import cli
    wall: List[List[float]] = [[] for _ in ops]
    cpu: List[List[float]] = [[] for _ in ops]
    layers: List[Dict[str, float]] = []
    outcomes: List[List[Outcome]] = []
    signatures = set()
    fock_spaces: Dict[tuple, int] = {}
    current = [0]
    start = time.perf_counter()
    rounds = 0
    with recording_fock_spaces(fock_spaces, current):
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.start_round()
            docs = []
            for i, op in enumerate(ops):
                current[0] = i
                buf = io.StringIO()
                gc.collect()
                c0 = time.process_time()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    cli.main(op.argv)
                t1 = time.perf_counter()
                c1 = time.process_time()
                wall[i].append(t1 - t0)
                cpu[i].append(c1 - c0)
                docs.append(json.loads(buf.getvalue()))
            if tracer is not None:
                layers.append(tracer.metrics())
            signatures.add(json.dumps([_signature(d) for d in docs]))
            outcomes.append([Outcome.of(op, d) for op, d in zip(ops, docs)])
            rounds += 1
    return wall, cpu, layers, outcomes, len(signatures) == 1, fock_spaces


def _signature(doc: dict):
    """The parts of an output that must repeat from round to round."""
    if "records" in doc:
        return [(r["suite"], r["name"], r["passed"]) for r in doc["records"]]
    return len(doc.get("rows", doc.get("states", ())))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--probe", action="store_true",
                    help="report set-up time and exit")
    ap.add_argument("--detail", help="file for per-operation figures and spans")
    args = ap.parse_args(argv)

    import qlab.cli, qlab.fusion, qlab.glrep, qlab.lax, qlab.oscillator  # noqa: F401,E401
    import qlab.relations, qlab.spectral, qlab.tensor, qlab.transfer  # noqa: F401,E401
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    wall, cpu, layers, outcomes, repeatable, fock_spaces = run_rounds(
        ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    check_once(outcomes[0], fock_spaces)
    per_op = list(zip(*outcomes))
    result = {
        "setup_s": setup_s,
        "rounds": len(outcomes),
        "attempted": sum(oc.attempted for r in outcomes for oc in r),
        "failed": sum(oc.failed for r in outcomes for oc in r),
        "correct": repeatable and not any(oc.problems for r in outcomes for oc in r),
        "repeatable": repeatable,
        "wall_s": sum(statistics.median(w) for w in wall),
        "peak_rss_mb": peak_rss_mb,
        "ops": [{"op": op.label, "attempted": sum(oc.attempted for oc in ocs),
                 "failed": sum(oc.failed for oc in ocs),
                 "problems": ["round %d: %s" % (k + 1, p)
                              for k, oc in enumerate(ocs) for p in oc.problems],
                 "wall_s": statistics.median(w), "cpu_s": statistics.median(c),
                 "wall_rounds": w, "cpu_rounds": c}
                for op, ocs, w, c in zip(ops, per_op, wall, cpu)],
    }
    if tracer is not None:
        result["layers"] = {k: statistics.median(r[k] for r in layers)
                            for k in layers[0]}
    if args.detail:
        detail = dict(result)
        if tracer is not None:
            detail.update(layer_rounds=layers, spans_last_round=tracer.spans)
        Path(args.detail).parent.mkdir(parents=True, exist_ok=True)
        Path(args.detail).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
