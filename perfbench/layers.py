"""Per-layer tracing by wrapping the public functions of each ``qlab`` module.

Nothing inside the package changes: :meth:`Tracer.install` replaces each
public function and method with a timing wrapper, in the defining module and
in every module that imported the name (``relations.build_Q``,
``fusion.fock_matrix``).  Every wrapped call adds its own duration to its
caller's child time, so each name accumulates *self* time.  The wrappers'
own cost is charged to no name; it shows as the difference between traced
and untraced wall time.  Calls to the value-class arithmetic and the small
index helpers run hundreds of thousands of times per round; they are
aggregated into a count and a total only.  Every other call is also kept as
a span ``(id, parent, name, start, end)``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Tuple

MODULES = ("oscillator", "tensor", "glrep", "lax", "fusion", "transfer",
           "relations", "spectral", "cli")

#: private names that a layer metric needs
EXTRA = {"relations": ("_operator_det",), "cli": ("_emit",)}

#: arithmetic methods wrapped besides the public ones
DUNDERS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__matmul__", "__pow__", "__neg__")

#: classes and functions whose calls are aggregated and never kept as spans
HOT_CLASSES = ("NormalOrderedOp", "CarrierOp", "QuantumOperator",
               "OperatorPolynomial", "LaxMatrix", "TwistOperatorD", "GlRep")
HOT_FUNCTIONS = ("tensor.basis_states", "tensor.state_index", "tensor.occupation",
                 "tensor.kron", "tensor.kron_all", "tensor.comm_norm",
                 "oscillator.weighted_trace", "oscillator.normalized_trace",
                 "oscillator.damped_numeric_trace", "spectral.poly_roots",
                 "spectral.bethe_residuals", "spectral.energy_from_roots",
                 "spectral.energy_from_tbox_poly", "glrep.rho_weight",
                 "glrep.shifted_weights")

#: layer metric -> wrapped names whose self times add up to it
SELF_TIMES = {
    "transfer.build_s": ("transfer.build_X", "transfer.build_Q",
                         "transfer.build_X_plus", "transfer.build_T_box",
                         "transfer.build_T_plus", "transfer.build_twist_D"),
    "transfer.transfer_at_s": ("transfer.transfer_at",),
    "transfer.fit_s": ("transfer.fit_operator_polynomial",),
    "transfer.bgg_s": ("transfer.bgg_eigen_check", "transfer.alternating_sum_T"),
    "oscillator.op_mul_s": ("oscillator.NormalOrderedOp.__mul__",
                            "oscillator.NormalOrderedOp.__rmul__",
                            "oscillator.NormalOrderedOp.__pow__"),
    "oscillator.carrier_mul_s": ("oscillator.CarrierOp.__mul__",
                                 "oscillator.CarrierOp.__rmul__"),
    "oscillator.weighted_trace_s": ("oscillator.weighted_trace",
                                    "oscillator.CarrierOp.weighted_trace",
                                    "transfer.TwistOperatorD.weighted_trace"),
    "oscillator.extrapolated_trace_s": ("oscillator.extrapolated_trace",
                                        "oscillator.damped_numeric_trace"),
    "oscillator.fock_matrix_s": ("oscillator.fock_matrix",),
    "oscillator.nilpotent_exp_s": ("oscillator.nilpotent_exp",),
    "lax.rll_residual_s": ("lax.rll_residual",),
    "fusion.residual_s": ("fusion.FusionResult.residual",
                          "fusion.IteratedFusion.residual",
                          "fusion.PartonFactorization.residual",
                          "fusion.block_residual"),
    "glrep.relation_residual_s": ("glrep.gl_relation_residual",),
    "tensor.matmul_s": ("tensor.QuantumOperator.__matmul__",),
    "tensor.add_s": ("tensor.QuantumOperator.__add__",
                     "tensor.QuantumOperator.__sub__"),
    "tensor.to_dense_s": ("tensor.QuantumOperator.to_dense",),
    "relations.residual_s": ("relations.hirota_residual",
                             "relations.q_determinant_residual",
                             "relations.t_determinant_residual",
                             "relations.plucker_residual",
                             "relations.x_merge_residual",
                             "relations.x_product_form_residual"),
    "relations.operator_det_s": ("relations._operator_det",),
    "spectral.eigenbasis_s": ("spectral.simultaneous_eigenbasis",),
    "spectral.extract_s": ("spectral.extract_q_polynomials",
                           "spectral.extract_q_polynomials_loose"),
    "spectral.newton_s": ("spectral.solve_bethe_newton",),
    "cli.verify_s": ("cli.run_verify",),
    "cli.spectrum_s": ("cli.run_spectrum",),
    "cli.bethe_s": ("cli.run_bethe",),
    "cli.emit_s": ("cli._emit",),
}
#: layer metric -> wrapped names whose call counts add up to it
CALLS = {
    "transfer.transfer_at_calls": ("transfer.transfer_at",),
    "oscillator.op_mul_calls": SELF_TIMES["oscillator.op_mul_s"],
    "oscillator.weighted_trace_calls": ("oscillator.weighted_trace",),
    "oscillator.fock_matrix_calls": ("oscillator.fock_matrix",),
    "tensor.matmul_calls": ("tensor.QuantumOperator.__matmul__",),
}
#: work counters filled by the result hooks below
COUNTERS = ("transfer.build_calls", "transfer.build_distinct",
            "transfer.pairs_balanced", "transfer.entries_nonzero",
            "oscillator.fock_dim_max", "oscillator.fock_nnz",
            "spectral.newton_iterations")


def metric_units() -> Dict[str, str]:
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in tuple(CALLS) + COUNTERS})
    units["transfer.build_useful_share"] = "ratio"
    return units


def _carrier_key(rep) -> tuple:
    return (rep.kind, rep.labels, rep.d,
            tuple(complex(rep.weight[a]) for a in rep.labels))


class Tracer:
    """Self times, call counts, work counters and spans of the wrapped calls."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.build_keys: set = set()
        self.spans: List[Tuple[int, int, str, float, float]] = []
        # frames: [child seconds, span id]; the bottom frame is outside any wrapped call
        self._stack: List[list] = [[0.0, -1]]
        # open transfer_at calls; a twisted trace inside one is one pair
        self._in_transfer_at = 0
        self._originals: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hot: bool,
              on_result: Callable | None) -> Callable:
        stack, calls, self_s, spans = (self._stack, self.calls, self.self_s,
                                       self.spans)
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter
        marks_transfer_at = name == "transfer.transfer_at"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if not hot:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            if marks_transfer_at:
                self._in_transfer_at += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if marks_transfer_at:
                    self._in_transfer_at -= 1
                stack.pop()
                calls[name] += 1
                self_s[name] += t1 - t0 - frame[0]
                if not hot:
                    spans[frame[1]] = (frame[1], parent[1], name, t0, t1)
                # the caller is charged for this wrapper's bookkeeping as well,
                # so that its self time holds only its own work
                parent[0] += clock() - entered
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module("qlab." + m) for m in MODULES}
        hooks = {
            "transfer.build_X": self._on_build,
            "transfer.transfer_at": self._on_transfer_at,
            "transfer.TwistOperatorD.weighted_trace": self._on_pair_trace,
            "oscillator.fock_matrix": self._on_fock_matrix,
            "spectral.solve_bethe_newton": self._on_newton,
        }
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    hot = attr in HOT_CLASSES
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") and meth not in DUNDERS:
                            continue
                        name = "%s.%s.%s" % (short, attr, meth)
                        if isinstance(raw, (classmethod, staticmethod)):
                            kind = type(raw)
                            w = kind(self._wrap(name, raw.__func__, hot, None))
                        elif inspect.isfunction(raw):
                            w = self._wrap(name, raw, hot, hooks.get(name))
                        else:
                            continue
                        self._set(obj, meth, w)
                elif inspect.isfunction(obj) and (
                        not attr.startswith("_") or attr in EXTRA.get(short, ())):
                    name = "%s.%s" % (short, attr)
                    replaced[obj] = self._wrap(name, obj, name in HOT_FUNCTIONS,
                                               hooks.get(name))
        # patch each function wherever its name was imported
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- work counters -------------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _on_build(self, args, kwargs, result) -> None:
        bound = _bind(args, kwargs,
                      ("n", "length", "index_set", "rep", "twist", "degree"))
        I = tuple(sorted(bound["index_set"]))
        if I:
            self._add("transfer.build_calls", 1)
            self.build_keys.add((bound["n"], bound["length"], I,
                                 _carrier_key(bound["rep"]),
                                 tuple(bound["twist"].phis)))

    def _on_transfer_at(self, args, kwargs, result) -> None:
        self._add("transfer.entries_nonzero", len(result.data))

    def _on_pair_trace(self, args, kwargs, result) -> None:
        if self._in_transfer_at:
            self._add("transfer.pairs_balanced", 1)

    def _on_fock_matrix(self, args, kwargs, result) -> None:
        space = args[1] if len(args) > 1 else kwargs["space"]
        self.counters["oscillator.fock_dim_max"] = max(
            self.counters.get("oscillator.fock_dim_max", 0), space.dim)
        self._add("oscillator.fock_nnz", result.nnz)

    def _on_newton(self, args, kwargs, result) -> None:
        self._add("spectral.newton_iterations", result[2])

    # -- readout -------------------------------------------------------------------

    def start_round(self) -> None:
        """Zero every accumulator; call between operations, never inside one."""
        for name in self.calls:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self.counters.clear()
        self.build_keys.clear()
        del self.spans[:]

    def metrics(self) -> Dict[str, float]:
        """The layer metrics accumulated since :meth:`start_round`."""
        out = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self.self_s[n] for n in names if n in self.self_s)
        for metric, names in CALLS.items():
            out[metric] = sum(self.calls[n] for n in names if n in self.calls)
        for metric in COUNTERS:
            out[metric] = self.counters.get(metric, 0)
        out["transfer.build_distinct"] = len(self.build_keys)
        # distinct members over member builds; 1 when nothing was built
        builds = out["transfer.build_calls"]
        out["transfer.build_useful_share"] = (
            out["transfer.build_distinct"] / builds if builds else 1.0)
        return out


def _bind(args, kwargs, params) -> dict:
    out = dict(zip(params, args))
    out.update(kwargs)
    return out
