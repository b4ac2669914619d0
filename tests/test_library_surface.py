"""The library's surface: what the source declares against what the commands run.

Three rules keep ``src/qlab`` from growing code that nothing runs:

- no module of the package or of the tests imports a name it never reads;
- every class of the package is referenced somewhere in the package outside
  its own definition (names are matched by spelling);
- every function of the package, methods and nested functions included, is
  entered when the commands of :data:`TRAFFIC` run, unless
  :data:`RUN_BY_NO_COMMAND` lists it with its reason.  A definition that
  only the tests reach belongs in the tests;
- every parameter with a default, of a function the traffic enters, is given
  a value other than its default by some call of the traffic, unless
  :data:`SET_BY_NO_COMMAND` lists it with its reason.  An option that only
  the tests set belongs in the tests, and one that nothing sets is a
  constant.  Dataclass ``__init__``s are left out: they are compiled from a
  string, and their fields are the program's input.

The traffic is traced with ``sys.setprofile`` in a fresh interpreter that
imports ``qlab`` only after the profiler is set, so that the import-time
calls are seen and no table the package fills once (the per-mode Wick
table, the orbit plans) hides a function behind an earlier test.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qlab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

#: the commands whose calls must enter every function of the package;
#: ``{out}`` and ``{config}`` name files of the test's temporary directory
TRAFFIC = (
    ("verify", "--n", "3", "--L", "2", "--phi=0.7,-0.4,-0.3"),
    ("verify", "--n", "2", "--L", "2", "--format", "csv", "--out", "{out}"),
    ("spectrum", "--n", "2", "--L", "3", "--format", "csv"),
    # Newton steps on some of these states, so its Jacobian runs
    ("bethe", "--n", "2", "--L", "5"),
    ("hasse", "--n", "2"),
    ("report", "--config", "{config}"),
)
#: the configuration file of the ``report`` command above
REPORT_CONFIG = {"n": 2, "L": 2, "phi": [0.7, -0.7], "suite": ["anchors", "trace"]}

#: functions no command enters, each with its reason
RUN_BY_NO_COMMAND = {
    # checks of the paper's factorization hierarchy that a verify suite is to
    # run (ROADMAP item 11)
    "relations.x_merge_residual": "the split/merge relation, for item 11",
    "relations.x_product_form_residual": "the product form, for item 11",
    "fusion.iterated_parton_fusion": "the iterated single-index fusion, for item 11",
    "fusion.IteratedFusion.s_exponents": "read by the iterated fusion's check, item 11",
    "fusion.IteratedFusion.lhs_factors": "read by the iterated fusion's check, item 11",
    "fusion.IteratedFusion.core": "read by the iterated fusion's check, item 11",
    # the truncated Fock route, which the benchmark's checks and the tests
    # take as an independent representation (ROADMAP item 9)
    "oscillator.fock_matrix": "the benchmark builds Fock matrices, also with rep '-'",
    "oscillator.FockSpace.__init__": "the benchmark builds Fock spaces",
    "oscillator.FockSpace.states": "the benchmark reads the basis",
    "oscillator.FockSpace.up_to": "fock_matrix reads the reachable states",
    "oscillator.automorphism_image": "fock_matrix builds the second representation",
    "oscillator.NormalOrderedOp.number": "the benchmark builds the number operator",
}

#: parameters with a default that no call of the traffic sets, each with its reason
SET_BY_NO_COMMAND = {
    "fusion.fuse.mode1_fn": "the iterated single-index fusion sets it, for item 11",
    "fusion.fuse.mode2_fn": "the iterated single-index fusion sets it, for item 11",
    "oscillator.CarrierOp.from_scalar_op.d":
        "above 1 only for a finite carrier on a proper subset, for item 4",
    "glrep.verma_rep.tag": "the commands pass the default; the tests name other modes",
}

#: run by the child interpreter: argv is the traffic as JSON, the
#: ``(module, first line)`` of each package function with defaults as JSON,
#: and the path of the report it writes: the exit status of each command,
#: every ``(module, first line)`` of a package function it entered, and every
#: ``(module, first line, parameter)`` that a call gave a value other than its
#: default (a value equal to the default does not count)
_CHILD = """
import contextlib, gc, io, json, sys, types
traffic, report = json.loads(sys.argv[1]), sys.argv[3]
with_defaults = {tuple(key) for key in json.loads(sys.argv[2])}
entered, set_params = set(), set()
unset = {}  # code -> {parameter: default} of the defaults no call has set yet

def defaults(code):
    fn = next(f for f in gc.get_referrers(code)
              if isinstance(f, types.FunctionType) and f.__code__ is code)
    names = code.co_varnames[:code.co_argcount]
    out = dict(zip(names[len(names) - len(fn.__defaults__ or ()):], fn.__defaults__ or ()))
    out.update(fn.__kwdefaults__ or {})
    return out

def same(a, b):
    try:
        return a is b or bool(a == b)
    except Exception:
        return False

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.endswith(".py"):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("qlab."):
            key = (module[5:], code.co_firstlineno)
            entered.add(key)
            if key in with_defaults:
                pending = unset.get(code)
                if pending is None:
                    pending = unset[code] = defaults(code)
                for name, default in list(pending.items()):
                    if not same(frame.f_locals[name], default):
                        set_params.add(key + (name,))
                        del pending[name]

sys.setprofile(profile)
import qlab.cli
statuses = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in traffic:
        statuses.append(qlab.cli.main(argv))
sys.setprofile(None)
with open(report, "w") as fh:
    json.dump({"statuses": statuses, "entered": sorted(entered),
               "set": sorted(set_params)}, fh)
"""


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """Each name an import binds, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read_names(tree):
    """Every name the module reads, string annotations included."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                              if isinstance(n, ast.Name)}
    return names


def _references(tree):
    """How often ``tree`` reads each name, as a name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _functions(body, prefix):
    """``(qualified name, first line, node)`` of every function under
    ``body``, methods and nested functions included; a decorated function
    starts at its first decorator, as its code object does."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = "%s.%s" % (prefix, node.name)
            if isinstance(node, ast.FunctionDef):
                first = node.decorator_list[0] if node.decorator_list else node
                yield name, first.lineno, node
            yield from _functions(node.body, name)
        elif hasattr(node, "body"):  # an if, a try, a with ...
            for block in ("body", "orelse", "handlers", "finalbody"):
                yield from _functions(getattr(node, block, []), prefix)


def _package_functions():
    """``{qualified name: (module, first line)}`` of every package function."""
    return {name: (path.stem, line) for path in PACKAGE
            for name, line, _ in _functions(_parse(path).body, path.stem)}


def _package_options():
    """``{qualified name.parameter: (module, first line, parameter)}`` of every
    parameter with a default of a package function."""
    out = {}
    for path in PACKAGE:
        for name, line, node in _functions(_parse(path).body, path.stem):
            args = node.args
            positional = args.posonlyargs + args.args
            params = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out.update(("%s.%s" % (name, a.arg), (path.stem, line, a.arg)) for a in params)
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The ``(module, first line)`` of every package function the traffic
    enters, and the ``(module, first line, parameter)`` of every default it sets."""
    tmp = tmp_path_factory.mktemp("traffic")
    config = tmp / "report.json"
    config.write_text(json.dumps(REPORT_CONFIG), encoding="utf-8")
    traffic = [[arg.format(out=tmp / "verify.csv", config=config) for arg in argv]
               for argv in TRAFFIC]
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    report = tmp / "traced.json"
    with_defaults = sorted({key[:2] for key in _package_options().values()})
    subprocess.run([sys.executable, "-c", _CHILD, json.dumps(traffic),
                    json.dumps(with_defaults), str(report)],
                   env=env, check=True, timeout=300)
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["statuses"] == [0] * len(TRAFFIC)
    return {tuple(key) for key in doc["entered"]}, {tuple(key) for key in doc["set"]}


def _unset_options(traced):
    """Each parameter with a default, of a function the traffic enters, that
    no call of the traffic sets."""
    entered, set_params = traced
    return sorted(name for name, key in _package_options().items()
                  if key[:2] in entered and key not in set_params)


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in PACKAGE + TESTS:
        tree = _parse(path)
        read = _read_names(tree)
        unused += ["%s:%d %s" % (path.relative_to(ROOT), line, name)
                   for name, line in sorted(_imported(tree).items()) if name not in read]
    assert not unused, "imported but never read: " + ", ".join(unused)


def test_every_class_is_referenced_from_the_package():
    trees = {path: _parse(path) for path in PACKAGE}
    total = sum(map(_references, trees.values()), Counter())
    unreferenced = ["%s.%s" % (path.stem, node.name)
                    for path, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and total[node.name] == _references(node)[node.name]]
    assert not unreferenced, "referenced from no module of the package: " \
        + ", ".join(unreferenced)


def test_every_function_is_entered_by_a_command(traced):
    entered, _ = traced
    missed = sorted(name for name, key in _package_functions().items()
                    if key not in entered and name not in RUN_BY_NO_COMMAND)
    assert not missed, "entered by no command: " + ", ".join(missed)


def test_every_allowed_definition_is_still_unreached(traced):
    # a name that is gone, or that a command now enters, leaves the list
    entered, _ = traced
    functions = _package_functions()
    stale = sorted(name for name in RUN_BY_NO_COMMAND
                   if name not in functions or functions[name] in entered)
    assert not stale, stale


def test_every_option_is_set_by_a_command(traced):
    missed = [name for name in _unset_options(traced) if name not in SET_BY_NO_COMMAND]
    assert not missed, "set by no command: " + ", ".join(missed)


def test_every_allowed_option_is_still_unset(traced):
    # a parameter that is gone, or that a command now sets, leaves the list
    unset = _unset_options(traced)
    stale = sorted(name for name in SET_BY_NO_COMMAND if name not in unset)
    assert not stale, stale
