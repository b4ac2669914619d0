"""The library's surface, read from the source with ``ast`` alone.

Two rules keep ``src/qlab`` from growing code that nothing runs:

- no module of the package or of the tests imports a name it never reads;
- every public top-level function and class of the package, and every
  public method, is referenced somewhere in the package outside its own
  definition.  A definition that only the tests reach belongs in the tests.

Names are matched by spelling: a ``Name`` or an attribute ``.name`` anywhere
in the package counts as a reference to every definition of that name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qlab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

#: public definitions that the package itself does not reach, each with its reason
UNREACHED_ALLOWED = {
    # a check of the paper's product form that a verify suite is to run (ROADMAP item 11)
    "relations.x_product_form_residual",
    # a check of the paper's split/merge relation, likewise for item 11
    "relations.x_merge_residual",
    # the iterated fusion of single-index factors, likewise for item 11
    "fusion.iterated_parton_fusion",
    # the damped numeric trace: the independent route the closed-form traces are checked on
    "oscillator.damped_numeric_trace",
    # the benchmark builds the number operator's Fock matrix from it
    "oscillator.NormalOrderedOp.number",
    # the truncated Fock cross-check route of the tests (ROADMAP item 9)
    "oscillator.FockSpace.buffered_indices",
    # the truncated Fock cross-check route of the tests (ROADMAP item 9)
    "oscillator.CarrierOp.to_matrix",
}


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


def _public_definitions(path, tree):
    """``(qualified name, node)`` of each public top-level function and class
    and of each public method."""
    module = path.stem
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield "%s.%s" % (module, node.name), node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield "%s.%s.%s" % (module, node.name, item.name), item


def _references(tree):
    """How often ``tree`` reads each name, as a name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreached():
    trees = {path: _parse(path) for path in PACKAGE}
    total = sum(map(_references, trees.values()), Counter())
    return sorted(qualified for path, tree in trees.items()
                  for qualified, node in _public_definitions(path, tree)
                  if total[node.name] == _references(node)[node.name])


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in PACKAGE + TESTS:
        tree = _parse(path)
        read = _read_names(tree)
        unused += ["%s:%d %s" % (path.relative_to(ROOT), line, name)
                   for name, line in sorted(_imported(tree).items()) if name not in read]
    assert not unused, "imported but never read: " + ", ".join(unused)


def test_every_public_definition_is_reached_from_the_package():
    extra = [q for q in _unreached() if q not in UNREACHED_ALLOWED]
    assert not extra, "reached from no module of the package: " + ", ".join(extra)


def test_every_allowed_definition_is_still_unreached():
    # a name that is gone, or that the package now reaches, leaves the list
    stale = UNREACHED_ALLOWED - set(_unreached())
    assert not stale, sorted(stale)
