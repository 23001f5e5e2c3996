"""src/heislab keeps only what a command, an acceptance check or the bench
reaches.

A module-level function or class of src/heislab must be used by name
(an ast.Name or ast.Attribute, not an import or a docstring) somewhere in
src/heislab outside __init__.py and outside its own body, in
tests/test_acceptance.py or in perfbench/*.py.  Unit tests do not count:
an oracle only they use belongs in their file.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = sorted(glob.glob(os.path.join(ROOT, "src", "heislab", "*.py")))
MODULES = [p for p in SRC if os.path.basename(p) != "__init__.py"]
READERS = [os.path.join(ROOT, "tests", "test_acceptance.py")] \
    + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _used_names(node, skip=None):
    """Ids of the ast.Name and attrs of the ast.Attribute nodes in node.

    The subtree of skip, a definition, is left out: a definition's own
    body does not count as a use of it.
    """
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def test_every_definition_is_reached():
    assert len(MODULES) >= 10 and os.path.exists(READERS[0])
    trees = {path: _tree(path) for path in MODULES}
    used = {path: _used_names(tree) for path, tree in trees.items()}
    readers = set().union(*(_used_names(_tree(p)) for p in READERS))
    unreached = []
    for path, tree in trees.items():
        others = set().union(*(u for p, u in used.items() if p != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in readers | others \
                    | _used_names(tree, skip=node):
                unreached.append("%s.%s" % (os.path.basename(path)[:-3],
                                            node.name))
    assert unreached == [], unreached


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    tree = _tree(path)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in bound if name not in used] == []


# (module, function, parameter) that no body reads, each with its reason
UNREAD_PARAMETERS = {
    ("experiments", "projection_area", "points_per_ball"):
        "perfbench/workloads.py passes the sampled path's point count "
        "positionally; it has no effect since the column raster",
}


def test_every_parameter_is_read():
    # a parameter is read when its name is loaded somewhere in the body,
    # nested functions included
    unread = []
    for path in MODULES:
        module = os.path.basename(path)[:-3]
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {n.id for part in body for n in ast.walk(part)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs \
                    + [x for x in (a.vararg, a.kwarg) if x]:
                if arg.arg not in loaded:
                    unread.append((module, getattr(node, "name", "<lambda>"),
                                   arg.arg))
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)


def _functions(tree):
    """(name, node) of every function in tree, nested ones included."""
    return [(n.name, n) for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_one_block_budget():
    # every array pass blocks by core.PAIR_BLOCK or plates.PLATE_BLOCK;
    # only core.blocks and core.window_blocks turn a budget into a step,
    # and nothing else steps a range, so patching one name re-blocks all
    steppers = {("core", "blocks"), ("core", "window_blocks")}
    bound, misused = set(), []
    for path in MODULES:
        module = os.path.basename(path)[:-3]
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    or isinstance(node, ast.alias):
                name = getattr(node, "id", None) or node.asname or node.name
                if name.endswith("_BLOCK"):
                    bound.add((module, name))
        for name, fn in _functions(tree):
            if (module, name) in steppers:
                continue
            parents = {child: n for n in ast.walk(fn)
                       for child in ast.iter_child_nodes(n)}
            for node in ast.walk(fn):
                ref = getattr(node, "id", None) or getattr(node, "attr", "")
                call = parents.get(node)
                if ref.endswith("_BLOCK") and not (
                        isinstance(call, ast.Call) and node in call.args
                        and getattr(call.func, "id", None)
                        in ("blocks", "window_blocks")):
                    misused.append("%s.%s: %s" % (module, name, ref))
                if isinstance(node, ast.Call) \
                        and getattr(node.func, "id", None) == "range" \
                        and len(node.args) == 3:
                    misused.append("%s.%s: range step" % (module, name))
    assert bound == {("core", "PAIR_BLOCK"), ("plates", "PLATE_BLOCK")}
    assert misused == []
