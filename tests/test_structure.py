"""Structure gates over the package source, each file parsed once.

* np.einsum appears only in the top-level functions that expand one point's
  curvature context to full tensors; the fields are contracted entry by entry
  on their components (the 2x2 helpers of potential.py).
* No package module imports a module of a higher layer; every import counts,
  also one made inside a function.
* Every public top-level function and class of a package module, and every
  public method and property of such a class, has a consumer outside the
  tests.

Each list a gate reads (the allowed functions, the layered modules, the
reader directories) must name things that exist, so that a rename or a move
cannot turn the gate off, and each gate reports a violation planted in a
synthetic module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "calabiflow"

# the only top-level functions of the package that may use np.einsum
EINSUM_ALLOWED = ("_blocks_from_ctx", "ricci_trace")
# the package modules, lowest layer first
LAYERS = (("errors", "_serialize"), ("polytope",), ("potential",), ("curvature",),
          ("energy",), ("flow",), ("sobolev",), ("cli",))
RANK = {name: r for r, names in enumerate(LAYERS) for name in names}
# directories whose scripts are consumers, beside the package modules
READER_DIRS = ("perfbench", "tools")
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


class Source:
    """One file's text and syntax tree."""

    def __init__(self, path: Path, text: str = None):
        self.path = path
        self.text = path.read_text() if text is None else text
        self.tree = ast.parse(self.text, str(path))


def einsum_violations(sources, allowed=EINSUM_ALLOWED) -> list:
    """Lines that mention einsum, code, string or comment alike, outside the
    top-level functions named in `allowed`."""
    bad = []
    for src in sources:
        inside = set()
        for node in src.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in allowed:
                inside.update(range(node.lineno, node.end_lineno + 1))
        for k, line in enumerate(src.text.splitlines(), 1):
            if "einsum" in line and k not in inside:
                bad.append(f"{src.path}:{k}: {line.strip()}")
    return bad


def layer_violations(modules: dict, rank=RANK) -> list:
    """Imports, in {module name: Source}, of a calabiflow module ranked
    above the importer."""
    bad = []
    for name, src in modules.items():
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "calabiflow." * (node.level > 0) + (node.module or "")
                targets = [module] + [f"{module.rstrip('.')}.{a.name}" for a in node.names]
            else:
                continue
            for target in {t.split(".")[1] for t in targets if t.startswith("calabiflow.")}:
                if rank.get(target, -1) > rank[name]:
                    bad.append(f"{src.path}:{node.lineno}: {name} imports {target}, a higher layer")
    return bad


def consumer_violations(package, readers) -> tuple:
    """(unconsumed, checked): the public names and members of the `package`
    Sources that no `readers` Source consumes, and how many were checked.

    A top-level function or class is consumed by a name, an attribute, an
    import or a string equal to its name; a public method or property of a
    class by an attribute or a string (the benchmark tracer patches methods
    by name).  Comments and docstrings do not count."""
    names, attrs = set(), set()
    for src in readers:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    bad, checked = [], 0
    for src in package:
        for node in src.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            items = [(node, node.name, node.name in names | attrs)]
            if isinstance(node, ast.ClassDef):
                items += [(m, f"{node.name}.{m.name}", m.name in attrs) for m in node.body
                          if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
            for item, name, used in items:
                checked += 1
                if not used:
                    bad.append(f"{src.path}:{item.lineno}: {name} has no consumer")
    return bad, checked


@pytest.fixture(scope="module")
def modules():
    """{module name: Source} of every package module but __init__."""
    return {p.stem: Source(p) for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def test_einsum_only_in_the_one_point_curvature_blocks(modules):
    defined = {node.name for src in modules.values() for node in src.tree.body
               if isinstance(node, ast.FunctionDef)}
    assert set(EINSUM_ALLOWED) <= defined
    assert einsum_violations(modules.values()) == []


def test_no_module_imports_a_higher_layer(modules):
    # every module has a layer, and every layer's modules exist
    assert set(modules) == set(RANK)
    assert layer_violations(modules) == []


def test_every_public_name_and_member_has_a_consumer(modules):
    scripts = {d: sorted((ROOT / d).glob("*.py")) for d in READER_DIRS}
    assert all(scripts.values()) and ACCEPTANCE.is_file()
    readers = list(modules.values()) + [Source(p) for d in READER_DIRS for p in scripts[d]]
    readers.append(Source(ACCEPTANCE))
    bad, checked = consumer_violations(modules.values(), readers)
    assert bad == [] and checked > 0


PLANTED = '''import numpy as np
from .cli import main


def ricci_trace(a):
    return np.einsum("ii", a)


def trace(a):
    return np.einsum("ii", a)


class Gauge:
    def read(self):
        return trace


def unread():
    return Gauge()
'''


def test_each_gate_reports_its_planted_violation():
    src = Source(PACKAGE / "planted.py", PLANTED)
    assert einsum_violations([src]) == [f'{src.path}:10: return np.einsum("ii", a)']
    assert layer_violations({"planted": src}, dict(RANK, planted=RANK["flow"])) == [
        f"{src.path}:2: planted imports cli, a higher layer"]
    bad, checked = consumer_violations([src], [src])
    assert [line.split(": ", 1)[1] for line in bad] == [
        "ricci_trace has no consumer", "Gauge.read has no consumer", "unread has no consumer"]
    assert checked == 5
