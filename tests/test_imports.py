"""Five lints on the library's names.

Every name imported into a library module is used there.  `__init__.py` is
skipped, since its imports are the package's re-exports, and so is
`from __future__ import annotations`.  A name counts as used when it is
read anywhere in the module, in a quoted annotation too.

Every public top-level def or class of a library module is read somewhere
in `src/derlab` outside its own definition, re-exported by `__init__.py`,
or named in README.md.  `samples.py` is exempt: it holds the fixtures of
the tests and the benchmark.  Reads are counted on the syntax tree, so a
docstring or comment that names a function does not keep it.

No library module reads another module's private name (one leading
underscore), neither by `from .modules import _x` nor as `modules._x`: what
a module keeps private is reached through its public functions.

The memos the library keeps are the memos README.md documents: the names
passed to `Algebra.kept(...)` and `by_content(...)` are the rows of the
table in README's "Memos keyed by content" section.  A name that is not a
string literal counts as undocumented.

Every annotated field of a library `@dataclass` is read, as an attribute
load `x.field`, somewhere in `src/`, `tests/` or `bench/`: a field nobody
reads is a value built for no one.  The check is by name, so a field
shares its reads with every attribute of the same name.
"""

import ast
import re
from pathlib import Path
from typing import Iterable

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "derlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _with_quoted_annotations(tree: ast.AST):
    """tree, then each quoted annotation in it, parsed."""
    yield tree
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                yield ast.parse(const.value, mode="eval")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for t in _with_quoted_annotations(tree) for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_lint_sees_unused_and_quoted_names():
    source = "from typing import Dict, List\nimport numpy as np\nfrom .cats import slice_category\n\ndef f(x: 'Dict[str, int]') -> None:\n    return np.zeros(1)\n"
    assert unused_imports(source) == [(1, "List"), (3, "slice_category")]


def unreferenced_names(sources: dict, readme: str) -> list:
    """"module.name" for each public top-level def or class of sources (file
    name -> text) that no other top-level statement reads, that
    `__init__.py` does not import and that readme does not name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    init = trees.get("__init__.py", ast.Module(body=[], type_ignores=[]))
    exported = {alias.asname or alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom) for alias in node.names}
    reads = [
        (stmt, {n.id if isinstance(n, ast.Name) else n.attr for t in _with_quoted_annotations(stmt) for n in ast.walk(t) if isinstance(n, (ast.Name, ast.Attribute))})
        for tree in trees.values()
        for stmt in tree.body
    ]
    out = []
    for module, tree in trees.items():
        if module in ("__init__.py", "samples.py"):
            continue
        for stmt in tree.body:
            name = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "_"
            if name.startswith("_") or name in exported or re.search(rf"\b{name}\b", readme):
                continue
            if not any(name in read for other, read in reads if other is not stmt):
                out.append(f"{module[:-3]}.{name}")
    return sorted(out)


def test_every_public_name_is_used_exported_or_documented():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_names(sources, (ROOT / "README.md").read_text()) == []


SURFACE_A = '''
def unused():
    return unused()


def exported():
    pass


def documented():
    pass


def called():
    pass


def in_prose_only():
    pass


def _private():
    pass
'''

SURFACE_B = '''
from . import a


def caller() -> "Annotated":
    """Calls in_prose_only() in its docstring only."""
    return a.called()


class Annotated:
    pass
'''


def test_the_surface_lint_sees_unreferenced_names():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": SURFACE_A,
        "b.py": SURFACE_B,
        "samples.py": "def fixture():\n    pass\n",
    }
    readme = "`documented` is described here; `undocumented_name` is not in the code"
    assert unreferenced_names(sources, readme) == ["a.in_prose_only", "a.unused", "b.caller"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(sources: dict) -> list:
    """"module: owner.name" for each private name of a library module that
    a module of sources (file name -> text) imports, or reads as an
    attribute of an imported library module."""
    out = []
    for module, text in sources.items():
        tree = ast.parse(text)
        library = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "derlab")]
        # `from . import modules` and `from derlab import modules` bind modules
        modules = {alias.asname or alias.name for node in library if node.module in (None, "derlab") for alias in node.names}
        for node in library:
            out += [f"{module[:-3]}: {node.module}.{alias.name}" for alias in node.names if node.module not in (None, "derlab") and _is_private(alias.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules and _is_private(node.attr):
                out.append(f"{module[:-3]}: {node.value.id}.{node.attr}")
    return sorted(out)


def test_no_module_reads_another_modules_private_names():
    assert private_reads({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


PRIVATE_READER = '''
from . import modules
from . import field as f
from .modules import _submodule, submodule
from derlab.cats import _grade


def reader(alg, m):
    alg._memos.clear()
    modules.__name__
    modules.submodule(m, m)
    return f._eliminate(m), modules._radical_layer(m), m._private
'''


def test_the_private_lint_sees_imports_and_module_attributes():
    assert private_reads({"reader.py": PRIVATE_READER}) == [
        "reader: derlab.cats._grade",
        "reader: f._eliminate",
        "reader: modules._radical_layer",
        "reader: modules._submodule",
    ]


def _outside_by_content(tree: ast.AST):
    """The nodes of tree, bar the body of `by_content`, which hands its own
    name on to `kept`."""
    for node in ast.iter_child_nodes(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "by_content"):
            yield node
            yield from _outside_by_content(node)


def kept_memo_names(sources: list) -> set:
    """The first argument of every `x.kept(...)` and `by_content(...)` call
    in sources, or "<not a literal>" where it is not a string literal."""
    names = set()
    for text in sources:
        for node in _outside_by_content(ast.parse(text)):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "kept") or (isinstance(f, ast.Name) and f.id == "by_content"):
                first = node.args[0]
                names.add(first.value if isinstance(first, ast.Constant) and isinstance(first.value, str) else "<not a literal>")
    return names


def documented_memo_names(readme: str) -> set:
    """The memo named in the first cell of each table row of README's
    "Memos keyed by content" section."""
    section = readme.split("### Memos keyed by content", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, re.M))


def test_every_kept_memo_is_documented_and_every_documented_memo_is_kept():
    sources = [p.read_text() for p in SRC.glob("*.py")]
    documented = documented_memo_names((ROOT / "README.md").read_text())
    assert documented and kept_memo_names(sources) == documented


def test_the_memo_lint_sees_kept_and_by_content_names():
    source = 'def by_content(name, x, f):\n    return x.alg.kept(name, 1, 1, f)\n\n\ndef f(alg, x, name):\n    alg.kept("a", 1, 1, f)\n    by_content("b", x, f)\n    alg.kept(name, 1, 1, f)\n    kept("c")\n'
    assert kept_memo_names([source]) == {"a", "b", "<not a literal>"}
    readme = "### Memos keyed by content\n\n| Memo | rate |\n|---|---|\n| `a` | 0.5 |\n| `b` | 0.1 |\n\n### Next\n\n| `c` | 0 |\n"
    assert documented_memo_names(readme) == {"a", "b"}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Is cls decorated @dataclass, @dataclass(...) or @dataclasses.dataclass?"""
    for deco in cls.decorator_list:
        f = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(f, ast.Name) and f.id == "dataclass") or (isinstance(f, ast.Attribute) and f.attr == "dataclass"):
            return True
    return False


def unread_dataclass_fields(sources: dict, readers: Iterable[str]) -> list:
    """"module.Class.field" for each annotated field of a dataclass in
    sources (file name -> text) that no attribute load of readers (texts)
    names."""
    loads = {n.attr for text in readers for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for module, text in sources.items():
        for cls in ast.walk(ast.parse(text)):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                fields = [st.target.id for st in cls.body if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
                out += [f"{module[:-3]}.{cls.name}.{name}" for name in fields if name not in loads]
    return sorted(out)


def test_every_dataclass_field_is_read():
    readers = [p.read_text() for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py") if "_work" not in p.parts]
    assert unread_dataclass_fields({p.name: p.read_text() for p in MODULES}, readers) == []


DATACLASSES = '''
import dataclasses
from dataclasses import dataclass


@dataclass
class Plain:
    read: int
    unread: int


@dataclass(frozen=True)
class Called:
    stored_only: str
    limit: int = 0


@dataclasses.dataclass
class Qualified:
    orphan: float


class NotADataclass:
    loose: int
'''

DATACLASS_READER = '''
def reader(x, y):
    y.stored_only = x.read  # a store is no read
    return x.limit, x.loose
'''


def test_the_dataclass_lint_sees_unread_fields():
    assert unread_dataclass_fields({"shapes.py": DATACLASSES}, [DATACLASSES, DATACLASS_READER]) == [
        "shapes.Called.stored_only",
        "shapes.Plain.unread",
        "shapes.Qualified.orphan",
    ]
