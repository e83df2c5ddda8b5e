"""Scripts and the benchmark lane name only library attributes that exist.

They run outside the test suite, so a deleted public name would break them
silently.  Each file is parsed, not imported or run; every name it imports
from ``diskcover`` (or a submodule) and every ``diskcover.<name>`` it reads
must resolve on this checkout's library.

The library's own modules share only public names, and ``pyproject.toml``
declares what the library and the tests import.
"""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
PACKAGE = "diskcover"


def library_names(tree):
    """(module, attribute chain, line) of every library name the tree uses."""
    # attributes that are the value of another: only a chain's outermost counts
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == PACKAGE or node.module.startswith(PACKAGE + "."):
                for a in node.names:
                    yield node.module, [a.name], node.lineno
        elif isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = []
            value = node
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == PACKAGE:
                yield PACKAGE, chain[::-1], node.lineno


def missing(module, chain):
    """The first name of ``chain`` that ``module`` lacks, or None.

    The chain is followed through submodules only: past the first attribute
    that is not a module, it names fields of a result, not of the library.
    """
    obj = importlib.import_module(module)
    for name in chain:
        if not inspect.ismodule(obj):
            return None
        if not hasattr(obj, name):
            # a submodule the package does not import becomes an attribute
            # once imported, as ``from diskcover import cli`` does
            try:
                importlib.import_module(f"{obj.__name__}.{name}")
            except ModuleNotFoundError:
                return name
        obj = getattr(obj, name)
    return None


@pytest.mark.parametrize("path", TOOLS, ids=[str(p.relative_to(ROOT)) for p in TOOLS])
def test_every_library_name_exists(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = [
        f"{path.name}:{line}: {module}.{'.'.join(chain)}: {name!r} does not exist"
        for module, chain, line in library_names(tree)
        if (name := missing(module, chain)) is not None
    ]
    assert not bad, bad


def test_a_deleted_name_is_caught():
    tree = ast.parse(
        "import diskcover\n"
        "from diskcover import solve, no_such_name\n"
        "diskcover.also_missing(1).rho\n"
        "diskcover.solve([], 1).covered.count\n"
        "from diskcover import cli\n"
        "diskcover.single_disk.anchor_table\n"
    )
    found = [missing(module, chain) for module, chain, _ in library_names(tree)]
    assert sorted(filter(None, found)) == ["also_missing", "no_such_name"]


def source_trees(directory):
    """(path, parsed module) of every Python file directly in ``directory``."""
    for path in sorted(directory.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_library_modules_import_only_public_names():
    bad = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path, tree in source_trees(ROOT / "src" / PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == PACKAGE)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, bad


def third_party_imports(directory, local):
    """Top-level names of the absolute imports in ``directory`` that are
    neither standard library nor in ``local``."""
    names = set()
    for _, tree in source_trees(directory):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def requirement_names(requirements):
    # the distributions imported here are named as they are imported
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_pyproject_declares_what_is_imported():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = requirement_names(project["dependencies"])
    testing = runtime | requirement_names(project["optional-dependencies"]["test"])
    tests_local = {PACKAGE} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    assert third_party_imports(ROOT / "src" / PACKAGE, {PACKAGE}) <= runtime
    assert third_party_imports(ROOT / "tests", tests_local) <= testing
    # the combination kernel calls np.bitwise_count, new in NumPy 2.0
    (numpy,) = [r for r in project["dependencies"] if re.match(r"numpy\b", r)]
    floor = re.search(r">=\s*([0-9.]+)", numpy).group(1)
    assert tuple(map(int, floor.split("."))) >= (2, 0), numpy
