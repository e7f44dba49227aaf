import ast
from pathlib import Path

import pytest

import rankmobility

MODULES = sorted(Path(rankmobility.__file__).parent.glob("*.py"))
# The benchmark harness calls the package too, some of it by name in strings.
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
# Called from outside Python: pyproject.toml's console script.
ENTRY_POINTS = {"cli.main"}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module's imports bind, with the line that binds it;
    __future__ imports bind none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """The names a module reads, those in string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used(ast.parse(annotation.value, mode="eval"))
    return used


def test_the_checked_modules_are_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "columns.py", "corpus.py", "synth.py"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n"
                     "def f(x: 'b') -> None:\n    return os.sep\n")
    assert {name: line for name, line in _imported(tree).items() if name not in _used(tree)} == {"d": 3}


# The package works on its caller's thread and in forked processes only, so
# no thread runs when it forks.
THREAD_MODULES = {"threading", "_thread", "concurrent"}


def _thread_imports(tree: ast.Module) -> dict[str, int]:
    """Each module a module imports from THREAD_MODULES, with its line."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.update((name, node.lineno) for name in names if name.split(".")[0] in THREAD_MODULES)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_no_thread_library(path):
    assert _thread_imports(ast.parse(path.read_text(encoding="utf-8"))) == {}


def test_a_thread_import_is_found():
    tree = ast.parse("import os, threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
                     "from concurrent import futures\nfrom .threads import x\nimport _thread as t\n")
    assert _thread_imports(tree) == {"threading": 1, "concurrent.futures": 2, "concurrent": 3, "_thread": 5}


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level function and class, and each method of such a
    class but the dunder ones, by (qualified) name, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    defined[f"{node.name}.{item.name}"] = item.lineno
    return defined


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads, every attribute it takes, every name it
    imports and every string constant it holds."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _unreferenced(defining: dict[str, ast.Module], referring: list[ast.Module]) -> dict[str, int]:
    """The definitions of the defining modules, as module.name, that no
    referring module references, with their lines."""
    referenced = set().union(*map(_references, referring))
    return {
        f"{module}.{name}": line
        for module, tree in defining.items()
        for name, line in _definitions(tree).items()
        if name.rpartition(".")[2] not in referenced
    }


def test_every_definition_has_a_caller():
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    harness = [ast.parse(path.read_text(encoding="utf-8")) for path in PERFBENCH]
    assert harness, "the benchmark harness was not found"
    unreferenced = _unreferenced(package, [*package.values(), *harness])
    assert {name: line for name, line in unreferenced.items() if name not in ENTRY_POINTS} == {}


def test_a_definition_with_no_caller_is_found():
    defining = ast.parse("class A:\n    def __eq__(self, o): ...\n    def used(self): ...\n    def dead(self): ...\n"
                         "def f(): ...\ndef g(): ...\ndef h(): ...\nclass B: ...\n")
    referring = ast.parse("from m import f\nA().used()\nWRAPS = (('m', 'g'),)\nx: 'B'\n")
    assert _unreferenced({"m": defining}, [defining, referring]) == {"m.A.dead": 4, "m.h": 7}


# The numeric layers work on rank tables, matrices and impact lists; they read
# each other and the file helpers, never the corpus, identities or careers.
NUMERIC_LAYERS = {"stats", "mobility", "diffusion", "inequality"}
NUMERIC_READS = NUMERIC_LAYERS | {"csvio", "jsonio"}


def _package_imports(tree: ast.Module) -> dict[str, int]:
    """Each rankmobility module a module imports, with the line that imports it."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module != "rankmobility":
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            # from .m import x, from . import m or from rankmobility import m
            module = None if node.module == "rankmobility" else node.module
            names = [f"rankmobility.{module or alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            package, _, module = name.partition(".")
            if package == "rankmobility" and module:
                found[module.split(".")[0]] = node.lineno
    return found


@pytest.mark.parametrize("layer", sorted(NUMERIC_LAYERS))
def test_numeric_layers_import_only_each_other_and_the_file_helpers(layer):
    path = Path(rankmobility.__file__).parent / f"{layer}.py"
    imported = _package_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert {module: line for module, line in imported.items() if module not in NUMERIC_READS} == {}


def test_a_package_import_is_found():
    tree = ast.parse("import numpy\nfrom .cohort import Careers\nfrom . import corpus, csvio\n"
                     "import rankmobility.synth\nfrom rankmobility import names\nfrom rankmobility.disambig import x\n")
    assert _package_imports(tree) == {"cohort": 2, "corpus": 3, "csvio": 3, "synth": 4, "names": 5, "disambig": 6}
