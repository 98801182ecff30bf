import ast
import re
import types
from pathlib import Path

import sepmix
from sepmix import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sepmix"

# Module-level functions and classes that no code in the package or the
# benchmark reads, kept for library users alone, each with its reason.
LIBRARY_ONLY: set[str] = set()
# The same for methods and properties of package classes.
LIBRARY_ONLY_METHODS: set[str] = set()


def test_all_names_resolve():
    missing = [name for name in sepmix.__all__ if not hasattr(sepmix, name)]
    assert not missing
    assert len(set(sepmix.__all__)) == len(sepmix.__all__)


def test_all_is_exactly_the_public_bindings():
    bound = {
        name
        for name, value in vars(sepmix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sepmix.__all__) == bound


def test_every_error_class_is_exported():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert classes <= set(sepmix.__all__)


def _package_nodes():
    """(path, node) of each module-level function and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node


def _unread(defined, pattern):
    """Names of the ``defined`` (path, node) pairs that ``pattern`` (given the
    name) finds on no line outside the node, in the package (its __init__
    re-exports do not count) or in the benchmark; tests do not count."""
    readers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    lines = {path: path.read_text().splitlines() for path in readers}
    unread = []
    for path, node in defined:
        own = range(node.lineno, node.end_lineno + 1)
        word = re.compile(pattern.format(re.escape(node.name)))
        if not any(
            word.search(line)
            for reader, text in lines.items()
            for number, line in enumerate(text, start=1)
            if not (reader == path and number in own)
        ):
            unread.append(node.name)
    return sorted(unread)


def test_every_module_level_name_is_read_somewhere():
    # A name counts as read when it occurs as a word on a line outside its
    # own definition.
    assert _unread(_package_nodes(), r"\b{}\b") == sorted(LIBRARY_ONLY)


def test_every_method_and_property_is_read_somewhere():
    # A method or property of a package class counts as read when ``.name``
    # occurs on a line outside its own definition.  Methods Python calls
    # itself (``__init__``, ``__post_init__``) are not counted.
    methods = [
        (path, item)
        for path, node in _package_nodes()
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]
    assert methods
    assert _unread(methods, r"\.{}\b") == sorted(LIBRARY_ONLY_METHODS)
