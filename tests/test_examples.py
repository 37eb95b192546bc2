"""Every name the example scripts import from the package exists.

The examples start Ray and run for minutes, so the suite does not run
them; this parses each one with ``ast`` and resolves its
``pyrdf2vec_ray`` imports, which catches an example still importing a
deleted or renamed name.  No Ray session is started."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def _package_imports(path):
    """(module, name or None) for each pyrdf2vec_ray import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module or ""
        ).split(".")[0] == "pyrdf2vec_ray":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pyrdf2vec_ray":
                    yield alias.name, None


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    for module, name in _package_imports(path):
        mod = importlib.import_module(module)
        if name is None:
            continue
        # `from pkg import submodule` names a module, not an attribute
        assert hasattr(mod, name) or (
            hasattr(mod, "__path__")
            and importlib.util.find_spec(f"{module}.{name}") is not None
        ), f"{path.name} imports {name!r} from {module}, which has no such name"
