"""The package raises two error families, one per CLI exit code: the
exception classes are the three in ``errors``, and no other module adds one."""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "modalmr"
FAMILY = {"ModalRegressionError", "InputError", "NumericError"}
BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def classes(path):
    """(name, base names) of each class defined anywhere in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.name, [base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                         for base in node.bases])
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def test_errors_defines_exactly_the_two_families_and_their_base():
    assert classes(PACKAGE / "errors.py") == [
        ("ModalRegressionError", ["Exception"]),
        ("InputError", ["ModalRegressionError", "ValueError"]),
        ("NumericError", ["ModalRegressionError", "RuntimeError"]),
    ]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py"),
                         ids=lambda p: p.stem)
def test_no_other_module_defines_an_exception_class(path):
    exceptions = [name for name, bases in classes(path)
                  if set(bases) & (FAMILY | BUILTIN_EXCEPTIONS)]
    assert exceptions == []
