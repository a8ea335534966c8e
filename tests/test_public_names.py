"""Every name a module exports is read somewhere in the package, or is on the
allow-list below with the reason it is exported all the same."""

import ast
import importlib
from pathlib import Path

import emdhedge

SRC = Path(emdhedge.__file__).resolve().parent

# exported names that no code of the package reads, each with its reader
READ_OUTSIDE_THE_PACKAGE = {
    # wrapped by name in perfbench/tracer.py
    "sift": "perfbench tracer",
    "decompose": "perfbench tracer",
    "restrict": "perfbench tracer",
    "eecm_ratio": "perfbench tracer; reference estimator of the tests",
    "he_var": "perfbench tracer; 1-D VaR reference of the tests' reference_cv",
    "he_variance": "perfbench tracer; 1-D variance-reduction reference of the tests' reference_cv",
    # the references that the tests check the package's batched paths against
    "is_imf": "reference of the IMF definition in the tests",
    "mv_ratio": "reference estimator of the tests",
    "ecm_ratio": "reference estimator of the tests",
    "emd_ratio": "reference estimator of the tests",
}


def _read_names() -> set[str]:
    """Every name a ``Name`` or ``Attribute`` node of the package reads;
    imports are neither, so they do not count."""
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _exported() -> dict[str, str]:
    """Exported name -> its module, over every module with an ``__all__``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"emdhedge.{path.stem}")
        found |= {name: path.stem for name in getattr(module, "__all__", ())}
    return found


def test_every_exported_name_is_read_in_the_package_or_allow_listed():
    read = _read_names()
    unread = {name: module for name, module in _exported().items() if name not in read}
    assert sorted(set(unread) - set(READ_OUTSIDE_THE_PACKAGE)) == [], unread
    # an allow-listed name that the package reads, or that is no longer exported, is stale
    assert sorted(set(READ_OUTSIDE_THE_PACKAGE) - set(unread)) == []
