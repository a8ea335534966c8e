"""Every name a module exports is read somewhere in the package, or is on the
allow-list below with the reason it is exported all the same."""

import ast
import importlib
from pathlib import Path

import emdhedge

SRC = Path(emdhedge.__file__).resolve().parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# exported names that no code of the package reads, each with its reader
READ_OUTSIDE_THE_PACKAGE = {
    # wrapped by name in perfbench/tracer.py
    "sift": "perfbench tracer",
    "decompose": "perfbench tracer",
    "restrict": "perfbench tracer",
    "eecm_ratio": "perfbench tracer",
    "he_var": "perfbench tracer; 1-D VaR reference of the tests' reference_cv",
    "he_variance": "perfbench tracer; 1-D variance-reduction reference of the tests' reference_cv",
    # the references that the tests check the package's batched paths against
    "is_imf": "reference of the IMF definition in the tests",
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


def _tracer_table(table: str) -> set[tuple[str, str]]:
    """The (module, name) of each function perfbench/tracer.py wraps, from its
    table ``table`` (``TRACED`` or ``TRACED_RESULTS``), read with ``ast``
    rather than imported."""
    for node in ast.parse(TRACER.read_text(), str(TRACER)).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [table]:
            return set(ast.literal_eval(node.value).values())
    raise AssertionError(f"{TRACER} has no {table} table")


def test_every_function_the_tracer_wraps_exists():
    # ``Tracer.install`` looks each up with ``getattr``, so without one the benchmark stops before it runs
    wrapped = _tracer_table("TRACED") | _tracer_table("TRACED_RESULTS")
    assert sorted(f"{m}.{name}" for m, name in wrapped if not hasattr(importlib.import_module(m), name)) == []


def test_every_name_kept_for_the_tracer_is_one_it_wraps():
    # a name kept only for the tracer loses its reason when the tracer stops wrapping it
    exported = _exported()
    kept = {name for name, reason in READ_OUTSIDE_THE_PACKAGE.items() if reason.startswith("perfbench tracer")}
    assert kept
    assert sorted(name for name in kept if (f"emdhedge.{exported[name]}", name) not in _tracer_table("TRACED")) == []
