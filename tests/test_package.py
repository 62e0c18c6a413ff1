"""The package's export list matches what it imports, and every export has a caller."""

import ast
from pathlib import Path
from types import ModuleType

import ifdma

ROOT = Path(__file__).resolve().parent.parent

# Exports that nothing in the package or the benchmark calls, each with the
# reason it stays public or the ROADMAP item that gives it a caller.
KEPT = {
    "place": "the one public way to grant a chosen block; the reachability "
             "reference in tests/test_statespace.py places its blocks through it",
    "strict_threshold": "the paper's strict nonblocking result, checked against "
                        "every reachable state at m=2 and m=3 and by the acceptance suite",
    "worst_case_scenario": "the paper's strict nonblocking result, with strict_threshold",
    "multistream_time": "ROADMAP item 7 gives it a caller",
    "specs_for_allocation": "ROADMAP item 7 gives it a caller",
}


def test_all_is_sorted_unique_and_lists_every_public_name():
    names = ifdma.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    public = {name for name, obj in vars(ifdma).items()
              if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert set(names) == public


def referenced_names() -> set[str]:
    """Every name and attribute read in the package's modules and in bench/."""
    files = [p for p in (ROOT / "src" / "ifdma").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "bench").glob("*.py")
    refs = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def test_every_export_has_a_caller_or_a_stated_reason():
    uncalled = set(ifdma.__all__) - referenced_names()
    assert sorted(uncalled - KEPT.keys()) == []
    # a kept name that gained a caller, or left the package, leaves KEPT too
    assert sorted(KEPT.keys() - uncalled) == []
