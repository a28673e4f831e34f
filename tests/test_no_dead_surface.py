"""Every function, method and class under ``src/repro`` has a caller.

A definition counts as used when its name is spelled, as a name, an
attribute, an imported name or a string, somewhere in ``src/``,
``benchmarks/``, ``examples/`` or the CI workflow outside the lines of
its own definition.  A package's re-export (an ``__init__``'s imports
and ``__all__``) is no caller: it only names the definition for others.
Matching is by name, not by resolved binding, so the gate can miss a
dead method that shares its name with a live one; it never flags a live
one.  Tests do not count: code only a test reaches is test code, or it
is listed in :data:`ALLOWED` with the reason it stays in ``src/``.
Standard library only (``ast``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = ("src", "benchmarks", "examples")
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: ``module:qualified name`` -> why it stays although nothing in the
#: caller trees names it.
ALLOWED = {
    "repro.service.store:ArtifactStore.lru_keys": (
        "the only view of the warm layer's order that takes the store's "
        "lock; the eviction tests read it"),
    "repro.harness.sections:annotate_sections": (
        "the paper's Fig. 1 R/P/S view of a compiled loop, a library "
        "utility for porting new C; test_harness_sections checks it"),
    "repro.harness.sections:format_sections": (
        "the text rendering of annotate_sections"),
    "repro.harness.sections:section_summary": (
        "the per-class counts of annotate_sections"),
    "repro.ir.verifier:verify_module": (
        "the whole-module verifier (verify_function over a module); the "
        "frontend and interpreter tests check the modules they build"),
    "repro.pipeline.driver:cgpa_compile_all": (
        "the multi-loop compile (one pipeline per top-level loop); no "
        "bundled kernel has two hot loops, test_pipeline_multiloop drives it"),
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of every module-level function and class
    and every method (functions nested in functions are the body of
    their definition)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    yield f"{node.name}.{item.name}", item


def _reexport(node: ast.stmt) -> bool:
    """A package's import or ``__all__``: it names a definition for
    callers elsewhere, and is not one itself."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _spellings(tree: ast.Module, package: bool = False):
    """(name, line) of every identifier the module spells, less a
    ``package``'s (an ``__init__``'s) re-exports."""
    tops = [n for n in tree.body if not (package and _reexport(n))]
    for node in (n for top in tops for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                yield word, node.lineno


def _implicit(name: str) -> bool:
    """Names the language or a framework calls without spelling them."""
    return name.startswith("__") and name.endswith("__")


def unreferenced() -> list[str]:
    uses: dict[str, list[tuple[Path, int]]] = {}
    trees = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            trees[path] = tree
            for name, line in _spellings(tree, path.name == "__init__.py"):
                uses.setdefault(name, []).append((path, line))
    ci_words = set(re.findall(r"[A-Za-z_]\w*", CI.read_text()))

    dead = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for qualname, node in _definitions(tree):
            name = node.name
            if _implicit(name) or name in ci_words:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if any(p != path or line not in own for p, line in uses.get(name, ())):
                continue
            dead.append(f"{module}:{qualname}")
    return sorted(dead)


def test_every_definition_has_a_caller():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert not dead, (
        "defined under src/repro but never named outside its own "
        "definition in src/, benchmarks/, examples/ or CI: delete it, move "
        f"it into the tests, or list it in ALLOWED with a reason: {dead}"
    )


def test_every_allowance_is_still_needed():
    stale = sorted(set(ALLOWED) - set(unreferenced()))
    assert not stale, f"ALLOWED entries that now have a caller: {stale}"
