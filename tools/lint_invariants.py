#!/usr/bin/env python3
"""Repo-invariant lints the generic linters cannot express.

The first three invariants keep the concurrency and immutability story
of the codebase honest; each maps to the runtime sanitizer check that
would catch its violation only when the bad path actually runs.  The
fourth keeps the fixpoint loop in one place:

INV001  ``Relation`` internals (``_columns`` / ``_rows``) are assigned
        only inside ``src/repro/data/`` (the owning package) and
        ``src/repro/check/`` (the sanitizer's guard).  Everywhere else a
        relation is an immutable value; mutating it would tear snapshot
        isolation (the runtime counterpart is the sanitizer's
        post-freeze mutation guard).
INV002  No bare ``threading.Lock()`` / ``threading.RLock()`` outside
        ``src/repro/check/sanitizer.py``.  Locks must be created with
        ``ordered_lock(name)`` / ``ordered_rlock(name)`` so the
        sanitizer's lock-order tracker sees every acquisition site.
INV003  No lambdas (or other inline function expressions) handed to the
        executor submission points (``map_tasks`` / ``submit``) inside
        ``src/repro/distributed/``.  Task functions must be module-level
        so the process backend can pickle them instead of silently
        degrading to in-process execution.
INV004  No ``while`` loop whose body calls ``.absorb(`` outside
        ``src/repro/algebra/fixpoint.py``.  Every semi-naive loop runs
        through the fixpoint driver, which owns the iteration bound, the
        schema check and the iteration spans; a loop folding deltas into
        an accumulator anywhere else is a second driver growing back.

Usage::

    python tools/lint_invariants.py src/ [more paths...]

Exits 0 when clean, 1 with one ``path:line: [INVxxx] message`` per
finding otherwise.  Stdlib only; runs as a CI step next to ruff.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Attributes of Relation that only its owning package may assign.
RELATION_INTERNALS = frozenset({"_columns", "_rows"})
#: Executor entry points whose task argument must be picklable.
TASK_ENTRY_POINTS = frozenset({"map_tasks", "submit"})
#: Accumulator method whose use inside a ``while`` loop marks a
#: semi-naive loop.
ABSORB = "absorb"


def _is_relation_dir(path: Path) -> bool:
    parts = path.parts
    return "data" in parts and "repro" in parts


def _is_sanitizer(path: Path) -> bool:
    return path.name == "sanitizer.py" and "check" in path.parts


def _is_check_dir(path: Path) -> bool:
    return "check" in path.parts and "repro" in path.parts


def _is_distributed_dir(path: Path) -> bool:
    return "distributed" in path.parts and "repro" in path.parts


def _is_fixpoint_driver(path: Path) -> bool:
    return path.name == "fixpoint.py" and "algebra" in path.parts


class _Findings:
    def __init__(self) -> None:
        self.items: list[tuple[Path, int, str, str]] = []

    def add(self, path: Path, line: int, code: str, message: str) -> None:
        self.items.append((path, line, code, message))


def _check_relation_internals(tree: ast.AST, path: Path,
                              findings: _Findings) -> None:
    """INV001: assignments to Relation internals outside data/ and check/."""
    if _is_relation_dir(path) or _is_check_dir(path):
        return

    def flag(target: ast.expr) -> None:
        if isinstance(target, ast.Attribute) \
                and target.attr in RELATION_INTERNALS:
            findings.add(path, target.lineno, "INV001",
                         f"assignment to relation internal "
                         f"{target.attr!r} outside src/repro/data/ "
                         f"(relations are immutable values elsewhere)")

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign)
                       else node.targets)
            for target in targets:
                flag(target)
        elif isinstance(node, ast.Call):
            # object.__setattr__(relation, "_rows", ...) is the same
            # mutation wearing a trench coat.
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr == "__setattr__" and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant) \
                    and node.args[1].value in RELATION_INTERNALS:
                findings.add(path, node.lineno, "INV001",
                             f"__setattr__ of relation internal "
                             f"{node.args[1].value!r} outside "
                             f"src/repro/data/")


def _check_bare_locks(tree: ast.AST, path: Path,
                      findings: _Findings) -> None:
    """INV002: only the sanitizer module constructs raw threading locks."""
    if _is_sanitizer(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "threading" \
                and func.attr in ("Lock", "RLock"):
            name = f"threading.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in ("Lock", "RLock"):
            name = func.id
        if name is not None:
            findings.add(path, node.lineno, "INV002",
                         f"bare {name}() — use ordered_lock(name) / "
                         f"ordered_rlock(name) from repro.check.sanitizer "
                         f"so the lock-order tracker covers it")


def _check_task_functions(tree: ast.AST, path: Path,
                          findings: _Findings) -> None:
    """INV003: executor task payloads must not be inline lambdas."""
    if not _is_distributed_dir(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in TASK_ENTRY_POINTS):
            continue
        for arg in node.args[:1]:
            if isinstance(arg, ast.Lambda):
                findings.add(path, arg.lineno, "INV003",
                             f"lambda passed to {func.attr}(): task "
                             f"functions must be module-level so the "
                             f"process backend can pickle them")


def _check_fixpoint_loops(tree: ast.AST, path: Path,
                          findings: _Findings) -> None:
    """INV004: semi-naive loops live in the fixpoint driver only."""
    if _is_fixpoint_driver(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.While):
            continue
        for inner in (n for stmt in node.body for n in ast.walk(stmt)):
            if isinstance(inner, ast.Call) \
                    and isinstance(inner.func, ast.Attribute) \
                    and inner.func.attr == ABSORB:
                findings.add(path, node.lineno, "INV004",
                             "while loop calling .absorb() outside "
                             "repro/algebra/fixpoint.py — run the loop "
                             "through the fixpoint driver (iterate / "
                             "run_fixpoint)")
                break


def lint_file(path: Path, findings: _Findings) -> None:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as error:
        findings.add(path, error.lineno or 0, "INV000",
                     f"syntax error: {error.msg}")
        return
    _check_relation_internals(tree, path, findings)
    _check_bare_locks(tree, path, findings)
    _check_task_functions(tree, path, findings)
    _check_fixpoint_loops(tree, path, findings)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src")]
    findings = _Findings()
    count = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            count += 1
            lint_file(file, findings)
    for path, line, code, message in findings.items:
        print(f"{path}:{line}: [{code}] {message}")
    if findings.items:
        print(f"{len(findings.items)} invariant violation(s) "
              f"in {count} file(s)", file=sys.stderr)
        return 1
    print(f"ok: {count} file(s), 0 invariant violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
