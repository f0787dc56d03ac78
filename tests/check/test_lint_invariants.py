"""The repo-invariant lints of ``tools/lint_invariants.py``.

Each test lints a small snippet written to a temporary package tree (the
rules key off path components such as ``repro/algebra``) and checks
which invariant codes fire.
"""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

import pytest

LINTER = Path(__file__).resolve().parents[2] / "tools" / "lint_invariants.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_invariants", LINTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run(tmp_path: Path, relative: str, source: str) -> list[str]:
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        findings = module._Findings()
        module.lint_file(path, findings)
        return [code for _, _, code, _ in findings.items]
    return run


SEMI_NAIVE_LOOP = """
    def closure(accumulator, step, delta):
        while delta:
            produced = step(delta)
            delta = accumulator.absorb(produced)
        return accumulator.relation()
"""


class TestFixpointLoopRule:
    def test_semi_naive_loop_outside_the_driver_is_flagged(self, lint,
                                                           tmp_path):
        codes = lint(tmp_path, "src/repro/service/maintenance.py",
                     SEMI_NAIVE_LOOP)
        assert codes == ["INV004"]

    def test_driver_calls_and_loops_without_absorb_are_clean(self, lint,
                                                             tmp_path):
        source = """
            from repro.algebra import fixpoint

            def resume(accumulator, step, frontier, columns):
                # A one-off absorb outside any loop seeds the frontier.
                frontier = frontier.union(accumulator.absorb(frontier))
                fixpoint.iterate("X", frontier, step, accumulator.absorb,
                                 accumulator.__len__, columns=columns,
                                 max_iterations=10, nonconvergence="no")
                pending = [1, 2]
                while pending:
                    pending.pop()
                return accumulator.relation()
        """
        assert lint(tmp_path, "src/repro/service/maintenance.py",
                    source) == []

    def test_the_driver_module_itself_may_loop(self, lint, tmp_path):
        assert lint(tmp_path, "src/repro/algebra/fixpoint.py",
                    SEMI_NAIVE_LOOP) == []
