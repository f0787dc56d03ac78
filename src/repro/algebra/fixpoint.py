"""The semi-naive fixpoint driver: the one loop under every mu-RA fixpoint.

Every layer that evaluates ``mu(X = R U phi)`` runs Algorithm 1 of the
paper::

    X = R
    new = R
    while new != empty:
        new = phi(new) \\ X
        X = X U new

The centralized evaluator, the per-worker local engine, the ``Pplw^s``
task, the ``Pgld`` driver and view maintenance differ only in *how* they
compute ``phi(new)`` (the step) and fold its output into ``X`` (the
absorb).  :func:`iterate` owns everything else: the iteration bound, the
first-iteration schema check and the ``fixpoint.iteration`` span with its
``var`` / ``iteration`` / ``delta`` / ``produced`` / ``total`` /
``engine`` attributes.  :func:`run_fixpoint` adds the engine choice on top
— the columnar kernels when they can run the variable part, the caller's
row step otherwise.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..data.columnar import (ColumnarDeltaAccumulator, ValueDictionary,
                             columnar_enabled)
from ..data.relation import Relation
from ..data.storage import DeltaAccumulator
from ..errors import EvaluationError
from ..obs import tracing
from .kernels import BoundKernel, KernelProgramCache, bind_program
from .terms import Term

__all__ = ["MAX_ITERATIONS", "FixpointRun", "bind_kernels", "iterate",
           "run_fixpoint"]

#: Safety bound on the iterations of any one fixpoint loop.  Graph
#: reachability converges in at most |nodes| steps, so hitting it means a
#: malformed term.  Read when a loop starts (and shipped with process-pool
#: tasks), so tests can lower it for a whole execution.
MAX_ITERATIONS = 1_000_000


def iterate(var: str, delta, step: Callable, absorb: Callable,
            total: Callable[[], int], *, columns: tuple[str, ...],
            max_iterations: int, nonconvergence: str,
            error: type[Exception] = EvaluationError, engine: str = "row",
            size: Callable = len) -> int:
    """Run ``delta = absorb(step(delta))`` until the delta is empty.

    ``step`` applies the variable part to a delta; ``absorb`` folds its
    output into the accumulated result and returns the genuinely new
    rows; ``total`` reports the accumulated size for the span.  Raises
    ``error(nonconvergence)`` past ``max_iterations`` and ``error`` when
    the first iteration produces a schema other than ``columns`` (output
    schemas depend on input schemas only, so one check covers the loop).
    Returns the number of iterations run.
    """
    iterations = 0
    schema_checked = False
    # Hoisted once: when tracing is off the loop pays one local bool
    # check per iteration (bench_obs_overhead.py holds this to <= 5%).
    traced = tracing.tracing_enabled()
    while size(delta):
        iterations += 1
        if iterations > max_iterations:
            raise error(nonconvergence)
        iteration_span = tracing.span(
            "fixpoint.iteration", var=var, iteration=iterations,
            delta=size(delta), engine=engine) if traced else tracing.NOOP_SPAN
        with iteration_span:
            produced = step(delta)
            if not schema_checked:
                if produced.columns != columns:
                    raise error(
                        f"fixpoint on {var!r}: the variable part produced "
                        f"schema {produced.columns} but the seed has schema "
                        f"{columns}")
                schema_checked = True
            delta = absorb(produced)
            if traced:
                iteration_span.set_attribute("produced", size(produced))
                iteration_span.set_attribute("total", total())
    return iterations


def bind_kernels(cache: KernelProgramCache | None, var: str,
                 variable_part: Term, columns: tuple[str, ...],
                 dictionary: ValueDictionary,
                 resolve: Callable[[Term], Relation]) -> BoundKernel | None:
    """The kernels-first choice: a bound kernel program, or None.

    None means the row engine runs this fixpoint — the kernels are pinned
    off (:func:`~repro.data.columnar.row_mode`) or the planner does not
    cover the variable part's shape.
    """
    if not columnar_enabled():
        return None
    return bind_program(cache, var, variable_part, columns, dictionary,
                        resolve)


@dataclass
class FixpointRun:
    """What one :func:`run_fixpoint` call reports back to its caller."""

    relation: Relation
    iterations: int
    #: Constant-side index activity of the columnar kernels (the row
    #: engine counts its own, in the caller's stats, as its step runs).
    index_builds: int = 0
    index_reuses: int = 0
    probes: int = 0


def run_fixpoint(var: str, variable_part: Term, seed: Relation,
                 row_step: Callable[[Relation], Relation], *,
                 kernel_cache: KernelProgramCache | None,
                 dictionary: ValueDictionary,
                 resolve: Callable[[Term], Relation],
                 max_iterations: int, nonconvergence: str) -> FixpointRun:
    """Evaluate ``mu(var = seed U variable_part)`` semi-naively.

    The columnar kernels run the loop when :func:`bind_kernels` binds a
    program; otherwise ``row_step`` (the caller's row evaluation of the
    variable part against a delta) does.  ``resolve`` evaluates the
    recursion-constant operands the kernels bind.
    """
    bound = bind_kernels(kernel_cache, var, variable_part, seed.columns,
                         dictionary, resolve)
    if bound is None:
        accumulator = DeltaAccumulator(seed)
        iterations = iterate(
            var, seed, row_step, accumulator.absorb, accumulator.__len__,
            columns=seed.columns, max_iterations=max_iterations,
            nonconvergence=nonconvergence)
        return FixpointRun(accumulator.relation(), iterations)
    delta = seed.columnar(dictionary).batch()
    columnar = ColumnarDeltaAccumulator(delta)
    iterations = iterate(
        var, delta, bound.step, columnar.absorb, columnar.__len__,
        columns=seed.columns, max_iterations=max_iterations,
        nonconvergence=nonconvergence, engine="columnar")
    # The row engine accesses each constant-side index once per iteration
    # (build on the first touch, reuse after); mirror that accounting so
    # index-reuse metrics stay comparable across engines.
    reuses = bound.index_reuses + bound.indexed_ops * max(iterations - 1, 0)
    return FixpointRun(columnar.relation(dictionary), iterations,
                       index_builds=bound.index_builds, index_reuses=reuses,
                       probes=bound.probe_counter[0])
