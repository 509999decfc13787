"""The program API the benchmark in perfbench/ reads, checked from here.

perfbench/ imports the package from the checkout's src/ and reads it by
name: it installs timing shims at the (module, attribute) pairs of
perfbench/tracing.py's TARGETS, re-solves cells through
sparsetls.solve_instance, reads each result's trace, counts line-search
trials from pg_step's state, draws instances through derive_stream, and
reads the solve arguments (a, b, lam, iterations) positionally.  A change
to any of these would break the traced run without failing a test of the
package, so this file pins them.  It only reads perfbench/.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import sparsetls
from sparsetls import problems
from sparsetls.prox_solver import pg_init, pg_step

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def targets():
    """The keys of TARGETS, a literal dict, read from the file's text."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return sorted(ast.literal_eval(node.value))
    raise AssertionError(f"no TARGETS in {TRACING}")


@pytest.mark.parametrize("module, attr", targets())
def test_every_traced_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
    if "." in attr:
        # a method is patched on its class, so the class must define it
        cls, meth = attr.split(".")
        assert meth in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("solve", ["pg_solve", "adcd_solve"])
def test_solves_take_the_system_first(solve):
    # perfbench's SolveLog reads a, b, lam, iterations from args[:4]
    params = list(inspect.signature(getattr(sparsetls, solve)).parameters)
    assert params[:4] == ["a", "b", "lam", "iterations"]


@pytest.mark.parametrize("algo", ["pg", "adcd"])
def test_solve_instance_without_truth_has_a_readable_trace(s1_instance, algo):
    iterations = 12
    res = sparsetls.solve_instance(algo, s1_instance, 0.1, iterations, with_truth=False)
    assert len(res.trace) == iterations
    assert isinstance(res.trace[-1].cost, float)
    assert isinstance(res.trace[-1].flops, int) and res.trace[-1].flops > 0
    assert [rec.cost for rec in res.trace] == res.cost
    assert np.isfinite(res.x).all()


def test_pg_step_leaves_backtracks_last_on_the_state(s1_instance):
    state = pg_init(s1_instance.a, s1_instance.b, 0.1)
    for _ in range(5):
        returned = pg_step(state)
        assert isinstance(returned.backtracks_last, int) and returned.backtracks_last >= 0


def test_instance_drawing_names():
    assert callable(sparsetls.derive_stream) and callable(sparsetls.cli_main)
    for name in ("s1", "s2"):
        tag = problems.SCENARIO_TAGS[name]
        inst = problems.generate_instance(problems.scenario_config(name, xi=0.01),
                                          sparsetls.derive_stream(3, tag, 0))
        for field in ("a", "b", "x_true", "a_true", "a_pert", "b_true", "b_pert"):
            assert isinstance(getattr(inst, field), np.ndarray), field
