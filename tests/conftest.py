import numpy as np
import pytest

from sparsetls import derive_stream, generate_instance, scenario_config


@pytest.fixture
def s1_instance():
    """One fixed scenario-1 instance (xi = 0.01, master seed 0, trial 0)."""
    return generate_instance(scenario_config("s1"), derive_stream(0, 1, 0))


@pytest.fixture
def make_instance():
    def _make(name="s1", xi=0.01, seed=0, trial=0):
        from sparsetls.problems import SCENARIO_TAGS

        return generate_instance(
            scenario_config(name, xi=xi), derive_stream(seed, SCENARIO_TAGS[name], trial)
        )

    return _make


@pytest.fixture
def tiny_system():
    """2x2 identity system with b = [1, 0], used by several hand-checked cases."""
    return np.eye(2), np.array([1.0, 0.0])


@pytest.fixture(params=["a nan", "a inf", "b nan", "b -inf", "lam 0", "lam -1", "lam nan",
                        "lam inf", "b short"])
def bad_system(request, s1_instance):
    """The s1 system (a, b, lam = 0.02) with one fault a solver's init
    must reject: a NaN or an infinity in a or b, a lam that is not
    positive and finite, or a b one entry short."""
    a, b, lam = s1_instance.a.copy(), s1_instance.b.copy(), 0.02
    name, value = request.param.split()
    if value == "short":
        b = b[:-1]
    elif name == "lam":
        lam = float(value)
    elif name == "a":
        a[3, 5] = float(value)
    else:
        b[7] = float(value)
    return a, b, lam
