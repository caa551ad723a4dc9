"""The traced benchmark wraps package names from outside; every one must exist.

``bench/layers.py`` looks each wrapped name up with ``vars(owner)[attr]``,
so renaming or deleting one breaks only ``bench/run.py --trace 1``.  This
test makes that a test failure instead.
"""

import pathlib
import types

from beliefopt import cli, problems, regret
from beliefopt.problems import QuadraticProblem, SoftmaxL2Problem

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "layers.py"
OWNERS = (cli, problems, regret, QuadraticProblem, SoftmaxL2Problem)


def load_layers():
    """bench/layers.py as a module, without writing bytecode under bench/."""
    module = types.ModuleType("bench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


def test_installed_wraps_and_then_restores_every_layer():
    layers = load_layers()
    before = [dict(vars(owner)) for owner in OWNERS]
    with layers.installed(layers.Tracer()):
        wrapped = {(owner.__name__, name)
                   for owner, old in zip(OWNERS, before)
                   for name, value in vars(owner).items() if old.get(name) is not value}
    assert ("beliefopt.cli", "write_trace") in wrapped
    assert ("beliefopt.regret", "step") in wrapped
    assert ("QuadraticProblem", "round_loss_grad") in wrapped
    assert ("SoftmaxL2Problem", "prefix_objective") in wrapped
    for owner, old in zip(OWNERS, before):
        assert dict(vars(owner)) == old, owner.__name__
