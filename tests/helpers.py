"""Test-only objectives and stream inspection."""

import numpy as np

from cbo.objectives import Objective


class FunctionObjective(Objective):
    """Wrap plain callables mapping points (..., d) to values (...)."""

    def __init__(self, fn, dimension, grad_fn=None):
        self.fn = fn
        self.dimension = dimension
        self.grad_fn = grad_fn

    def values(self, points, batch=None):
        return np.asarray(self.fn(points), dtype=float)

    def gradients(self, points, batch=None):
        if self.grad_fn is None:
            raise NotImplementedError("no gradient supplied")
        return np.asarray(self.grad_fn(points), dtype=float)


def generator_states(rng):
    """Every generator's state of the ``RngStream`` ``rng``, per channel."""
    return {c: [g.bit_generator.state for g in gens] for c, gens in rng._generators.items()}
