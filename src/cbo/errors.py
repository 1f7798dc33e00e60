"""The two failures that are not defects of the program.  The CLI exits 1
on a ``ConfigError`` and 2 on anything else."""


class ConfigError(ValueError):
    """A value a config file can set is out of range.  The check of the
    value raises it, wherever that check runs; a check of a value the
    program computes raises a plain ``ValueError``."""


class DivergedError(RuntimeError):
    """Raised by ``run_report`` and ``decay_experiment`` (``cbo run`` and ``cbo
    decay``) when their trajectory turns non-finite; ``step`` records it."""

    def __init__(self, step_index: int):
        super().__init__(f"diverged ensemble at step {step_index}")
        self.step_index = step_index
