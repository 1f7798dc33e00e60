"""Per-trial random streams.

Trial t of seed s owns one generator per channel,
``Generator(PCG64(SeedSequence(entropy=s, spawn_key=(t, channel))))``, built
on first use and then consumed in order: draws are sequential per
(seed, trial, channel).  The dynamics take one draw per step from each
channel they use, so a trial's draws do not depend on the other trials that
share its batch, and two seeds share no trial stream.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# channel ids for the three Brownian increments and auxiliary draws
CHANNEL_CONSENSUS = 1
CHANNEL_MEMORY = 2
CHANNEL_GRADIENT = 3
CHANNEL_INIT = 4
CHANNEL_BATCH = 5
CHANNEL_SUBSET = 6
CHANNEL_INSTANCE = 7


class RngStream:
    """The streams of one trial (``trial`` an int) or of a batch of trials
    (``trial`` a sequence of ints).  Draws of a batch carry a leading trial
    axis whose row i comes from the generators of trial ``trial[i]``."""

    def __init__(self, seed: int, trial: int | Sequence[int] = 0):
        self.seed = int(seed)
        if np.ndim(trial) == 0:
            self.trial = int(trial)
            self.trials = (self.trial,)
            self.batch_shape: tuple[int, ...] = ()
        else:
            self.trial = None
            self.trials = tuple(int(t) for t in trial)
            self.batch_shape = (len(self.trials),)
        self._generators: dict[int, list[np.random.Generator]] = {}

    def for_trial(self, trial: int | Sequence[int]) -> "RngStream":
        return RngStream(self.seed, trial)

    def _per_trial(self, channel: int) -> list[np.random.Generator]:
        gens = self._generators.get(channel)
        if gens is None:
            gens = [
                np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(t, int(channel))
                )))
                for t in self.trials
            ]
            self._generators[channel] = gens
        return gens

    def generator(self, channel: int) -> np.random.Generator:
        """The generator of ``channel`` of a single-trial stream."""
        if self.batch_shape:
            raise ValueError("a batch of trials has one generator per trial")
        return self._per_trial(channel)[0]

    def draw(self, channel: int, fn: Callable[[np.random.Generator], object]) -> np.ndarray:
        """``fn(generator)`` for each trial, stacked on the trial axis."""
        gens = self._per_trial(channel)
        if not self.batch_shape:
            return np.asarray(fn(gens[0]))
        return np.stack([fn(gen) for gen in gens])

    def gaussians(self, channel: int, n: int, d: int) -> np.ndarray:
        """Standard-normal (n, d) matrix per trial, one row per particle."""
        out = np.empty(self.batch_shape + (n, d))
        for gen, rows in zip(self._per_trial(channel), out.reshape(-1, n, d)):
            gen.standard_normal(out=rows)
        return out
