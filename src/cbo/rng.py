"""Per-trial random streams.

Trial t of seed s owns one generator per channel,
``Generator(PCG64(SeedSequence(entropy=s, spawn_key=(t, channel))))``, built
on first use and then consumed in order: draws are sequential per
(seed, trial, channel).  The dynamics take one draw per step from each
channel they use, so a trial's draws do not depend on the other trials that
share its batch, and two seeds share no trial stream.

A run with enough noise to draw has those draws made ahead by a forked
child process on the second CPU (see :meth:`RngStream.producing`); the
numbers, and each generator's state after the run, are those of drawing
them in order here.  A run without noise may instead step part of its
trials in a forked child, on the sub-stream :meth:`RngStream.part` of
those trials (see :func:`cbo.dynamics.run`).  :func:`second_cpu_pays` is
the one rule for both, and ``_Child`` the one mechanism: it forks, exits,
kills and reaps the child, and hands its generators' states back through
:meth:`RngStream.pack_states`.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from typing import Callable, Iterator, Sequence

import numpy as np

# channel ids for the three Brownian increments and auxiliary draws
CHANNEL_CONSENSUS = 1
CHANNEL_MEMORY = 2
CHANNEL_GRADIENT = 3
CHANNEL_INIT = 4
CHANNEL_BATCH = 5
CHANNEL_SUBSET = 6
CHANNEL_INSTANCE = 7

# A run forks a second process only when it has at least this much work for
# it: normals to draw (the noise producer) or particle coordinates times
# steps to step (a split run).  Forking, exiting and reaping the child cost
# 3.8 ms (median) in a 44 MB numpy process on a 2-vCPU Xeon VM, the time of
# drawing about 2**18 normals there, so a run of 2**21 pays it back several
# times; stepping a coordinate costs more than drawing a normal.
FORK_MIN_WORK = 2**21
# Bytes of (..., n, d) slots the child may draw ahead, and at least two slots.
RING_BYTES = 256 << 10
# How long the child sleeps while the ring is full.  It sleeps rather than
# blocks: a blocking hand-over per step woke the child on the parent's CPU.
_FULL_SLEEP_S = 50e-6
# Per generator, the four integers of a PCG64 state, 16 bytes each.
STATE_BYTES = 64


def _fill(gens: Sequence[np.random.Generator], out: np.ndarray) -> None:
    """Standard normals into ``out`` (..., n, d), block i from ``gens[i]``."""
    for gen, rows in zip(gens, out.reshape(-1, *out.shape[-2:])):
        gen.standard_normal(out=rows)


def second_cpu_pays(work: int) -> bool:
    """Whether a run with ``work`` units of work for a second process forks
    one: on Linux, with two or more CPUs in the affinity mask and at least
    ``FORK_MIN_WORK`` units."""
    return (
        work >= max(FORK_MIN_WORK, 1)
        and sys.platform.startswith("linux")
        and len(os.sched_getaffinity(0)) >= 2
    )


class _Child:
    """A forked child process that runs ``body(shared, orphaned)`` once and
    hands back what it computed through shared memory: the arrays named in
    ``fields`` and the final states of ``rng``'s generators of ``channels``.

    ``fields`` lists ``(name, dtype[, shape])`` as for a structured
    ``np.dtype``; they are laid out, aligned, in one anonymous shared map made
    before the fork, and ``shared[name]`` is the array both processes see.
    The child leaves only through ``os._exit``, with status 0 when ``body``
    returned and 1 when it raised (an ``Exception`` also writes its traceback
    to stderr): returning or raising into the caller would run the parent's
    code, ``finally`` blocks and ``atexit`` handlers a second time.  ``body``
    calls ``orphaned()`` wherever it may wait; it ends the child once the
    parent is gone, so that a parent killed before it could reap leaves
    nothing running.  The parent reads ``shared`` after :meth:`reap`, and
    :meth:`hand_back` sets its generators to the child's.  Raises OSError when
    the map or the fork cannot be made, after closing the map."""

    def __init__(self, fields: list[tuple], body: Callable[[np.ndarray, Callable[[], None]], None],
                 rng: RngStream, channels: Sequence[int]):
        import mmap  # loaded on first use: importing cbo loads nothing for a child

        self.rng, self.channels = rng, tuple(channels)
        n_states = len(self.channels) * len(rng.trials) * STATE_BYTES
        layout = np.dtype(fields + [("states", np.uint8, (n_states,))], align=True)
        self.status: int | None = None  # the wait status once reaped
        self._map = mmap.mmap(-1, layout.itemsize)
        self.shared = np.frombuffer(self._map, layout, 1).reshape(())
        parent = os.getpid()

        def orphaned() -> None:
            if os.getppid() != parent:
                raise SystemExit(1)

        try:
            self.pid = os.fork()
        except OSError:
            self.close()
            raise
        if self.pid == 0:
            status = 1
            try:
                body(self.shared, orphaned)
                self.shared["states"] = np.frombuffer(rng.pack_states(self.channels), np.uint8)
                status = 0
            except Exception:  # the parent sees only the status: the cause goes to stderr
                import traceback

                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)

    def poll(self, block: bool = False) -> int | None:
        """The child's wait status once it has exited, else None; with
        ``block``, waits for the exit."""
        if self.status is None:
            pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
            self.status = status if pid else None
        return self.status

    def reap(self, kill: bool) -> int:
        """Wait for the child to exit, after a SIGKILL if ``kill`` (the parent
        no longer needs its work), and return its wait status."""
        if kill and self.status is None:
            import signal  # loaded on first use, as mmap

            os.kill(self.pid, signal.SIGKILL)
        return self.poll(block=True)

    def hand_back(self) -> None:
        """Set the parent's generators to the final states the child left."""
        self.rng.unpack_states(self.channels, self.shared["states"].tobytes())

    def close(self) -> None:
        """Unmap the shared memory; no array of ``shared`` may be held."""
        del self.shared
        self._map.close()


class _Producer:
    """Draws ``n_steps`` slots of (..., n, d) normals per channel of
    ``channels`` ahead, in a :class:`_Child` with copies of ``rng``'s
    generators, into a ring of slots in its shared memory.

    Two non-blocking semaphore eventfds hand slots over: ``free`` counts the
    slots the child may fill and ``filled`` those the parent may read.  The
    parent yields its CPU while the ring is empty, and the child sleeps
    while it is full."""

    def __init__(self, rng: RngStream, channels: Sequence[int], block: tuple[int, ...],
                 n_steps: int):
        self.channels = tuple(channels)
        self.gens = {c: rng._per_trial(c) for c in self.channels}
        self.n_steps = n_steps
        slot_shape = (len(self.channels),) + block
        n_slots = min(n_steps, max(2, RING_BYTES // (8 * math.prod(slot_shape))))
        self.taken = [0] * len(self.channels)  # slots the parent read, per channel
        self.ready = 0  # slots the parent knows are filled
        self.released = 0  # slots the parent handed back
        with contextlib.ExitStack() as undo:  # a failure releases what was acquired
            self.free = os.eventfd(n_slots, os.EFD_SEMAPHORE | os.EFD_NONBLOCK)
            undo.callback(os.close, self.free)
            self.filled = os.eventfd(0, os.EFD_SEMAPHORE | os.EFD_NONBLOCK)
            undo.callback(os.close, self.filled)
            self.child = _Child([("slots", np.float64, (n_slots,) + slot_shape)],
                                self._fill_slots, rng, self.channels)
            undo.pop_all()
        self.slots = self.child.shared["slots"]

    def _fill_slots(self, shared: np.ndarray, orphaned: Callable[[], None]) -> None:
        """The child's work: fill the quota, each slot once the parent freed it."""
        slots = shared["slots"]
        for k in range(self.n_steps):
            while True:
                try:
                    os.eventfd_read(self.free)
                    break
                except BlockingIOError:
                    orphaned()
                    time.sleep(_FULL_SLEEP_S)
            for c, channel in enumerate(self.channels):
                _fill(self.gens[channel], slots[k % len(slots), c])
            os.eventfd_write(self.filled, 1)

    def take(self, channel: int, out: np.ndarray) -> None:
        """Copy the next slot of ``channel`` into ``out``."""
        c = self.channels.index(channel)
        k = self.taken[c]
        if out.shape != self.slots.shape[2:]:
            raise ValueError(f"channel {channel} is drawn in blocks of {self.slots.shape[2:]}")
        if k >= self.n_steps:
            raise RuntimeError(f"channel {channel} drawn more often than the run has steps")
        while k >= self.ready:
            try:
                os.eventfd_read(self.filled)
                self.ready += 1
            except BlockingIOError:
                status = self.child.poll()
                if status is not None:
                    code = os.waitstatus_to_exitcode(status)
                    raise RuntimeError(f"noise producer exited early with status {code}")
                os.sched_yield()
        np.copyto(out, self.slots[k % len(self.slots), c])
        self.taken[c] = k + 1
        if min(self.taken) > self.released:
            os.eventfd_write(self.free, 1)
            self.released += 1

    def finish(self) -> None:
        """Reap the child and leave every generator where drawing the slots
        the parent read would have left it: at the child's final states when
        the parent read the whole quota, else fast-forwarded here."""
        complete = min(self.taken) == self.n_steps
        if self.child.reap(kill=not complete) == 0 and complete:
            self.child.hand_back()
            return
        scratch = np.empty(self.slots.shape[2:])
        for channel, taken in zip(self.channels, self.taken):
            for _ in range(taken):
                _fill(self.gens[channel], scratch)

    def close(self) -> None:
        os.close(self.free)
        os.close(self.filled)
        del self.slots
        self.child.close()


class RngStream:
    """The streams of one trial (``trial`` an int) or of a batch of trials
    (``trial`` a sequence of ints).  Draws of a batch carry a leading trial
    axis whose row i comes from the generators of trial ``trial[i]``."""

    def __init__(self, seed: int, trial: int | Sequence[int] = 0):
        self.seed = int(seed)
        if np.ndim(trial) == 0:
            self.trials = (int(trial),)
            self.batch_shape: tuple[int, ...] = ()
        else:
            self.trials = tuple(int(t) for t in trial)
            self.batch_shape = (len(self.trials),)
        self._generators: dict[int, list[np.random.Generator]] = {}
        self._producer: _Producer | None = None

    def _per_trial(self, channel: int) -> list[np.random.Generator]:
        if self._producer is not None and channel in self._producer.channels:
            raise RuntimeError(f"channel {channel} is being drawn by a producer process")
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

    def part(self, trials: slice) -> "RngStream":
        """The streams of the trials ``self.trials[trials]`` of a batch,
        sharing the generators built so far; :meth:`join` takes back those
        the parts build."""
        out = RngStream(self.seed, self.trials[trials])
        out._generators = {c: gens[trials] for c, gens in self._generators.items()}
        return out

    def join(self, parts: Sequence["RngStream"]) -> None:
        """Take over the generators of ``parts``, which hold this batch's
        trials in order and have built the same channels."""
        self._generators = {
            c: [gen for part in parts for gen in part._generators[c]]
            for c in parts[0]._generators
        }

    def pack_states(self, channels: Sequence[int]) -> bytes:
        """The states of every trial's generator of each of ``channels``,
        ``STATE_BYTES`` each, for :meth:`unpack_states` in another process."""
        states = [gen.bit_generator.state for c in channels for gen in self._per_trial(c)]
        return b"".join(v.to_bytes(16, "little") for s in states for v in (
            s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]))

    def unpack_states(self, channels: Sequence[int], data: bytes) -> None:
        """Set the generators of ``channels`` to the states ``pack_states``
        wrote, building those not built yet."""
        at = 0
        for c in channels:
            for gen in self._per_trial(c):
                state, inc, has_uint32, uinteger = (int.from_bytes(data[i:i + 16], "little")
                                                    for i in range(at, at + STATE_BYTES, 16))
                gen.bit_generator.state = {"bit_generator": "PCG64",
                                           "state": {"state": state, "inc": inc},
                                           "has_uint32": has_uint32, "uinteger": uinteger}
                at += STATE_BYTES

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
        producer = self._producer
        if producer is not None and channel in producer.channels:
            producer.take(channel, out)
        else:
            _fill(self._per_trial(channel), out)
        return out

    @contextlib.contextmanager
    def producing(self, channels: Sequence[int], n: int, d: int, n_steps: int) -> Iterator[None]:
        """Within the block, ``gaussians(c, n, d)`` of each channel c in
        ``channels`` serves the next of ``n_steps`` draws made ahead in a
        forked child, and the generators of those channels are the child's
        until the block ends; it may draw each channel at most ``n_steps``
        times.  The child runs only when :func:`second_cpu_pays` for the
        normals to draw; otherwise, and if the fork fails, the block draws
        them here.
        After the block every generator stands where drawing here would
        have left it."""
        producer = None
        if self._producer is None and second_cpu_pays(
            len(channels) * len(self.trials) * n * d * n_steps
        ):
            with contextlib.suppress(OSError):  # no process to spare: draw here
                producer = _Producer(self, channels, self.batch_shape + (n, d), n_steps)
        if producer is None:
            yield
            return
        self._producer = producer
        try:
            yield
        finally:
            self._producer = None
            try:
                producer.finish()
            finally:
                producer.close()
