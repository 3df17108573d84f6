"""Per-layer wall-clock self times, taken from outside the program.

A traced pass swaps each layer's entry point, where its caller looks it
up, for a wrapper that times the call, and puts the original back
afterwards: the program is not edited and its results are untouched.  A
layer's self time is its span minus the part covered by spans opened
inside it, so nested layers -- verify's ``ftimm_gemm`` running the
tuner, lowering and functional execution -- are each charged only their
own work, and no second is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager


class LayerClock:
    """Self time, call count and result tallies per layer name."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        #: quantities read off layer results (DES events, DMA bytes, ...)
        self.tally: Counter = Counter()
        #: child seconds of each open span, innermost last
        self._open: list[list[float]] = []

    def wrap(self, fn, layer: str, on_result=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = self.clock() - start
                self._open.pop()
                self.self_s[layer] += took - children[0]
                self.calls[layer] += 1
                if self._open:
                    self._open[-1][0] += took
            if on_result is not None:
                on_result(self.tally, result)
            return result

        return span

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attribute, layer, on_result)`` targets inside the
        block; every original is put back on exit, also on error."""
        saved = []
        try:
            for owner, attr, layer, on_result in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _des_tally(tally: Counter, result) -> None:
    tally["events"] += result.events_processed
    tally["dma_bytes"] += result.dma_bytes
    tally["ddr_concurrency"] += result.ddr_mean_concurrency


def program_layers() -> list[tuple]:
    """The program's layer entry points, bound where their callers look
    them up: a ``from x import f`` is patched in the importing module."""
    ftimm = importlib.import_module("repro.core.ftimm")
    batcher = importlib.import_module("repro.serve.batcher")
    server = importlib.import_module("repro.serve.server")
    engine = server.ServeEngine
    return [
        (engine, "offer", "serve.server", None),
        (engine, "advance_to", "serve.server", None),
        (engine, "advance_until", "serve.server", None),
        (engine, "finish", "serve.server", None),
        (batcher, "b_digest", "serve.batcher.digest", None),
        (server, "ftimm_gemm", "serve.verify", None),
        (server, "grouped_gemm", "core.batched.grouped", None),
        (ftimm, "tune", "core.tuner", None),
        (ftimm, "build_parallel_m", "core.lowering", None),
        (ftimm, "build_parallel_k", "core.lowering", None),
        (ftimm, "build_tgemm", "core.lowering", None),
        (ftimm, "run_functional", "executor.functional", None),
        (ftimm, "analytic_parallel_m", "executor.analytic", None),
        (ftimm, "analytic_parallel_k", "executor.analytic", None),
        (ftimm, "analytic_tgemm", "executor.analytic", None),
        (ftimm, "run_timed", "executor.timed", _des_tally),
    ]
