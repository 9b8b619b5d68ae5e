"""Span recorder that times calls into cyclecap from outside the package.

A traced run patches the module-level functions and methods listed in
``PATCH_SITES`` where their callers look them up, so that every call opens a
span (name, start, end, parent, request id) on an in-memory stack. Self time
is a span's duration minus the time its child spans cover. The individual
``tensor`` primitives are never wrapped: a record builds hundreds of them, and
timing each from outside would swamp what it measures.

With tracing off nothing is patched and only the benchmark's phase spans are
recorded, which is how the untraced run gets its phase wall times.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# Attention heads are one function; the parameter prefix of the layer tells
# them apart.
HEADS = {
    "captioner/decoder/attn": "attention.en_to_regions",
    "de_decoder/attn_regions": "attention.de_to_regions",
    "de_decoder/attn_caption": "attention.de_to_en",
}

# (module, class or None, attribute, span name). Each entry is patched where
# the caller looks the name up: ``cyclecap.models.lstm_step`` rather than
# ``cyclecap.cells.lstm_step``, because the decoders call it through models.
PATCH_SITES = (
    ("cyclecap.tensor", "Tape", "backward", "tensor.backward"),
    ("cyclecap.models", None, "lstm_step", "cells.lstm_step"),
    ("cyclecap.models", None, "gru_step", "cells.gru_step"),
    ("cyclecap.models", None, "attend", "attention"),
    ("cyclecap.models", "ImageProjection", "project", "models.project"),
    ("cyclecap.models", "CaptionEncoder", "encode", "models.encode"),
    ("cyclecap.models", "SoftAttentionDecoder", "step", "models.soft_step"),
    ("cyclecap.models", "DualAttentionDecoder", "step", "models.dual_step"),
    ("cyclecap.models", None, "log_softmax", "models.log_softmax"),
    ("cyclecap.models", None, "save_checkpoint", "models.checkpoint_io"),
    ("cyclecap.models", None, "load_checkpoint", "models.checkpoint_io"),
    ("cyclecap.training", None, "cycle_loss_graph", "cycle.loss_graph"),
    ("cyclecap.training", None, "nll_loss", "training.nll_loss"),
    ("cyclecap.training", None, "_validate_captioner", "training.validate"),
    ("cyclecap.training", None, "_validate_bundle", "training.validate"),
    ("cyclecap.optim", "Adam", "zero_grad", "optim.zero_grad"),
    ("cyclecap.optim", "Adam", "step", "optim.adam_step"),
    ("cyclecap.inference", None, "beam_decode", "inference.beam_decode"),
    ("cyclecap.training", None, "beam_decode", "inference.beam_decode"),
    ("cyclecap.inference", None, "caption_image", "inference.caption_image"),
    ("cyclecap.training", None, "caption_image", "inference.caption_image"),
    ("cyclecap.evaluation", None, "cider", "evaluation.cider"),
    ("cyclecap.training", None, "cider", "evaluation.cider"),
    ("cyclecap.evaluation", None, "alignment_score", "evaluation.alignment_score"),
    ("cyclecap.data", None, "load_features", "data.load_features"),
    ("cyclecap.data", None, "read_manifest", "data.read_manifest"),
    ("cyclecap.cli", None, "read_manifest", "data.read_manifest"),
    ("cyclecap.synth", None, "generate", "synth.generate"),
    ("cyclecap.cli", None, "main", "cli.main"),
)

# The optimizer step has no function of its own: it runs from
# ``Adam.zero_grad`` to the end of ``Adam.step``, and its self time is the
# loop body outside every child span.
STEP = "training.step"


def site_name(module_name: str, class_name: str | None, attr: str) -> str:
    return ".".join(filter(None, (module_name, class_name, attr)))


@dataclass(frozen=True)
class Patch:
    owner: object
    attr: str
    original: object


class Tracer:
    """In-memory span stack plus the counters measured at layer boundaries.

    Spans are parallel lists indexed by span id; a parent id of -1 marks a
    root (the benchmark's phase spans). ``request`` is the optimizer step or
    image id that new spans are attributed to. Layer spans are recorded only
    while the wrappers are installed.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.requests: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.request = ""
        self.phase = ""
        self.counts: Counter = Counter()  # (phase, counter name) -> value
        self.calls_by_site: Counter = Counter()
        self.patches: list[Patch] = []
        self._stack: list[int] = []
        self._step_span = -1
        self._records_since_backward = 0

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed while "
                               f"{self.names[top]!r} was still open")

    @contextmanager
    def phase_span(self, phase: str):
        """Root span for one benchmark phase; recorded with tracing on or off."""
        self.phase, self.request = phase, phase
        idx = self.open(f"phase.{phase}")
        try:
            yield
        finally:
            # An error inside an optimizer step leaves its span open, because
            # Adam.step never ran to close it.
            while self._stack[-1] != idx:
                self.ends[self._stack.pop()] = perf_counter()
            self._step_span = -1
            self.close(idx)

    def phase_spans(self) -> list[tuple[str, float, float]]:
        """(phase, start, end) of every phase span, in order."""
        return [(self.names[i][len("phase."):], self.starts[i], self.ends[i])
                for i, p in enumerate(self.parents) if p == -1]

    def phase_walls(self) -> dict[str, float]:
        """phase -> summed wall time of its (possibly repeated) phase spans."""
        walls: dict[str, float] = {}
        for phase, start, end in self.phase_spans():
            walls[phase] = walls.get(phase, 0.0) + end - start
        return walls

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        if self.patches:
            raise RuntimeError("tracer is already installed")
        for module_name, class_name, attr, span in PATCH_SITES:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            site = site_name(module_name, class_name, attr)
            setattr(owner, attr, self._wrap(original, span, site))
            self.patches.append(Patch(owner, attr, original))

    def uninstall(self) -> None:
        while self.patches:
            p = self.patches.pop()
            setattr(p.owner, p.attr, p.original)

    def _wrap(self, fn, span: str, site: str):
        special = {
            "attention": self._wrap_attend,
            "tensor.backward": self._wrap_backward,
            "training.nll_loss": self._wrap_nll,
            "optim.zero_grad": self._wrap_zero_grad,
            "optim.adam_step": self._wrap_adam_step,
            "inference.beam_decode": self._wrap_beam_decode,
        }.get(span)
        calls = self.calls_by_site
        if special is not None:
            inner = special(fn, span)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[site] += 1
                return inner(*args, **kwargs)
            return counted

        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[site] += 1
            idx = open_(span)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _timed(self, span: str, fn, *args, **kwargs):
        idx = self.open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap_attend(self, fn, _span):
        def attend(layer, keys, query):
            head = HEADS[layer.w_key.name.rsplit("/", 1)[0]]
            return self._timed(head, fn, layer, keys, query)
        return attend

    def _wrap_backward(self, fn, span):
        def backward(tape, loss):
            self.counts[(self.phase, "tape_ops")] += len(tape)
            self.counts[(self.phase, "tape_records")] += self._records_since_backward
            self._records_since_backward = 0
            return self._timed(span, fn, tape, loss)
        return backward

    def _wrap_nll(self, fn, span):
        def nll_loss(*args, **kwargs):
            self._records_since_backward += 1
            return self._timed(span, fn, *args, **kwargs)
        return nll_loss

    def _wrap_zero_grad(self, fn, span):
        def zero_grad(adam):
            if self._step_span >= 0:
                raise RuntimeError("optimizer step opened twice without Adam.step")
            self.counts[(self.phase, "steps")] += 1
            self.request = f"{self.phase}:step{self.counts[(self.phase, 'steps')]}"
            self._step_span = self.open(STEP)
            return self._timed(span, fn, adam)
        return zero_grad

    def _wrap_adam_step(self, fn, span):
        def step(adam):
            try:
                return self._timed(span, fn, adam)
            finally:
                if self._step_span >= 0:
                    self.close(self._step_span)
                    self._step_span = -1
                    self.request = self.phase
        return step

    def _wrap_beam_decode(self, fn, span):
        counts = self.counts

        def beam_decode(step_fn, initial_state, **kwargs):
            phase = self.phase

            def counted_step(state, prev):
                counts[(phase, "decoder_steps")] += 1
                return step_fn(state, prev)

            result = self._timed(span, fn, counted_step, initial_state, **kwargs)
            counts[(phase, "hypothesis_tokens")] += len(result.tokens)
            return result
        return beam_decode

    # -- aggregation -------------------------------------------------------

    def _roots(self) -> list[int]:
        """The root (phase) span of every span."""
        roots: list[int] = []
        for i, p in enumerate(self.parents):  # parents precede their children
            roots.append(i if p < 0 else roots[p])
        return roots

    def self_times(self) -> tuple[np.ndarray, list[int]]:
        """(self seconds per span, root phase span id per span)."""
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        if np.isnan(dur).any():
            raise RuntimeError("a span is still open")
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered, self._roots()

    def layer_table(self) -> dict[str, dict[str, tuple[int, float]]]:
        """phase -> span name -> (calls, self seconds). The phase span's own
        entry is the remainder: phase time inside no layer span."""
        own, roots = self.self_times()
        table: dict[str, dict[str, list]] = {}
        for i, name in enumerate(self.names):
            phase = self.names[roots[i]][len("phase."):]
            key = "remainder" if i == roots[i] else name
            row = table.setdefault(phase, {}).setdefault(key, [0, 0.0])
            row[0] += 1
            row[1] += own[i]
        return {ph: {k: (v[0], v[1]) for k, v in rows.items()}
                for ph, rows in table.items()}

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, request."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, request in zip(
                    self.names, self.starts, self.ends, self.parents, self.requests):
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, request]) + "\n")
