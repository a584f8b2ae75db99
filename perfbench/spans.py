"""Span tracer that times charseg's public functions from outside.

``Tracer.install`` replaces each target in ``TARGETS`` with a wrapper that
records one span (name, start, end, parent) per call and restores the
originals on ``uninstall``. A span wraps the function as its caller sees
it: ``nncore.encoder_fwd`` is the ``bilstm_forward`` that ``charseg.model``
imported, not the one in ``charseg.nncore``. A target that no longer
exists is reported as absent instead of failing the run, so refactors that
rename or remove a helper do not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# span name -> (module, attribute path inside the module)
TARGETS: dict[str, tuple[str, str]] = {
    "cli.segment": ("charseg.cli", "cmd_segment"),
    "corpus.normalize_text": ("charseg.corpus", "normalize_text"),
    "corpus.segmentation_from_tags": ("charseg.corpus", "segmentation_from_tags"),
    "subword.build_vocab": ("charseg.subword", "build_vocab"),
    "subword.features_fwd": ("charseg.model", "char_features_cached"),
    "subword.features_bwd": ("charseg.model", "char_features_backward"),
    "subword.composer_fwd": ("charseg.subword", "lstm_forward"),
    "subword.composer_bwd": ("charseg.subword", "lstm_backward"),
    "nncore.dropout": ("charseg.model", "variational_dropout"),
    "nncore.encoder_fwd": ("charseg.model", "bilstm_forward"),
    "nncore.encoder_bwd": ("charseg.model", "bilstm_backward"),
    "nncore.dense_fwd": ("charseg.model", "dense_forward"),
    "nncore.dense_bwd": ("charseg.model", "dense_backward"),
    "nncore.attention_fwd": ("charseg.model", "self_attention"),
    "nncore.attention_bwd": ("charseg.model", "self_attention_backward"),
    "nncore.clip": ("charseg.model", "clip_global_norm"),
    "nncore.adamax": ("charseg.model", "adamax_step"),
    "crf.nll_loss": ("charseg.crf", "nll_loss"),
    "crf.viterbi": ("charseg.crf", "viterbi_decode"),
    "crf.grammar_mask": ("charseg.crf", "grammar_mask"),
    "model.build": ("charseg.model", "build"),
    "model.load_model": ("charseg.model", "load_model"),
    "model.train": ("charseg.model", "train"),
    "model.loss": ("charseg.model", "Model.loss"),
    "model.predict": ("charseg.model", "Model.predict"),
    "metrics.tag_prf": ("charseg.model", "tag_prf"),
}

# Adamax reads p, g, m and u and writes p, m and u once per parameter.
ADAMAX_BYTES_PER_PARAM = 7 * 8

COUNTS: dict[str, str] = {
    "subword.composer_fwd.steps": "count",
    "subword.composer_fwd.calls_per_sentence": "calls",
    "nncore.adamax.params": "count",
    "nncore.adamax.bytes_per_call": "bytes_computed",
    "nncore.attention_fwd.max_len": "chars",
    "nncore.clip.clipped_share": "share",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    units.update({"trace.coverage": "share", "trace.overhead": "share", "trace.absent": "count"})
    return units


def _size(grads) -> int:
    if isinstance(grads, dict):
        return sum(int(g.size) for g in grads.values())
    return int(grads.size)


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = 0.0
        self._t1 = 0.0
        self.composer_steps = 0
        self.adamax_params = 0
        self.attention_max_len = 0
        self.clip_calls = 0
        self.clipped = 0

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        counters = {
            "subword.composer_fwd": self._count_composer,
            "nncore.adamax": self._count_adamax,
            "nncore.attention_fwd": self._count_attention,
            "nncore.clip": self._count_clip,
        }
        for idx, (name, (module, path)) in enumerate(TARGETS.items()):
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, idx, fn, counters.get(name)))
        self._t0 = time.perf_counter()

    def uninstall(self) -> None:
        self._t1 = time.perf_counter()
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, idx: int, fn, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter else None
        counting = [counter is not None]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(rec)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[rec] = (idx, start, end, parent)
            if counting[0]:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    counter(bound.arguments, result)
                except (KeyError, AttributeError, TypeError, IndexError):
                    # the function's signature changed: its count is absent
                    counting[0] = False
                    self.absent.append(f"{name} (count)")
            return result

        return wrapper

    # -- counters, fed with the wrapped call's bound arguments -----------------

    def _count_composer(self, a, result) -> None:
        self.composer_steps += int(a["X"].shape[0])

    def _count_adamax(self, a, result) -> None:
        self.adamax_params += _size(a["grads"])

    def _count_attention(self, a, result) -> None:
        self.attention_max_len = max(self.attention_max_len, int(a["Y"].shape[0]))

    def _count_clip(self, a, result) -> None:
        self.clip_calls += 1
        self.clipped += float(result[1]) > float(a["threshold"])

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per span, times in seconds from install."""
        with open(path, "w", encoding="utf-8") as f:
            for idx, start, end, parent in self.spans:
                f.write(json.dumps({
                    "name": self.names[idx], "start": start - self._t0,
                    "end": end - self._t0, "parent": parent,
                }) + "\n")

    def summary(self) -> dict:
        """Calls and self time per span, the counts, and coverage: the share
        of traced wall time inside a top-level span."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * n
        covered = 0.0
        for idx, start, end, parent in self.spans:
            calls[idx] += 1
            total[idx] += end - start
            if parent < 0:
                covered += end - start
            else:
                child[self.spans[parent][0]] += end - start
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = total[i] - child[i]
        sentences = calls[self.names.index("subword.features_fwd")]
        updates = calls[self.names.index("nncore.adamax")]
        out["subword.composer_fwd.steps"] = self.composer_steps
        out["subword.composer_fwd.calls_per_sentence"] = (
            calls[self.names.index("subword.composer_fwd")] / sentences if sentences else 0.0
        )
        out["nncore.adamax.params"] = self.adamax_params / updates if updates else 0
        out["nncore.adamax.bytes_per_call"] = out["nncore.adamax.params"] * ADAMAX_BYTES_PER_PARAM
        out["nncore.attention_fwd.max_len"] = self.attention_max_len
        out["nncore.clip.clipped_share"] = self.clipped / self.clip_calls if self.clip_calls else 0.0
        out["trace.coverage"] = covered / (self._t1 - self._t0)
        out["trace.absent"] = len(self.absent)
        return out
