"""In-memory span tracer that wraps the public functions of the dualmp modules.

Every wrapped call records one span: name, phase, start, end, the span that
was open when it started (its parent) and an optional work count. Spans stay
in memory until :meth:`Tracer.dump` writes them out as JSON lines. A span's
self time is its duration minus the time covered by its direct children.

Wrapping replaces module and class attributes, so only calls that look the
name up at call time are seen: the benchmark calls the program through
module attributes (``data.generate_synthetic``), never through names bound
at import.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    phase: str
    start_ns: int
    end_ns: int = 0
    count: int | None = None


def _hetero_edges(partition) -> int:
    return int(partition.hetero.edge_count)


def _forward_name(args, kwargs) -> str:
    training = kwargs.get("training", args[1] if len(args) > 1 else False)
    return "model.forward_train" if training else "model.forward_eval"


def wrap_targets():
    """(owner, attribute, span name or name function, count function) for every traced layer."""
    from dualmp import data, model, propagation, separator, training

    return [
        (data, "generate_synthetic", "data.generate", None),
        (data, "load_dataset", "data.load_dataset", None),
        (data, "save_checkpoint", "data.save_checkpoint", None),
        (data, "load_checkpoint", "data.load_checkpoint", None),
        (data, "restore_into", "data.restore_into", None),
        (model.DualChannelModel, "__init__", "model.init", None),
        (model.DualChannelModel, "forward", _forward_name, None),
        (model, "partition_subgraphs", "graphs.partition", _hetero_edges),
        (model, "classify", "model.classify", None),
        (model, "classification_loss", "model.loss", None),
        (model, "total_loss", "model.loss", None),
        (separator, "project_features", "separator.project", None),
        (separator, "edge_score_values", "separator.edge_score", len),
        (separator, "edge_scores", "separator.edge_loss", None),
        (separator, "heterophily_loss", "separator.edge_loss", None),
        (propagation, "channel_messages", "propagation.messages", None),
        (propagation, "residual_aggregate", "propagation.aggregate", None),
        (propagation, "frequency_fuse", "propagation.fuse", None),
        (training, "fit", "training.fit", None),
        (training, "evaluate_split", "training.evaluate_split", None),
        (training, "balanced_node_sample", "training.sample", None),
        (training, "balanced_edge_sample", "training.sample", None),
        (training, "backward", "autodiff.backward", None),
        (training.Adam, "step", "training.adam", None),
        (training, "evaluate", "metrics.evaluate", None),
        (training, "accuracy", "metrics.evaluate", None),
    ]


class Tracer:
    """Collects spans while installed; :meth:`uninstall` restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase_name = "none"
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            phase=self.phase_name,
            start_ns=time.perf_counter_ns(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        previous, self.phase_name = self.phase_name, name
        try:
            yield
        finally:
            self.phase_name = previous

    def _wrapper(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(opened)
            if count is not None:
                opened.count = count(result)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in wrap_targets():
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, count))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> dict[int, int]:
        """Self time of every span: duration minus the durations of its direct children."""
        own = {s.id: s.end_ns - s.start_ns for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end_ns - s.start_ns
        return own

    def totals(self, phase: str) -> tuple[dict[str, int], dict[str, int]]:
        """Summed self time (ns) and summed counts by span name, over one phase."""
        own = self.self_ns()
        time_by_name: dict[str, int] = defaultdict(int)
        count_by_name: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s.phase == phase:
                time_by_name[s.name] += own[s.id]
                if s.count is not None:
                    count_by_name[s.name] += s.count
        return time_by_name, count_by_name

    def self_times(self, name: str, phases: tuple[str, ...]) -> list[int]:
        """Self time (ns) of each span with this name in the given phases."""
        own = self.self_ns()
        return [own[s.id] for s in self.spans if s.name == name and s.phase in phases]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
