"""Per-layer spans, recorded from outside the program.

:class:`LayerTracer` replaces each layer's public entry point with a
wrapper, under the name its caller looks it up by (a module attribute
for functions imported into the calling module, the class attribute for
methods), so no file of the program changes. A wrapper records a span
only while an operation is open: name, start, end and parent span, with
the operation's index as the shared id. Spans stay in memory and are
written out once the run ends.

A span's self time is its duration minus the durations of its direct
children; ``sparql.evaluate`` self time is therefore query execution,
with parsing, planning and statistics collection split out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: (span name, module, class or None for a module attribute, attribute)
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("platform.upload", "repro.platform.gallery", "Platform", "upload"),
    ("platform.evaluator", "repro.platform.gallery", "Platform",
     "evaluator"),
    ("platform.semanticize", "repro.platform.gallery", "Platform",
     "semanticize"),
    ("d2r.dump_graph", "repro.platform.gallery", None, "dump_graph"),
    ("annotator.annotate", "repro.core.annotator", "SemanticAnnotator",
     "annotate"),
    ("location.analyze", "repro.core.location", "LocationAnalyzer",
     "analyze"),
    ("lod.as_dataset", "repro.lod.datasets", "LodCorpus", "as_dataset"),
    ("lod.union", "repro.lod.datasets", "LodCorpus", "union"),
    ("store.sync_dataset", "repro.store.engine", "QuadStore",
     "sync_dataset"),
    ("store.apply", "repro.store.engine", "QuadStore", "apply"),
    ("store.wal_append", "repro.store.wal", "WriteAheadLog", "append"),
    ("store.checkpoint", "repro.store.engine", "QuadStore", "checkpoint"),
    ("sparql.parse", "repro.sparql.evaluator", None, "parse_query"),
    ("sparql.plan", "repro.analysis.plan", "QueryPlanner", "plan"),
    ("sparql.evaluate", "repro.sparql.evaluator", "Evaluator",
     "evaluate"),
    ("stats.collect", "repro.analysis.stats", "GraphStatistics",
     "collect"),
    ("search.build", "repro.platform.search", "SearchInterface",
     "__init__"),
    ("search.suggest", "repro.platform.search", "SearchInterface",
     "suggest"),
    ("web.browse", "repro.platform.web", "WebInterface", "browse"),
)

ENTRY_NAMES = tuple(entry[0] for entry in ENTRY_POINTS)

# span record fields
_NAME, _OP, _PARENT, _BEGAN, _ENDED, _QUADS = range(6)


class LayerTracer:
    """Installs the entry-point wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for name, module_name, class_name, attribute in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attribute, wrapped)
            self._restore.append((owner, attribute, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, raw = self._restore.pop()
            setattr(owner, attribute, raw)

    def _wrap(self, name: str, fn):
        tracer = self
        counts_quads = name == "store.apply"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts_quads:
                span[_QUADS] = result[1]
            return result

        return traced

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, self._op, parent, time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[_ENDED] = time.perf_counter()
        self._stack.pop()

    # -- operations -----------------------------------------------------
    @contextmanager
    def op(self, index: int, kind: str) -> Iterator[None]:
        """Record the spans of one operation under its root span."""
        self._op = index
        root = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(root)
            self._op = None

    # -- results --------------------------------------------------------
    def op_windows(self) -> Dict[int, Tuple[float, float]]:
        """Start and end of every operation's root span, by op id."""
        return {
            span[_OP]: (span[_BEGAN], span[_ENDED])
            for span in self.spans if span[_PARENT] is None
        }

    def self_seconds(self) -> List[float]:
        """Self time of every span, parallel to :attr:`spans`."""
        own = [span[_ENDED] - span[_BEGAN] for span in self.spans]
        for span in self.spans:
            if span[_PARENT] is not None:
                own[span[_PARENT]] -= span[_ENDED] - span[_BEGAN]
        return own

    def layer_totals(
        self, ops: Sequence[int], factors: Dict[int, float]
    ) -> Dict[str, Tuple[int, float, int]]:
        """Per entry point over the ops in ``ops``: call count,
        normalized self seconds (each span scaled by its op's
        ``factors`` entry) and quads committed."""
        wanted = set(ops)
        totals = {name: [0, 0.0, 0] for name in ENTRY_NAMES}
        for span, own in zip(self.spans, self.self_seconds()):
            row = totals.get(span[_NAME])
            if row is None or span[_OP] not in wanted:
                continue
            row[0] += 1
            row[1] += own * factors.get(span[_OP], 1.0)
            row[2] += span[_QUADS]
        return {name: tuple(row) for name, row in totals.items()}

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        origin = self.spans[0][_BEGAN] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "op": span[_OP],
                    "name": span[_NAME],
                    "parent": span[_PARENT],
                    "start_s": round(span[_BEGAN] - origin, 9),
                    "end_s": round(span[_ENDED] - origin, 9),
                }) + "\n")
