"""Structured tracing for simulations.

Protocol agents and queue monitors feed a shared :class:`Tracer`; the
analysis layer (time series, CoV, equivalence ratio) consumes the records
after the run.  Tracing is designed to be cheap enough to leave on; a
component built with ``tracer=None`` skips it with one ``None`` check.

Storage is one parallel list per field (time, category, source, value) plus
a sparse ``{index: meta}`` dict, so the hot path appends four scalars
instead of constructing a frozen dataclass per occurrence.
:class:`TraceRecord`, iteration, and :meth:`Tracer.select` are lazy views
that materialize records only when the analysis layer asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes:
        time: simulation time of the event.
        category: coarse event class, e.g. ``"send"``, ``"recv"``, ``"drop"``,
            ``"queue"``, ``"rate"``.
        source: name of the emitting component (flow or link name).
        value: numeric payload (bytes for send/recv, queue length for queue
            samples, rate for rate samples).
        meta: optional extra fields (sequence numbers, flags).
    """

    time: float
    category: str
    source: str
    value: float = 0.0
    meta: Optional[Dict[str, Any]] = None


class Tracer:
    """Append-only trace sink with simple filtered views."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._categories: List[str] = []
        self._sources: List[str] = []
        self._values: List[float] = []
        self._meta: Dict[int, Dict[str, Any]] = {}

    def record(
        self,
        time: float,
        category: str,
        source: str,
        value: float = 0.0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one record: four scalars, plus ``meta`` when given."""
        times = self._times
        if meta is not None:
            self._meta[len(times)] = meta
        times.append(time)
        self._categories.append(category)
        self._sources.append(source)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def _build(self, index: int) -> TraceRecord:
        return TraceRecord(
            self._times[index],
            self._categories[index],
            self._sources[index],
            self._values[index],
            self._meta.get(index),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        return (self._build(i) for i in range(len(self._times)))

    def select(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records matching all provided filters, in time order."""
        build = self._build
        return [
            build(i)
            for i in self._match_indices(category, source, t_min, t_max)
        ]

    def _match_indices(
        self,
        category: Optional[str],
        source: Optional[str],
        t_min: Optional[float],
        t_max: Optional[float],
    ) -> Iterator[int]:
        times = self._times
        categories = self._categories
        sources = self._sources
        for i in range(len(times)):
            if category is not None and categories[i] != category:
                continue
            if source is not None and sources[i] != source:
                continue
            t = times[i]
            if t_min is not None and t < t_min:
                continue
            if t_max is not None and t > t_max:
                continue
            yield i

    def series(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
    ) -> "tuple[List[float], List[float]]":
        """Matching ``(times, values)`` columns without building records.

        The analogue of :meth:`select` for numeric analysis.
        """
        times: List[float] = []
        values: List[float] = []
        all_times = self._times
        all_values = self._values
        for i in self._match_indices(category, source, t_min, t_max):
            times.append(all_times[i])
            values.append(all_values[i])
        return times, values

    def sources(self, category: Optional[str] = None) -> List[str]:
        """Sorted unique source names (optionally within one category)."""
        if category is None:
            return sorted(set(self._sources))
        categories = self._categories
        src = self._sources
        return sorted(
            {src[i] for i in range(len(src)) if categories[i] == category}
        )

    def clear(self) -> None:
        self._times.clear()
        self._categories.clear()
        self._sources.clear()
        self._values.clear()
        self._meta.clear()
