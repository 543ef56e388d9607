"""Structured tracing for simulations.

Protocol agents and queue monitors feed a shared :class:`Tracer`; the
analysis layer (time series, CoV, equivalence ratio) consumes the records
after the run.  Tracing is designed to be cheap enough to leave on; a
component built with ``tracer=None`` skips it with one ``None`` check.

Storage keeps no Python object per record.  A record is

* its time, in an ``array('d')``;
* a small-int code, in an ``array('I')``: twice the index of its
  ``(category, source)`` pair in an interned name table, plus one when the
  record has ``meta``;
* its value, and its ``meta`` dict if any, inside pickled chunks: one
  pickle of the values and one of the ``meta`` dicts per :data:`CHUNK`
  records.  A pickle reads every value back as the object it was (``1000``
  stays ``1000``, ``1000.0`` stays ``1000.0``, ``-0.0`` and NaN stay what
  they were), in 2-3 bytes for a small int and 9 for a float.

:meth:`Tracer.record` makes three list appends, plus one for ``meta``
(``array.append`` costs about four ``list.append``), and every
:data:`CHUNK` records the lists are packed.  Reads -- iteration,
:meth:`Tracer.select`, :meth:`Tracer.series` -- walk the codes and times in
record order, unpickle one chunk of values at a time, and rebuild a
:class:`TraceRecord` and its ``meta`` dict only for a matching record;
:meth:`Tracer.series` builds neither and returns its times as an
``array('d')``.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass
from itertools import chain
from struct import pack
from typing import Any, Dict, Iterator, List, Optional, Tuple

# Records (or monitor samples) buffered in lists between two packings.
CHUNK = 1024

def pack_into(column: array, pending: List[Any]) -> None:
    """Append the buffered ``pending`` values to ``column``; empty the list.

    ``struct.pack`` converts a list about twice as fast as
    ``array.fromlist``.
    """
    if pending:
        column.frombytes(pack(f"{len(pending)}{column.typecode}", *pending))
        pending.clear()


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes:
        time: simulation time of the event (stored as a float).
        category: coarse event class, e.g. ``"send"``, ``"recv"``, ``"drop"``,
            ``"queue"``, ``"rate"``.
        source: name of the emitting component (flow or link name).
        value: numeric payload, read back with the type it was recorded
            with, so its ``repr`` is stable: an int for sizes and depths
            (bytes for send/recv/drop, packets for queue samples), a float
            for rates.
        meta: optional extra fields (sequence numbers, flags, a flow name),
            rebuilt on read into a dict equal to the recorded one.
    """

    time: float
    category: str
    source: str
    value: float = 0.0
    meta: Optional[Dict[str, Any]] = None


class Tracer:
    """Append-only trace sink with simple filtered views."""

    def __init__(self) -> None:
        self._pairs: List[Tuple[str, str]] = []  # code // 2 -> pair
        # category -> source -> code of a record without meta
        self._code_of: Dict[str, Dict[str, int]] = {}
        self._codes = array("I")
        self._times = array("d")
        self._values: List[bytes] = []  # one pickle per chunk
        self._metas: List[bytes] = []  # one per chunk that has meta
        self._new_codes: List[int] = []
        self._new_times: List[float] = []
        self._new_values: List[Any] = []
        self._new_metas: List[Dict[str, Any]] = []

    def record(
        self,
        time: float,
        category: str,
        source: str,
        value: float = 0.0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Buffer one record; it is stored when the buffer is packed."""
        try:
            code = self._code_of[category][source]
        except KeyError:
            code = self._intern(category, source)
        codes = self._new_codes
        if meta is not None:
            self._new_metas.append(meta)
            code += 1
        codes.append(code)
        self._new_times.append(time)
        self._new_values.append(value)
        if len(codes) >= CHUNK:
            self._pack()

    def _intern(self, category: str, source: str) -> int:
        code = 2 * len(self._pairs)
        self._pairs.append((category, source))
        self._code_of.setdefault(category, {})[source] = code
        return code

    def _pack(self) -> None:
        """Move the buffered records into the columns and pickles.

        Everything is converted before any column or buffer changes: a
        record that cannot be stored leaves the tracer as it was and raises
        ``ValueError`` naming it, here and on every later pack.
        """
        values, metas = self._new_values, self._new_metas
        try:
            times = pack(f"{len(self._new_times)}d", *self._new_times)
            values_pickle = pickle.dumps(values, pickle.HIGHEST_PROTOCOL)
            metas_pickle = pickle.dumps(metas, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # whatever pickle raises for the type
            raise ValueError(self._unstorable()) from exc
        self._times.frombytes(times)
        self._codes.fromlist(self._new_codes)
        if values:
            self._values.append(values_pickle)
        if metas:
            self._metas.append(metas_pickle)
        for pending in (self._new_codes, self._new_times, values, metas):
            pending.clear()

    def _unstorable(self) -> str:
        """Describe the first buffered field that cannot be stored."""
        metas = iter(self._new_metas)
        for code, time, value in zip(
            self._new_codes, self._new_times, self._new_values
        ):
            meta = next(metas) if code % 2 else None
            for name, field in (("time", time), ("value", value), ("meta", meta)):
                try:
                    if name == "time":
                        pack("d", field)
                    else:
                        pickle.dumps(field, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # whatever pickle raises for the type
                    category, source = self._pairs[code // 2]
                    return (
                        f"cannot trace the {name} {field!r} of a {category!r} "
                        f"record from {source!r}: {exc}"
                    )
        raise AssertionError("every buffered record can be stored")

    def __len__(self) -> int:
        return len(self._codes) + len(self._new_codes)

    def _scan(
        self,
        category: Optional[str],
        source: Optional[str],
        with_meta: bool,
    ) -> Iterator[Tuple[float, Tuple[str, str], Any, Optional[Dict[str, Any]]]]:
        """``(time, (category, source), value, meta)`` of every matching
        record, in record order; ``meta`` is rebuilt only ``with_meta``.

        One pass: values (and metas) are unpickled a chunk at a time.
        """
        self._pack()
        # codes 2k and 2k + 1 both name pair k
        pair_of = [pair for pair in self._pairs for _ in (0, 1)]
        wanted = [
            (category is None or record_category == category)
            and (source is None or record_source == source)
            for record_category, record_source in pair_of
        ]
        values = chain.from_iterable(map(pickle.loads, self._values))
        metas = chain.from_iterable(map(pickle.loads, self._metas))
        meta = None
        for time, code, value in zip(self._times, self._codes, values):
            if with_meta:
                meta = next(metas) if code % 2 else None
            if not wanted[code]:
                continue
            yield time, pair_of[code], value, meta

    def __iter__(self) -> Iterator[TraceRecord]:
        return (
            TraceRecord(time, *pair, value, meta)
            for time, pair, value, meta in self._scan(None, None, True)
        )

    def select(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records matching all provided filters, in time order."""
        return [
            TraceRecord(time, *pair, value, meta)
            for time, pair, value, meta in self._scan(category, source, True)
        ]

    def series(
        self, category: Optional[str] = None
    ) -> "tuple[array, List[float]]":
        """Matching ``(times, values)`` columns without building records:
        the times as an ``array('d')``, the values as a list (ints stay
        ints).

        The analogue of :meth:`select` for numeric analysis.
        """
        times = array("d")
        values: List[float] = []
        for time, _, value, _ in self._scan(category, None, False):
            times.append(time)
            values.append(value)
        return times, values

    def sources(self) -> List[str]:
        """Sorted unique source names."""
        return sorted({pair_source for _, pair_source in self._pairs})
