"""An in-memory trace sink for tests: attach it with
``network.trace_sink = ListTraceSink(...)`` and read ``records``."""

from __future__ import annotations

from typing import List

from repro.simulator import TraceSink


class ListTraceSink(TraceSink):
    """Collects the records that pass the filters, in order."""

    def __init__(self, **filters) -> None:
        super().__init__(**filters)
        self.records: List[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)
