"""An in-memory trace sink for tests: attach it with
``network.trace_sink = ListTraceSink()`` and read ``records``."""

from __future__ import annotations

from typing import List


class ListTraceSink:
    """Collects every record the engine emits, in order."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def flush(self) -> None:
        pass

    def of(self, *kinds: str) -> List[dict]:
        """The records of ``kinds``, in emission order."""
        return [record for record in self.records if record["event"] in kinds]
