"""Dict-backed, per-row reference for ``UpdatableTableData``'s overlay."""

from __future__ import annotations

import numpy as np

from repro.embedding.data import TableData, UpdatableTableData

__all__ = ["ScalarUpdatableTableData"]


class ScalarUpdatableTableData(UpdatableTableData):
    """Per-row dict overlay; last write wins within a batch."""

    def __init__(self, base: TableData):
        super().__init__(base)
        self._overlay: dict = {}

    @property
    def overlay_rows(self) -> int:
        return len(self._overlay)

    def written_ids(self) -> np.ndarray:
        return np.asarray(sorted(self._overlay), dtype=np.int64)

    def apply(self, ids: np.ndarray, values: np.ndarray) -> int:
        ids = self._check_ids(ids)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (ids.size, self.dim):
            raise ValueError(
                f"values must be [{ids.size}, {self.dim}], got {values.shape}"
            )
        if ids.size == 0:
            return 0
        self.updates_applied += 1
        distinct = len({int(g) for g in ids})
        for i in range(ids.size):
            self._overlay[int(ids[i])] = values[i].copy()
        self.rows_written += distinct
        return distinct

    def get_rows(self, ids: np.ndarray) -> np.ndarray:
        ids = self._check_ids(ids)
        out = self.base.get_rows(ids)
        for i in range(ids.size):
            vec = self._overlay.get(int(ids[i]))
            if vec is not None:
                out[i] = vec
        return out
