"""Typed columns backed by numpy arrays.

Representation choices:

* ``INT`` / ``FLOAT`` columns store ``float64`` values with ``nan`` as NULL
  (float64 represents integers exactly up to 2**53, far beyond our scales).
* ``CATEGORICAL`` / ``STRING`` columns store ``int64`` dictionary codes with
  ``-1`` as NULL plus a ``dictionary`` list mapping code -> string.  String
  predicates (LIKE / regex) are evaluated once on the dictionary and mapped
  onto the codes, which mirrors dictionary-encoded execution in real systems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DataType", "Column", "NULL_CODE"]

NULL_CODE = -1


class DataType(enum.Enum):
    """Logical column types; the set mirrors the paper's data_type feature."""

    INT = "int"
    FLOAT = "float"
    CATEGORICAL = "categorical"
    STRING = "string"

    @property
    def is_numeric(self):
        return self in (DataType.INT, DataType.FLOAT)

    @property
    def is_dictionary(self):
        return self in (DataType.CATEGORICAL, DataType.STRING)


@dataclass
class Column:
    """A single named, typed column of data."""

    name: str
    dtype: DataType
    values: np.ndarray
    dictionary: list = field(default=None, repr=False)
    _dictionary_index: tuple = field(default=None, repr=False, compare=False)
    _null_mask_cache: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dtype.is_numeric:
            self.values = np.asarray(self.values, dtype=np.float64)
            if self.dictionary is not None:
                raise ValueError("numeric columns must not carry a dictionary")
        else:
            self.values = np.asarray(self.values, dtype=np.int64)
            if self.dictionary is None:
                raise ValueError(f"column {self.name!r}: dictionary columns "
                                 "require a code dictionary")
            if self.values.size and self.values.max(initial=NULL_CODE) >= len(self.dictionary):
                raise ValueError(f"column {self.name!r}: code out of range")

    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.values)

    @property
    def dictionary_index(self):
        """``word -> code`` map (predicate evaluation hot path).

        Built once per dictionary (rebuilt only when ``dictionary`` is
        replaced or grows).  A word the dictionary repeats maps to its
        first code, as ``list.index`` finds it.
        """
        dictionary = self.dictionary
        cached = self._dictionary_index
        if (cached is not None and cached[0] is dictionary
                and cached[1] == len(dictionary)):
            return cached[2]
        index = {}
        for code, word in enumerate(dictionary):
            index.setdefault(word, code)
        self._dictionary_index = (dictionary, len(dictionary), index)
        return index

    @property
    def null_mask(self):
        """Boolean mask of NULL entries (cached per backing array).

        Appends replace ``values`` with a new array, which invalidates the
        cache via the identity check; callers treat the mask as read-only.
        """
        values = self.values
        cached = self._null_mask_cache
        if cached is not None and cached[0] is values:
            return cached[1]
        mask = (np.isnan(values) if self.dtype.is_numeric
                else values == NULL_CODE)
        self._null_mask_cache = (values, mask)
        return mask

    @property
    def null_frac(self):
        if len(self.values) == 0:
            return 0.0
        return float(self.null_mask.mean())

    def non_null(self):
        """Values with NULLs removed."""
        return self.values[~self.null_mask]

    @property
    def byte_width(self):
        """Average number of bytes to represent a value (Table 1 feature)."""
        if self.dtype == DataType.INT:
            return 8.0
        if self.dtype == DataType.FLOAT:
            return 8.0
        if not self.dictionary:
            return 1.0
        lengths = np.array([len(s) for s in self.dictionary], dtype=np.float64)
        valid = self.values[self.values != NULL_CODE]
        if valid.size == 0:
            return float(lengths.mean()) if lengths.size else 1.0
        return float(lengths[valid].mean())

    def n_distinct(self):
        valid = self.non_null()
        if valid.size == 0:
            return 0
        return int(np.unique(valid).size)

    def take(self, row_ids):
        """New column restricted to ``row_ids`` (shares the dictionary)."""
        return Column(self.name, self.dtype, self.values[row_ids], self.dictionary)

    def decode(self, limit=None):
        """Human-readable python values (for debugging / examples)."""
        rows = self.values if limit is None else self.values[:limit]
        if self.dtype.is_numeric:
            return [None if np.isnan(v) else float(v) for v in rows]
        return [None if code == NULL_CODE else self.dictionary[int(code)] for code in rows]
