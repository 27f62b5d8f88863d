"""Extraction statistics — the counters one tabular scan gathers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class ExtractStats:
    """Counters gathered by one extraction pass.

    ``rows_out`` counts emitted records, ``fields_out`` the non-NULL
    values among them and ``nulls_out`` the NULLs (so ``rows_out *
    len(fields) == fields_out + nulls_out``); ``bytes_in`` measures the
    source, ``bytes_out`` the encoded JSONL/CSV written.
    """

    rows_out: int = 0
    fields_out: int = 0
    nulls_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    def as_counters(self) -> dict[str, int]:
        """The counters an observability span carries for one pass."""
        return {
            "rows_out": self.rows_out,
            "fields_out": self.fields_out,
            "nulls_out": self.nulls_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }

    def merge(self, other: "ExtractStats") -> "ExtractStats":
        """Accumulate another pass's counters into this one (corpus-level
        aggregation for :func:`repro.parallel.extract_many`); returns
        ``self``."""
        self.rows_out += other.rows_out
        self.fields_out += other.fields_out
        self.nulls_out += other.nulls_out
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        return self

    # -- wire form (the service protocol ships stats as JSON) -------------

    def as_dict(self) -> dict[str, int]:
        return self.as_counters()

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "ExtractStats":
        names = {
            "rows_out", "fields_out", "nulls_out", "bytes_in", "bytes_out"
        }
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown extract stats field(s): {sorted(unknown)}")
        return cls(**data)
