"""Pipeline configuration: every threshold in one place.

Values can be overridden from a ``key=value`` text file (``#`` starts a
comment), each key at most once and each value a plain ASCII decimal.
A ``PipelineConfig`` checks its fields when it is constructed, so a bad
config fails at startup, not mid-batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from scriptid._util import parse_float, parse_int

__all__ = ["PipelineConfig", "load_config"]


@dataclass(frozen=True)
class PipelineConfig:
    min_area: int = 15          # despeckle: smallest surviving component (300 DPI)
    tau_line: int = 0           # horizontal-projection valley threshold
    tau_word: int = 0           # vertical-projection valley threshold
    gap_frac: float = 0.2       # word gap >= gap_frac * line height
    gap_min_floor: int = 2      # ...but never narrower than this
    min_line_height: int = 5    # discard shorter line bands
    deskew_max_angle: float = 15.0
    deskew_step: float = 0.1
    deskew_dilate_len: int = 10
    se_ratio: float = 0.7       # SE length as fraction of mean component height
    se_min_len: int = 3
    k: int = 3                  # KNN neighbours

    def __post_init__(self):
        if self.min_area < 0:
            raise ValueError(f"min_area must be >= 0, got {self.min_area}")
        if self.tau_line < 0 or self.tau_word < 0:
            raise ValueError("projection thresholds must be >= 0")
        if not 0.0 < self.gap_frac < 1.0:
            raise ValueError(f"gap_frac must lie in (0, 1), got {self.gap_frac}")
        if self.gap_min_floor < 1:
            raise ValueError(f"gap_min_floor must be >= 1, got {self.gap_min_floor}")
        if self.min_line_height < 1:
            raise ValueError(f"min_line_height must be >= 1, got {self.min_line_height}")
        if not 0.0 < self.deskew_step <= self.deskew_max_angle <= 45.0:
            raise ValueError("need 0 < deskew_step <= deskew_max_angle <= 45")
        if self.deskew_dilate_len < 1:
            raise ValueError(f"deskew_dilate_len must be >= 1, got {self.deskew_dilate_len}")
        if not 0.0 < self.se_ratio <= 1.0:
            raise ValueError(f"se_ratio must lie in (0, 1], got {self.se_ratio}")
        if self.se_min_len < 1 or self.se_min_len % 2 == 0:
            raise ValueError(f"se_min_len must be odd and >= 1, got {self.se_min_len}")
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be a positive odd integer, got {self.k}")


def load_config(path: str | None) -> PipelineConfig:
    """Read overrides from a key=value file; None means defaults."""
    if path is None:
        return PipelineConfig()
    types = {f.name: f.type for f in fields(PipelineConfig)}
    casts = {"int": parse_int, "float": parse_float}
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, eq, value = text.partition("=")
            key = key.strip()
            if not eq or key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config entry {text!r}")
            if key in overrides:
                raise ValueError(f"{path}:{lineno}: repeated config entry {text!r}")
            try:
                overrides[key] = casts[types[key]](value.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value.strip()!r}") from None
    return PipelineConfig(**overrides)
