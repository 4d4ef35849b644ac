"""Query mechanisms: exact linear-query change, sensitivity, Laplace noise.

A linear query sums a per-value function ``f`` over the database; its
change over a mutation batch is ``sum(f(new) - f(prev))`` with
``f(None) = 0``. Outputs of ``f`` are clamped into the declared closed
range so the change of a single value moves the query by at most the
range width.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .changelog import Mutation

VALUE_FN_KINDS = ("identity", "indicator", "second_moment", "table")


class InvalidNoiseError(ValueError):
    """Noise parameters do not define a positive, finite Laplace scale."""


@dataclass(frozen=True)
class LinearQuerySpec:
    """Per-value function plus the closed range its outputs are clamped to.

    ``fn`` is one of ``identity``, ``indicator`` (needs ``threshold``:
    1 for a value above it, else 0), ``second_moment``, or ``table``
    (needs ``table``; missing keys map to 0 before clamping). ``None``
    values always contribute 0. The threshold is stored as a float, so
    ``evaluate`` and ``evaluate_column`` compare against the same number;
    one beyond the float range is refused.
    """

    fn: str = "identity"
    lower: float = 0.0
    upper: float = 1.0
    threshold: float | None = None
    table: Mapping[float, float] | None = None

    def __post_init__(self) -> None:
        if self.fn not in VALUE_FN_KINDS:
            raise ValueError(f"unknown value function {self.fn!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"bounds [{self.lower}, {self.upper}] must be finite")
        if self.lower > self.upper:
            raise ValueError(f"bounds [{self.lower}, {self.upper}] are reversed")
        if self.fn == "indicator" and self.threshold is None:
            raise ValueError("indicator query needs a threshold")
        if self.threshold is not None:
            try:
                object.__setattr__(self, "threshold", float(self.threshold))
            except OverflowError:
                raise ValueError("threshold is beyond the float range") from None
        if self.fn == "table" and self.table is None:
            raise ValueError("table query needs a lookup table")
        if self.table is not None and not all(map(math.isfinite, self.table.values())):
            # a NaN passes the clamp in evaluate
            raise ValueError("table values must be finite")

    def evaluate(self, value: float | None) -> float:
        """``f(value)`` clamped into ``[lower, upper]``; ``None`` gives 0."""
        if value is None:
            return 0.0
        if self.fn == "identity":
            raw = value
        elif self.fn == "indicator":
            raw = 1.0 if value > self.threshold else 0.0  # type: ignore[operator]
        elif self.fn == "second_moment":
            raw = value * value
        else:
            raw = self.table.get(value, 0.0)  # type: ignore[union-attr]
        return min(max(raw, self.lower), self.upper)

    def evaluate_column(self, values: np.ndarray, present: np.ndarray) -> np.ndarray:
        """``evaluate`` of each value, ``0.0`` where ``present`` is false.

        Each element equals ``evaluate`` bit for bit: the indicator
        makes the same ``>`` comparison with the threshold, the clamp
        makes the comparisons ``min(max(raw, lower), upper)`` makes, and
        the table sees Python floats.
        """
        out = np.zeros(len(values))
        raw = values[present]  # a copy, clamped in place below
        if self.fn == "indicator":
            raw = (raw > self.threshold).astype(float)
        elif self.fn == "second_moment":
            raw = raw * raw
        elif self.fn == "table":
            raw = np.array(
                [self.table.get(v, 0.0) for v in raw.tolist()],  # type: ignore[union-attr]
                dtype=float,
            )
        raw[self.lower > raw] = self.lower
        raw[self.upper < raw] = self.upper
        out[present] = raw
        return out


def linear_query_change(mutations: Iterable[Mutation], spec: LinearQuerySpec) -> float:
    """Exact change of the linear query over an ordered mutation batch."""
    change = 0.0
    for m in mutations:
        change -= spec.evaluate(m.prev_value)
        change += spec.evaluate(m.new_value)
    return change


def sensitivity(spec: LinearQuerySpec) -> float:
    """Worst-case swing of the per-value function: the range width."""
    return spec.upper - spec.lower


@dataclass(frozen=True)
class NoiseSpec:
    """Laplace perturbation parameters; ``scale = sensitivity / epsilon``."""

    epsilon: float
    sensitivity: float
    seed: int

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise InvalidNoiseError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.sensitivity > 0:
            raise InvalidNoiseError(f"sensitivity must be > 0, got {self.sensitivity}")
        if not math.isfinite(self.scale):
            raise InvalidNoiseError(f"scale {self.sensitivity} / {self.epsilon} is not finite")

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon


def named_stream(seed: int, *parts: int | str) -> np.random.Generator:
    """Independent, reproducible random stream for ``(seed, *parts)``.

    Streams with distinct names are statistically independent
    (counter-based Philox keyed off the hashed name), and a stream's
    draws depend only on the seed, the name, and the draw position.
    Releases open one stream per noise vector and read it by position:
    ``(seed, "dcr")`` and ``(seed, "swcr")`` hold one draw per query,
    ``(seed, "hdcr", layer)`` one draw per node of that layer,
    ``(seed, "rr-dcr")`` one block of uniforms per survey round and
    ``(seed, "rr-hdcr", layer)`` one block per node of that layer.
    Building a stream costs tens of microseconds, so callers open one
    per vector, not one per draw.

    The part count, the seed and each part are written as 64-bit
    values, each two little-endian 32-bit entropy words. So the words
    determine the name, and no name's words are another's with zeros
    appended, which ``SeedSequence``'s zero padding would merge:
    ``(seed, "dcr")`` and ``(seed, "dcr", 0)`` are distinct streams.
    The seed and each integer part are masked to 64 bits, so seeds ``-1``
    and ``2**64 - 1`` name the same streams (the CLI takes ``[0, 2**64)``).
    """
    values = [len(parts), seed]
    for part in parts:
        if isinstance(part, str):
            part = int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "little")
        values.append(part)
    # a uint32 array, which SeedSequence takes as is, where a list of Python ints
    # is converted int by int at several times the cost
    words = np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype="<u8").view("<u4")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def perturb(
    value: float | np.ndarray, noise: NoiseSpec, rng: np.random.Generator
) -> float | np.ndarray:
    """Add Laplace(0, sensitivity/epsilon) draws from the given stream.

    A scalar takes the stream's next draw. An array of exact values takes
    one draw per element in order, so element ``i`` gets draw ``i`` of a
    fresh stream whatever the array's length.
    """
    return value + rng.laplace(0.0, noise.scale, np.shape(value) or None)
