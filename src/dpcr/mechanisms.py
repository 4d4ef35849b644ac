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
from typing import Callable, Iterable, Mapping

import numpy as np

from .changelog import Mutation

VALUE_FN_KINDS = ("identity", "indicator", "second_moment", "table")


class InvalidNoiseError(ValueError):
    """Noise parameters do not define a positive Laplace scale."""


@dataclass(frozen=True)
class LinearQuerySpec:
    """Per-value function plus the closed range its outputs are clamped to.

    ``fn`` is one of ``identity``, ``indicator`` (needs ``predicate``),
    ``second_moment``, or ``table`` (needs ``table``; missing keys map
    to 0 before clamping). ``None`` values always contribute 0.
    """

    fn: str = "identity"
    lower: float = 0.0
    upper: float = 1.0
    predicate: Callable[[float], bool] | None = None
    table: Mapping[float, float] | None = None

    def __post_init__(self) -> None:
        if self.fn not in VALUE_FN_KINDS:
            raise ValueError(f"unknown value function {self.fn!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"bounds [{self.lower}, {self.upper}] must be finite")
        if self.lower > self.upper:
            raise ValueError(f"bounds [{self.lower}, {self.upper}] are reversed")
        if self.fn == "indicator" and self.predicate is None:
            raise ValueError("indicator query needs a predicate")
        if self.fn == "table" and self.table is None:
            raise ValueError("table query needs a lookup table")

    def evaluate(self, value: float | None) -> float:
        """``f(value)`` clamped into ``[lower, upper]``; ``None`` gives 0."""
        if value is None:
            return 0.0
        if self.fn == "identity":
            raw = value
        elif self.fn == "indicator":
            raw = 1.0 if self.predicate(value) else 0.0  # type: ignore[misc]
        elif self.fn == "second_moment":
            raw = value * value
        else:
            raw = self.table.get(value, 0.0)  # type: ignore[union-attr]
        return min(max(raw, self.lower), self.upper)


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
    ``(seed, "hdcr", layer)`` one draw per node of that layer, and the
    randomized-response engine opens ``(seed, "rr-dcr", i)`` and
    ``(seed, "rr-hdcr", layer, index)`` per survey round. Building a
    stream costs tens of microseconds, so callers open one per vector,
    not one per draw. Caveat: ``SeedSequence`` pads entropy shorter than
    its four-word pool with zeros, so for a seed below ``2**32`` and one
    string part the streams ``(seed, "dcr")`` and ``(seed, "dcr", 0)``
    coincide; no caller opens both.
    """
    words = [seed & 0xFFFFFFFFFFFFFFFF]
    for part in parts:
        if isinstance(part, int):
            words.append(part & 0xFFFFFFFFFFFFFFFF)
        else:
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            words.append(int.from_bytes(digest[:8], "little"))
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
