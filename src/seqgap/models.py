"""Per-stream observation models.

Each data stream carries a simple null/alternative pair from a closed-form
family.  A signal stream generates under the alternative, a noise stream
under the null.  Everything downstream (log-likelihood ratios, information
numbers, sampling) is derived from these pairs.

Sampling protocol: every observation consumes exactly one uniform variate,
mapped through the family's inverse CDF.  Block sampling draws the uniforms
for a (steps, J) block in row-major order — one row per time step — so any
consumer that respects the protocol sees the identical sample path for the
same generator state.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

GAUSSIAN_MEAN = "gaussian-mean"
BERNOULLI = "bernoulli"

_FAMILIES = (GAUSSIAN_MEAN, BERNOULLI)
_SMALLEST_UNIFORM = 2.0**-53


# Every integer and real input of the library is read by these checks, so
# a float is never truncated to an int, a bool never counts as a number,
# and a numpy scalar is stored as the Python number it equals, which
# serializes.


def _as_index(value) -> int | None:
    """``value`` as a Python int if it is an integer (a Python or numpy int,
    not a float or a bool), else None."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_int(value, name: str) -> int:
    """``value`` as a Python int if it is an integer."""
    number = _as_index(value)
    if number is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def check_count(value, name: str, least: int = 1) -> int:
    """``value`` as a Python int if it is an integer >= ``least``; a value
    that is not an integer fails as in ``check_int``."""
    number = check_int(value, name)
    if number < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return number


def check_word(value, name: str) -> int:
    """``value`` as a Python int if it is an integer in 0..2**64 - 1."""
    number = _as_index(value)
    if number is None or not 0 <= number < 2**64:
        raise ValueError(f"{name} must be a 64-bit integer, got {value!r}")
    return number


def check_real(value, name: str) -> float:
    """``value`` as a Python float if it is a real number (a Python or
    numpy int or float, not a bool); its range is the caller's to check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_positive(value, name: str) -> float:
    """``value`` as a Python float if it is a finite positive real number."""
    number = check_real(value, name)
    if not (math.isfinite(number) and number > 0):
        raise ValueError(f"{name} must be finite and positive, got {number}")
    return number


def check_probability(value, name: str) -> float:
    """``value`` as a Python float if it is a real number in (0, 1)."""
    number = check_real(value, name)
    if not 0.0 < number < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {number}")
    return number


def store_checked(obj, check, *names: str, **options) -> None:
    """Replace each field ``names`` of the frozen dataclass ``obj`` by what
    ``check(value, name, **options)`` returns for it."""
    for name in names:
        object.__setattr__(obj, name, check(getattr(obj, name), name, **options))


@dataclass(frozen=True)
class InfoNumbers:
    """Kullback-Leibler information numbers and increment variances.

    ``i0`` is the expected one-step LLR drift under the null (sign flipped,
    so it is positive), ``i1`` the drift under the alternative.  ``v0`` and
    ``v1`` are the corresponding increment variances.
    """

    i0: float
    i1: float
    v0: float
    v1: float


@dataclass(frozen=True)
class StreamModel:
    """A simple hypothesis pair for one stream.

    family "gaussian-mean": unit-variance normal with mean ``null`` vs
    mean ``alt``.  family "bernoulli": success probability ``null`` vs
    ``alt``; both must lie strictly inside (0, 1).  The two parameters
    must differ, otherwise the pair is untestable.
    """

    family: str
    null: float
    alt: float

    def __post_init__(self) -> None:
        store_checked(self, check_real, "null", "alt")
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}"
            )
        for name, value in (("null", self.null), ("alt", self.alt)):
            if not math.isfinite(value):
                raise ValueError(f"{name} parameter must be finite, got {value!r}")
        if self.null == self.alt:
            raise ValueError("null and alt parameters must differ")
        if self.family == BERNOULLI:
            for name in ("null", "alt"):
                check_probability(getattr(self, name), f"bernoulli {name} parameter")

    # The one-step LLR of both shipped families is affine in the
    # observation: llr(x) = slope * x + offset.  The vectorized scan path
    # relies on this.

    @property
    def llr_slope(self) -> float:
        if self.family == GAUSSIAN_MEAN:
            return self.alt - self.null
        p0, p1 = self.null, self.alt
        return math.log(p1 / p0) - math.log((1.0 - p1) / (1.0 - p0))

    @property
    def llr_offset(self) -> float:
        if self.family == GAUSSIAN_MEAN:
            return (self.null**2 - self.alt**2) / 2.0
        return math.log((1.0 - self.alt) / (1.0 - self.null))

    def info_numbers(self) -> InfoNumbers:
        """Closed-form KL information numbers and increment variances."""
        if self.family == GAUSSIAN_MEAN:
            theta = self.alt - self.null
            return InfoNumbers(
                i0=theta**2 / 2.0, i1=theta**2 / 2.0, v0=theta**2, v1=theta**2
            )
        p0, p1 = self.null, self.alt
        q0, q1 = 1.0 - p0, 1.0 - p1
        i1 = p1 * math.log(p1 / p0) + q1 * math.log(q1 / q0)
        i0 = p0 * math.log(p0 / p1) + q0 * math.log(q0 / q1)
        slope = self.llr_slope
        return InfoNumbers(i0=i0, i1=i1, v0=p0 * q0 * slope**2, v1=p1 * q1 * slope**2)


@dataclass(frozen=True)
class StreamProfile:
    """The J ≥ 2 stream models under test, in stream-label order.

    Stream labels are 1-based in configs, signal sets and reports:
    ``models[j - 1]``, and column j - 1 of every (J,) array, belong to
    stream j.

    Construction also builds the read-only (J,) columns every consumer
    reads: ``null``, ``alt``, ``llr_slope`` and ``llr_offset`` of each
    ``StreamModel``, ``i0`` and ``i1`` of its ``info_numbers()``, and the
    stream indices of each family, ``gaussian_columns`` and
    ``bernoulli_columns``.  They are not dataclass fields, so eq, hash and
    repr see only ``models``.
    """

    models: tuple[StreamModel, ...]

    def __post_init__(self) -> None:
        if len(self.models) < 2:
            raise ValueError(f"need at least 2 streams, got {len(self.models)}")
        for model in self.models:
            if not isinstance(model, StreamModel):
                raise TypeError(f"expected StreamModel, got {type(model).__name__}")
        infos = [m.info_numbers() for m in self.models]
        families = np.array([m.family for m in self.models])
        columns = {
            "null": [m.null for m in self.models],
            "alt": [m.alt for m in self.models],
            "llr_slope": [m.llr_slope for m in self.models],
            "llr_offset": [m.llr_offset for m in self.models],
            "i0": [f.i0 for f in infos],
            "i1": [f.i1 for f in infos],
            "gaussian_columns": np.flatnonzero(families == GAUSSIAN_MEAN),
            "bernoulli_columns": np.flatnonzero(families == BERNOULLI),
        }
        for name, values in columns.items():
            column = np.array(values)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __reduce__(self):
        # Pickles carry only the models; the receiver rebuilds the columns.
        return (type(self), (self.models,))

    @classmethod
    def homogeneous(cls, model: StreamModel, count: int) -> StreamProfile:
        """Profile with ``count`` identical streams."""
        return cls(models=(model,) * check_count(count, "count", least=2))

    @property
    def j(self) -> int:
        """Number of streams."""
        return len(self.models)

    def validate_signal_set(self, members) -> frozenset[int]:
        """Normalize an iterable of 1-based stream labels to a frozenset.

        Rejects labels outside 1..J and labels that are not integers.  The
        empty set and the full set are both legal signal configurations.
        """
        truth = frozenset(check_int(m, "signal label") for m in members)
        bad = [m for m in truth if not 1 <= m <= self.j]
        if bad:
            raise ValueError(
                f"signal labels must be in 1..{self.j}, got {sorted(bad)}"
            )
        return truth

    def signal_mask(self, truth: frozenset[int]) -> np.ndarray:
        """Read-only (J,) boolean mask, True at column j - 1 for signal label j."""
        truth = self.validate_signal_set(truth)
        mask = np.zeros(self.j, dtype=bool)
        mask[[label - 1 for label in truth]] = True
        mask.flags.writeable = False
        return mask

    def sample_block(
        self, means: np.ndarray, steps: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw a (steps, J) observation block at a (J,) column of means.

        Consumes steps * J uniforms in row-major (time, stream) order and
        maps each through its stream's inverse CDF, so chunked draws from
        the same generator concatenate to the same path as one big draw.
        The block is the uniform array ``rng.random`` returned, transformed
        in place by ``from_uniforms``.
        """
        steps = check_count(steps, "steps")
        return self.from_uniforms(rng.random(size=(steps, self.j)), means)

    def from_uniforms(self, u: np.ndarray, means: np.ndarray) -> np.ndarray:
        """Map a float array of uniforms, shape (..., J), to observations
        at a (J,) float column of means (a normal mean or a success
        probability per stream), in place, and return it.

        Each value goes through its stream's inverse CDF on its own, so a
        stack of trials' blocks maps to the same values as each block
        alone.  The inverse CDF and the mean run over ``u`` whole when
        every stream is gaussian, and over each family's columns otherwise.
        """
        means = np.asarray(means)
        if means.shape != (self.j,) or means.dtype.kind != "f":
            got = f"{means.dtype} {means.shape}"
            raise ValueError(f"need a ({self.j},) float column of means, got {got}")
        # random() can return exactly 0.0, where ndtri is -inf; the clamp
        # changes only exact zeros.
        np.maximum(u, _SMALLEST_UNIFORM, out=u)
        gaussian, bernoulli = self.gaussian_columns, self.bernoulli_columns
        if not bernoulli.size:
            ndtri(u, out=u)
            u += means
            return u
        # ndtri costs more than the gather on bernoulli columns, so it runs
        # on the gaussian ones only.
        if gaussian.size:
            u[..., gaussian] = means[gaussian] + ndtri(u[..., gaussian])
        # A bool right-hand side would make the scatter cast element by
        # element, which is slower than casting it whole first.
        u[..., bernoulli] = (u[..., bernoulli] < means[bernoulli]).astype(float)
        return u

    def increments(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-stream LLR increments for an observation block.

        ``x`` has shape (..., J); the result has the same shape.  It is
        written to ``out`` when given, which may be ``x`` itself.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.j:
            raise ValueError(
                f"last axis must have length {self.j}, got {x.shape[-1]}"
            )
        y = np.multiply(x, self.llr_slope, out=out)
        y += self.llr_offset
        return y


@dataclass(frozen=True)
class WorstCaseInfo:
    """Worst-case (smallest) information numbers over a signal configuration.

    ``eta0`` is the minimum null-side information over noise streams,
    ``eta1`` the minimum alternative-side information over signal streams.
    When a side is empty its minimum is vacuously +inf.
    """

    eta0: float
    eta1: float


def eta(profile: StreamProfile, truth: frozenset[int]) -> WorstCaseInfo:
    """Worst-case information numbers for a profile and signal set."""
    signal = profile.signal_mask(truth)
    return WorstCaseInfo(
        eta0=float(profile.i0[~signal].min(initial=math.inf)),
        eta1=float(profile.i1[signal].min(initial=math.inf)),
    )
