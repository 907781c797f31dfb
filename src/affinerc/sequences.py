"""Left-infinite bounded input sequences and weighting sequences.

A causal filter consumes a semi-infinite input history ``z_0, z_{-1}, z_{-2}, ...``
(most recent first).  Histories are represented here by a finite stored window plus a
declared *extension* rule saying how entries older than the window are filled:

* ``"zero"`` — entries beyond the window are the zero vector;
* ``"repeat_last_oldest"`` — entries beyond the window repeat the oldest stored entry,
  so constant sequences are representable exactly.

Every filter in this package has a certified geometric tail, so a window chosen from
the tail bound yields exact-to-tolerance results; the extension rule makes the tail
contributions of norms and sums closed-form rather than approximate.

The weighted norm of a history is ``sup_t ||z_{-t}|| * w_t`` for a decreasing weighting
sequence ``w : N -> (0, 1]`` with zero limit.  Because ``w`` is decreasing, the
supremum over the un-stored tail is exactly ``||tail entry|| * w_T`` for a window of
length ``T``, which is what :func:`weighted_norm` adds to the windowed scan.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightingSequence",
    "BoundedSequence",
    "weighted_norm",
    "weighted_distance",
    "time_shift",
    "geometric_weighted_sum",
    "sequence_to_csv",
    "sequence_from_csv",
]

EXTENSIONS = ("zero", "repeat_last_oldest")


@dataclass(frozen=True)
class WeightingSequence:
    """Decreasing positive weights ``w_t`` with ``w_0 <= 1`` and ``w_t -> 0``.

    Three kinds are supported:

    * ``exponential(lam)`` — ``w_t = lam**t``;
    * ``exponential_power(lam, rho)`` — ``w_t = lam**(rho*t)``;
    * ``explicit(table, tail_factor)`` — the listed leading values, continued
      geometrically with ``tail_factor`` past the end of the table.

    Instances are immutable; use the classmethod constructors rather than filling the
    fields by hand.
    """

    kind: str
    lam: float = 0.0
    rho: float = 1.0
    table: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("exponential", "exponential_power", "explicit"):
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.table:
                raise ValueError("explicit weighting needs a non-empty table")
            if not (0.0 < self.lam < 1.0):
                raise ValueError("explicit tail factor must lie in (0, 1)")
            vals = np.asarray(self.table, dtype=float)
            if vals[0] > 1.0 or np.any(vals <= 0.0):
                raise ValueError("weights must lie in (0, 1]")
            if np.any(np.diff(vals) > 0.0):
                raise ValueError("weights must be decreasing")
        else:
            if not (0.0 < self.lam < 1.0):
                raise ValueError("lam must lie in (0, 1)")
            if not (0.0 < self.rho <= 1.0):
                raise ValueError("rho must lie in (0, 1]")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def exponential(cls, lam: float) -> "WeightingSequence":
        """``w_t = lam**t``."""
        return cls(kind="exponential", lam=float(lam))

    @classmethod
    def exponential_power(cls, lam: float, rho: float) -> "WeightingSequence":
        """``w_t = lam**(rho*t)``; the workhorse of the fading-memory bounds."""
        return cls(kind="exponential_power", lam=float(lam), rho=float(rho))

    @classmethod
    def explicit(cls, table, tail_factor: float) -> "WeightingSequence":
        """Listed leading weights, continued geometrically past the table."""
        return cls(
            kind="explicit",
            lam=float(tail_factor),
            table=tuple(float(v) for v in table),
        )

    # -- evaluation --------------------------------------------------------------

    def weight(self, t: int) -> float:
        """Return ``w_t`` for an integer ``t >= 0``."""
        if t < 0:
            raise ValueError("weighting sequences are indexed by t >= 0")
        if self.kind == "exponential":
            return self.lam**t
        if self.kind == "exponential_power":
            return self.lam ** (self.rho * t)
        if t < len(self.table):
            return self.table[t]
        return self.table[-1] * self.lam ** (t - len(self.table) + 1)

    def weights(self, n: int) -> np.ndarray:
        """Return the vector ``(w_0, ..., w_{n-1})``."""
        return np.array([self.weight(t) for t in range(n)])

    def power(self, a: float) -> "WeightingSequence":
        """Pointwise power ``w_t**a`` for ``a`` in (0, 1]; stays a valid weighting."""
        if not (0.0 < a <= 1.0):
            raise ValueError("power exponent must lie in (0, 1]")
        if self.kind == "exponential":
            return WeightingSequence.exponential_power(self.lam, a)
        if self.kind == "exponential_power":
            return WeightingSequence.exponential_power(self.lam, self.rho * a)
        return WeightingSequence.explicit(
            [v**a for v in self.table], self.lam**a
        )


@dataclass(frozen=True)
class BoundedSequence:
    """A bounded left-infinite sequence stored as a finite window.

    ``window`` holds ``z_{-T+1}, ..., z_{-1}, z_0`` oldest-first (most recent last) as
    a ``(T, dim)`` array; every entry satisfies ``||z_t|| <= bound`` in the Euclidean
    norm, and the declared ``extension`` fills entries older than the window.
    """

    window: np.ndarray
    bound: float
    extension: str = "zero"

    def __post_init__(self) -> None:
        arr = np.asarray(self.window, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("window must be a non-empty (T, dim) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("window entries must be finite")
        object.__setattr__(self, "window", arr)
        if self.extension not in EXTENSIONS:
            raise ValueError(f"unknown extension {self.extension!r}")
        if not (math.isfinite(self.bound) and self.bound >= 0.0):
            raise ValueError("bound must be finite and >= 0")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms > self.bound * (1.0 + 1e-12) + 1e-300):
            raise ValueError("window entry exceeds the declared bound")

    # -- basic accessors ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.window.shape[1]

    @property
    def length(self) -> int:
        return self.window.shape[0]

    def entry(self, k: int) -> np.ndarray:
        """Return ``z_{-k}`` for ``k >= 0``, applying the extension past the window."""
        if k < 0:
            raise ValueError("entries are indexed into the past: k >= 0")
        T = self.length
        if k < T:
            return self.window[T - 1 - k]
        return self.extension_value()

    def extension_value(self) -> np.ndarray:
        """The constant vector filling every entry older than the window."""
        if self.extension == "zero":
            return np.zeros(self.dim)
        return self.window[0]

    def values_newest_first(self, n: int) -> np.ndarray:
        """Return ``(z_0, z_{-1}, ..., z_{-n+1})`` as an ``(n, dim)`` array."""
        T = self.length
        if n <= T:
            return self.window[::-1][:n]
        ext = np.tile(self.extension_value(), (n - T, 1))
        return np.concatenate([self.window[::-1], ext], axis=0)


def _window_block(inputs, n: int) -> np.ndarray:
    """The (B, n, dim) block of each input's ``n`` newest entries, oldest first, with
    the entries older than an input's window filled by its own extension rule: the
    rows of ``values_newest_first(n)[::-1]``, bit for bit.  Inputs of one window
    length take one stack, and one fill of their padding when they are shorter than
    ``n``."""
    out = np.empty((len(inputs), n, inputs[0].dim))
    by_length: dict = {}
    for i, z in enumerate(inputs):
        by_length.setdefault(z.length, []).append(i)
    for T, rows in by_length.items():
        k = min(T, n)
        block = np.stack([inputs[i].window[T - k:] for i in rows])
        out[rows, n - k:] = block
        if k < n:
            repeat = np.array([inputs[i].extension == "repeat_last_oldest" for i in rows])
            out[rows, :n - k] = np.where(repeat[:, None, None], block[:, :1], 0.0)
    return out


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array, or ValueError if any entry is NaN or infinite."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_same_dim(z: BoundedSequence, s: BoundedSequence) -> None:
    if z.dim != s.dim:
        raise ValueError(f"dimension mismatch: {z.dim} vs {s.dim}")


def weighted_norm(z: BoundedSequence, w: WeightingSequence) -> float:
    """``sup_t ||z_{-t}|| * w_t`` including the exact tail contribution.

    For a window of length ``T`` the tail entries are all equal to the extension
    value, and ``w`` is decreasing, so the tail supremum is exactly
    ``||extension_value|| * w_T``.
    """
    T = z.length
    norms = np.linalg.norm(z.window[::-1], axis=1)  # index t = 0 .. T-1
    head = float(np.max(norms * w.weights(T)))
    tail = float(np.linalg.norm(z.extension_value())) * w.weight(T)
    return max(head, tail)


def weighted_distance(
    z: BoundedSequence, s: BoundedSequence, w: WeightingSequence
) -> float:
    """Weighted norm of the entrywise difference of two histories.

    Windows are aligned at ``t = 0``; the shorter window is extended by its declared
    rule, and past both windows the difference is the constant difference of the two
    extension values, making the tail supremum exact.
    """
    _check_same_dim(z, s)
    T = max(z.length, s.length)
    diffs = z.values_newest_first(T) - s.values_newest_first(T)
    norms = np.linalg.norm(diffs, axis=1)
    head = float(np.max(norms * w.weights(T)))
    tail_vec = z.extension_value() - s.extension_value()
    tail = float(np.linalg.norm(tail_vec)) * w.weight(T)
    return max(head, tail)


def time_shift(z: BoundedSequence, tau: int) -> BoundedSequence:
    """Delay by ``tau`` steps into the past: the result's ``z'_t`` is ``z_{t-tau}``.

    The window length is preserved; entries newly exposed at the old end are produced
    by the declared extension, and the newest ``tau`` entries drop off.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0 (causal shift into the past)")
    if tau == 0:
        return z
    shifted = z.values_newest_first(z.length + tau)[::-1][: z.length]
    return BoundedSequence(window=shifted, bound=z.bound, extension=z.extension)


def geometric_weighted_sum(z: BoundedSequence, lam: float) -> float:
    """``sum_{t>=0} ||z_{-t}|| * lam**t`` with the exact closed-form tail.

    The tail past the window is a constant entry, so it contributes
    ``||extension_value|| * lam**T / (1 - lam)`` exactly.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    T = z.length
    norms = np.linalg.norm(z.window[::-1], axis=1)
    head = float(np.sum(norms * lam ** np.arange(T)))
    tail = float(np.linalg.norm(z.extension_value())) * lam**T / (1.0 - lam)
    return head + tail


# -- serialization ---------------------------------------------------------------
#
# CSV layout: a header line `dim,bound,extension`, one metadata row with the values,
# then one row per time step (oldest first) with the vector components.


def sequence_to_csv(z: BoundedSequence) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["dim", "bound", "extension"])
    writer.writerow([z.dim, repr(float(z.bound)), z.extension])
    for row in z.window:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue()


def sequence_from_csv(text: str) -> BoundedSequence:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if len(rows) < 3:
        raise ValueError("sequence CSV needs a header, a metadata row and data rows")
    if [h.strip() for h in rows[0]] != ["dim", "bound", "extension"]:
        raise ValueError("sequence CSV header must be dim,bound,extension")
    dim = int(rows[1][0])
    bound = float(rows[1][1])
    extension = rows[1][2].strip()
    data = np.array([[float(v) for v in r] for r in rows[2:]])
    if data.shape[1] != dim:
        raise ValueError(f"declared dim {dim} but rows have {data.shape[1]} columns")
    return BoundedSequence(window=data, bound=bound, extension=extension)


def write_sequence(path, z: BoundedSequence) -> None:
    with open(path, "w") as fh:
        fh.write(sequence_to_csv(z))


def read_sequence(path) -> BoundedSequence:
    with open(path) as fh:
        return sequence_from_csv(fh.read())
