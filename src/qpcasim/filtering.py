"""Eigenvalue-threshold filtering in fixed point.

The filter maps an n-bit eigenvalue register value lambda to an n-bit
shrinkage coefficient y = (1 - tau/lambda) clamped below at 0, computed via a
Newton-iteration reciprocal.  Components that ``FilterParams.keeps`` drops get
y = 0 and are discarded by the pipeline's ancilla flip; kept ones get y > 0.
Only the zero/nonzero distinction feeds the pipeline (the y register is
uncomputed), but y values are still produced at full register precision so
the table can be checked against the real-valued shrinkage map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .layout import RegisterLayout
from .sim import GateOp

# Eigenvalues this close to an integer land exactly on that register value.
SPECTRUM_ATOL = 1e-6


class ZeroEigenvalue(Exception):
    """Reciprocal of a zero (or negative) eigenvalue requested."""


@dataclass(frozen=True)
class FixedPoint:
    """Unsigned fixed-point number: value = raw / 2**frac, held in ``bits`` bits."""

    raw: int
    bits: int
    frac: int = 0

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if not 0 <= self.frac <= self.bits:
            raise ValueError(f"frac {self.frac} must lie in [0, bits]")
        if not 0 <= self.raw < (1 << self.bits):
            raise ValueError(f"raw value {self.raw} does not fit in {self.bits} bits")

    @property
    def value(self) -> float:
        return self.raw / (1 << self.frac)

    @classmethod
    def integer(cls, value: int, bits: int) -> "FixedPoint":
        return cls(raw=int(value), bits=bits, frac=0)

    @classmethod
    def from_real(cls, x: float, frac: int, bits: int | None = None) -> "FixedPoint":
        """Round ``x`` to the nearest multiple of 2**-frac."""
        raw = round(float(x) * (1 << frac))
        if bits is None:
            bits = max(frac + 1, raw.bit_length())
        return cls(raw=raw, bits=bits, frac=frac)


def default_newton_iters(frac_bits: int) -> int:
    """Iterations needed for ``frac_bits`` correct bits: ceil(log2(f)) + 2.

    Newton's method doubles the number of correct bits per step and the
    power-of-two seed starts with at least one, so log2(f) steps reach f bits
    and two extra steps absorb the seed and rounding slack.
    """
    if frac_bits < 1:
        raise ValueError("frac_bits must be >= 1")
    return math.ceil(math.log2(frac_bits)) + 2


def newton_reciprocal(lam, iters: int, frac_bits: int | None = None) -> FixedPoint:
    """Approximate 1/lam with Newton's iteration z <- 2z - z*z*lam.

    ``lam`` may be a FixedPoint or a plain number.  The seed is the largest
    power of two not exceeding 1/lam, so convergence is monotone from below
    after the first step.  The result is rounded once, at the end, to
    ``frac_bits`` fractional bits (default: lam.bits), giving
    |result - 1/lam| <= 2**-frac_bits for the default iteration count.
    """
    if isinstance(lam, FixedPoint):
        lam_value = lam.value
        if frac_bits is None:
            frac_bits = lam.bits
    else:
        lam_value = float(lam)
        if frac_bits is None:
            raise ValueError("frac_bits is required when lam is not a FixedPoint")
    if lam_value <= 0.0:
        raise ZeroEigenvalue(f"cannot take reciprocal of {lam_value}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    raw = int(_newton_raws(np.array([lam_value]), iters, frac_bits)[0])
    bits = max(frac_bits + 1, raw.bit_length())  # z can reach exactly 1.0 at lam = 1
    return FixedPoint(raw=raw, bits=bits, frac=frac_bits)


def _newton_raws(lam: np.ndarray, iters: int, frac_bits: int) -> np.ndarray:
    """``newton_reciprocal``'s raw values, as floats, for an array of
    positive ``lam``: the seed 2**-ceil(log2(lam)), ``iters`` steps of
    z <- 2z - z*z*lam, one rounding to ``frac_bits`` fractional bits (half
    to even, as Python's ``round``)."""
    z = np.ldexp(1.0, -np.ceil(np.log2(lam)).astype(np.int64))
    for _ in range(iters):
        z = 2.0 * z - z * z * lam
    return np.rint(np.ldexp(z, frac_bits))


@functools.lru_cache
def _register_reciprocals(n_bits: int, iters: int, frac_bits: int) -> np.ndarray:
    """``newton_reciprocal`` of every n-bit register value, with
    ``frac_bits`` fractional bits, as read-only floats; entry 0, which has
    none, is 0.  They depend only on the register, so they are computed once
    per width, iteration count and precision."""
    z = np.zeros(1 << n_bits)
    z[1:] = np.ldexp(_newton_raws(np.arange(1, 1 << n_bits), iters, frac_bits), -frac_bits)
    z.setflags(write=False)
    return z


def shrink(lam: float, tau: float) -> float:
    """Real-valued shrinkage coefficient max(1 - tau/lam, 0); zero at lam = 0."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0:
        return 0.0
    return max(1.0 - tau / lam, 0.0)


@dataclass(frozen=True)
class FilterParams:
    """Threshold and register width for the filter.

    ``keeps`` is the one threshold test, shared by the filter table, the
    pipeline's kept list and the classical oracle.  ``tau_fixed`` (tau on the
    ``n_bits``-fractional-bit grid) is only the y arithmetic's operand.
    """

    tau: float
    n_bits: int

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")

    @property
    def frac_bits(self) -> int:
        return self.n_bits

    @property
    def iterations(self) -> int:
        return default_newton_iters(self.frac_bits)

    @property
    def tau_fixed(self) -> FixedPoint:
        return FixedPoint.from_real(self.tau, self.frac_bits)

    def keeps(self, lam):
        """lam > tau, reading lam within ``SPECTRUM_ATOL`` of an integer as the
        register value it lands on, round(lam) mod 2**n_bits.  Those values
        are integers, so this is lam > floor(tau), as an n-bit comparator decides.
        ``lam`` may be a number or an array; the answer has its shape.
        """
        lam = np.asarray(lam, dtype=np.float64)
        reg = np.rint(lam)
        lam = np.where(np.abs(lam - reg) <= SPECTRUM_ATOL, reg % (1 << self.n_bits), lam)
        return lam > self.tau


@dataclass(frozen=True, eq=False)
class FilterTable:
    """Lookup lambda_raw -> y_raw over all 2**n_bits register values.

    ``y_raws`` is held as a read-only int64 array, the form of every table
    gate; a tuple or list of ints is converted once, and an int64 array is
    taken as it is and made read-only.  Invariants checked at construction:
    every entry is an integer that fits the n-bit y register, y == 0
    exactly where ``params.keeps(lambda)`` is false, and y is nondecreasing
    on the kept side (larger eigenvalues shrink less).
    """

    params: FilterParams
    y_raws: np.ndarray

    def __post_init__(self):
        n = self.params.n_bits
        y = np.asarray(self.y_raws)
        if y.ndim != 1:
            raise ValueError(f"table must be one-dimensional, got shape {y.shape}")
        if len(y) != (1 << n):
            raise ValueError(f"table needs {1 << n} entries, got {len(y)}")
        if y.dtype.kind not in "iu":
            # floats, or Python ints past int64, which numpy holds as objects;
            # each entry as given, before numpy casts a mixed tuple
            for v in np.asarray(self.y_raws, dtype=object).tolist():
                if not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
                    raise ValueError(f"y value {v!r} is not an integer")
        if y.min() < 0 or y.max() >= 1 << n:
            wide = np.flatnonzero((y < 0) | (y >= 1 << n))[0]
            raise ValueError(f"y value {y[wide]} does not fit the {n}-bit register")
        y = y.astype(np.int64, copy=False)
        kept = y > 0
        split = kept != self.params.keeps(np.arange(1 << n))
        if np.count_nonzero(split):
            lam = np.flatnonzero(split)[0]
            raise ValueError(
                f"threshold dichotomy violated at lambda={lam}: y={y[lam]}, tau={self.params.tau}"
            )
        kept_y = y[kept]
        falls = kept_y[1:] < kept_y[:-1]
        if np.count_nonzero(falls):
            lam = np.flatnonzero(kept)[np.flatnonzero(falls)[0] + 1]
            raise ValueError(f"y not monotone at lambda={lam}")
        y.setflags(write=False)
        object.__setattr__(self, "y_raws", y)

    @property
    def frac_bits(self) -> int:
        return self.params.frac_bits

    def y_raw(self, lam_raw: int) -> int:
        return int(self.y_raws[lam_raw])

    def y_value(self, lam_raw: int) -> float:
        return self.y_raw(lam_raw) / (1 << self.frac_bits)

    @property
    def kept_values(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.y_raws).tolist())

    def __len__(self) -> int:
        return len(self.y_raws)


def build_filter_table(params: FilterParams) -> FilterTable:
    """Tabulate y(lambda) = 1 - tau/lambda over the register, in fixed point.

    Dropped values go to 0; the kept side uses the Newton reciprocal
    against the grid-rounded tau, clamped into [1, 2**n - 1] so that
    rounding can neither drop a kept component to zero (tau may round up
    onto it) nor overflow the y register.  One numpy pass over the 2**n
    register values; their reciprocals depend only on the register, so
    they are computed once per width and iteration count.
    """
    n = params.n_bits
    f = params.frac_bits
    z = _register_reciprocals(n, params.iterations, f)
    y = np.rint(np.ldexp(1.0 - params.tau_fixed.value * z, f))
    y = np.minimum(np.maximum(y, 1), (1 << f) - 1).astype(np.int64)
    return FilterTable(params=params, y_raws=y * params.keeps(np.arange(1 << n)))


def exact_shrink_table(params: FilterParams) -> FilterTable:
    """Same kept-set semantics with y taken from the real shrinkage map.

    Substituting this table for the Newton one isolates fixed-point error to
    the reciprocal path; the pipeline output must not change at all, since
    only the zero/nonzero pattern of y survives uncomputation.
    """
    scale = 1 << params.frac_bits
    lam = np.arange(1 << params.n_bits)
    # shrink(lam, tau) on every register value; lambda = 0 is never kept
    s = np.maximum(1.0 - params.tau / np.maximum(lam, 1), 0.0)
    y = np.minimum(np.maximum(np.ceil(s * scale), 1), scale - 1).astype(np.int64)
    return FilterTable(params=params, y_raws=y * params.keeps(lam))


def build_filter_unitary(table: FilterTable, layout: RegisterLayout) -> GateOp:
    """Table-controlled add |c>_y |lambda> -> |c + y(lambda) mod 2**n>_y |lambda>.

    Acting on the joint y+lambda register; the table is compiled in as
    classical data, so no work qubits are consumed.  The gate stores the
    2**n table entries y(lambda): the add of Draper's adder
    (quant-ph/0008033), with the addend read from the table.
    """
    n = table.params.n_bits
    if len(layout.y_reg) != n:
        raise ValueError(
            f"table built for {n}-bit registers but layout has {len(layout.y_reg)}"
        )
    return GateOp(table.y_raws, layout.y_reg + layout.lambda_reg, label="U_lambda_tau")
