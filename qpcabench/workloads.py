"""Seeded inputs for the benchmark workloads.

Every input is built as Q diag(lam) Q^T from integer eigenvalues lam in
[0, 2**n) and a random orthogonal Q, so the reference result follows from
(lam, Q) alone.  A round is the ordered list of cases a workload runs; every
run repeats whole rounds, so each run attempts the same mix of calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SHOTS = 8192

# The fidelity-report fault needs tau equal to an eigenvalue that eigh
# returns slightly above the integer.  Whether it does depends on the input,
# so these cases come from a fixed generator seed, never from --seed, and
# fail (or pass) the same way in every run.
FIXED_SEED = 20101009


@dataclass(frozen=True, eq=False)
class Case:
    """One pipeline call: input matrix, its generating eigenpairs, settings."""

    name: str
    lam: np.ndarray        # integer eigenvalues, one per column of q
    q: np.ndarray          # orthogonal; column k pairs with lam[k]
    tau: float
    n_bits: int
    mode: str = "exact"
    sample_seed: int = 0
    matrix: np.ndarray | None = None  # default: symmetrised Q diag(lam) Q^T

    def __post_init__(self):
        if self.matrix is None:
            a = (self.q * self.lam) @ self.q.T
            object.__setattr__(self, "matrix", (a + a.T) / 2)

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def shape(self) -> tuple[int, int, str]:
        return (self.dim, self.n_bits, self.mode)


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _split_tau(rng: np.random.Generator, lam: np.ndarray) -> float:
    """A half-integer threshold that keeps at least one component and drops one."""
    lo, hi = int(lam.min()), int(lam.max())
    return float(rng.integers(lo, hi)) + 0.5


def _spectrum(rng: np.random.Generator, dim: int, n_bits: int, distinct: bool) -> np.ndarray:
    top = 1 << n_bits
    while True:
        if distinct:
            lam = rng.choice(np.arange(1, top), size=dim, replace=False)
        else:
            lam = rng.integers(0, top, size=dim)
        if lam.max() > lam.min():
            return lam.astype(np.float64)


def _seeded_case(rng, name, dim, n_bits, mode="exact", distinct=False) -> Case:
    lam = _spectrum(rng, dim, n_bits, distinct)
    return Case(
        name=name,
        lam=lam,
        q=random_orthogonal(rng, dim),
        tau=_split_tau(rng, lam),
        n_bits=n_bits,
        mode=mode,
        sample_seed=int(rng.integers(0, 2**31)),
    )


def wide_register(seed: int) -> list[Case]:
    """Two dim-4 inputs at n = 6, distinct eigenvalues, exact mode."""
    rng = np.random.default_rng([seed, 1])
    return [_seeded_case(rng, f"wr{i}", 4, 6, distinct=True) for i in range(2)]


def wide_data(seed: int) -> list[Case]:
    """Four 16x16 inputs at n = 4 (17 qubits), exact mode."""
    rng = np.random.default_rng([seed, 2])
    return [_seeded_case(rng, f"wd{i}", 16, 4) for i in range(4)]


def _fixed_cases() -> list[Case]:
    """Seed-independent cases whose tau equals one of their eigenvalues."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    readme = dict(
        lam=np.array([2.0, 1.0]),
        q=h,
        tau=1.0,
        n_bits=2,
        matrix=np.array([[1.5, 0.5], [0.5, 1.5]]),
    )
    rng = np.random.default_rng(FIXED_SEED)
    fault = dict(
        lam=np.array([7.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 6.0]),
        q=random_orthogonal(rng, 8),
        tau=1.0,
        n_bits=4,
    )
    return [
        Case(name="readme-exact", **readme),
        Case(name="readme-sampled", mode="sampled", sample_seed=7, **readme),
        Case(name="tau-at-eig-exact", **fault),
        Case(name="tau-at-eig-sampled", mode="sampled", sample_seed=11, **fault),
    ]


def cli_sweep(seed: int) -> list[Case]:
    """Dims 2, 4, 8 by n = 2, 3, 4, each exact and sampled, plus fixed cases."""
    rng = np.random.default_rng([seed, 3])
    cases = [
        _seeded_case(rng, f"cs-d{dim}-n{n}-{mode}", dim, n, mode)
        for dim in (2, 4, 8)
        for n in (2, 3, 4)
        for mode in ("exact", "sampled")
    ]
    return cases + _fixed_cases()


WORKLOADS = {
    "wide-register": wide_register,
    "wide-data": wide_data,
    "cli-sweep": cli_sweep,
}
