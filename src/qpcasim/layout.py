"""Qubit assignment for the filtered-PCA circuit.

The register order, most significant bit first, is

    [ancilla | y: n qubits | lambda: n qubits | data: m qubits]

so a basis index splits as  anc * 2**(2n+m) + y * 2**(n+m) + lam * 2**m + x.
The first half of the data register (the row index of the encoded matrix) is
the target of phase estimation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RegisterLayout:
    eig_bits: int
    data_qubits: int

    def __post_init__(self):
        if self.eig_bits < 1:
            raise ValueError("eig_bits must be >= 1")
        if self.data_qubits < 1:
            raise ValueError("data_qubits must be >= 1")

    @property
    def num_qubits(self) -> int:
        return 1 + 2 * self.eig_bits + self.data_qubits

    @property
    def work_qubits(self) -> int:
        """Qubits above the data register: the ancilla, y and lambda."""
        return 1 + 2 * self.eig_bits

    def split(self, index):
        """Register values (ancilla, y, lambda, data) of basis-state indices,
        given as an integer or an integer array."""
        n, m = self.eig_bits, self.data_qubits
        reg = (1 << n) - 1
        x = index & ((1 << m) - 1)
        return index >> (2 * n + m), (index >> (n + m)) & reg, (index >> m) & reg, x

    @property
    def ancilla(self) -> int:
        return 0

    @property
    def y_reg(self) -> tuple[int, ...]:
        return tuple(range(1, 1 + self.eig_bits))

    @property
    def lambda_reg(self) -> tuple[int, ...]:
        return tuple(range(1 + self.eig_bits, 1 + 2 * self.eig_bits))

    @property
    def data_reg(self) -> tuple[int, ...]:
        return tuple(range(self.work_qubits, self.num_qubits))

    @property
    def u_reg(self) -> tuple[int, ...]:
        """Row half of the data register; needs an even data qubit count."""
        if self.data_qubits % 2:
            raise ValueError("data register must have an even number of qubits")
        return self.data_reg[: self.data_qubits // 2]
