"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, exact rational arithmetic) so that agreement with the package is
evidence, not tautology.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from qpcasim import Circuit, GateOp, circuit_unitary, hadamard, phase, ry, state_prep_tree


def cphase(theta: float, control: int, target: int) -> GateOp:
    return phase(theta, target, controls=((control, 1),))


def swap(a: int, b: int) -> GateOp:
    m = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    return GateOp(m, (a, b), label="SWAP")


@functools.lru_cache
def bit_reversal(num_qubits: int) -> GateOp:
    """Dense permutation sending the register value j to j with its bits
    reversed, written out entry by entry; built once per width."""
    size = 1 << num_qubits
    m = np.zeros((size, size))
    for j in range(size):
        m[int(format(j, f"0{num_qubits}b")[::-1], 2), j] = 1.0
    return GateOp(m, tuple(range(num_qubits)), label="bit reversal")


def exp_matrices(spec, powers) -> np.ndarray:
    """exp(2*pi*i * A * 2**p / 2**eig_bits) for each p in ``powers``, as one
    (len(powers), dim, dim) stack, from an eigendecomposition of its own."""
    eigvals, eigvecs = np.linalg.eigh(spec.matrix)
    weights = np.left_shift(1, np.asarray(powers, dtype=np.int64))[:, None]
    phases = np.exp(2j * np.pi * eigvals * weights / spec.scale)
    return (eigvecs * phases[:, None, :]) @ eigvecs.T


@functools.lru_cache
def semiclassical_qft_gates(num_qubits: int) -> tuple:
    """The semiclassical QFT (Griffiths & Niu, quant-ph/9511007) without its
    output bit reversal, as n uniformly controlled single-qubit gates, built
    once per width.  Qubit i gets one gate on targets (i+1, ..., n-1, i):
    its block for the value c of qubits i+1 .. n-1 is the Hadamard fused
    with every controlled phase those qubits apply to qubit i,
    diag(1, e^(2 pi i c / 2**(n-i))) H."""
    n, s = num_qubits, 1 / math.sqrt(2)
    gates = []
    for i in range(n):
        phases = np.exp(2j * math.pi * np.arange(1 << (n - 1 - i)) / (1 << (n - i)))
        blocks = np.empty((phases.size, 2, 2), dtype=np.complex128)
        blocks[:, 0, :] = s
        blocks[:, 1, 0] = s * phases
        blocks[:, 1, 1] = -s * phases
        gates.append(GateOp(blocks, tuple(range(i + 1, n)) + (i,), label=f"QFT(qubit {i})"))
    return tuple(gates)


def build_qft(num_qubits: int) -> Circuit:
    """Fourier transform circuit whose matrix is F[j,k] = w^(jk)/sqrt(N):
    the n semiclassical QFT gates, then a dense bit reversal for n > 1.
    The gates are shared; the circuit is new on each call, so callers may
    extend it."""
    circ = Circuit(num_qubits, semiclassical_qft_gates(num_qubits))
    if num_qubits > 1:
        circ.append(bit_reversal(num_qubits))
    return circ


def add_table_matrix(table, k: int) -> np.ndarray:
    """Dense 2**k x 2**k matrix of the table add (c, lam) -> ((c + T[lam])
    mod 2**(k-r), lam), with T of length 2**r, one entry per source value
    c * 2**r + lam."""
    size = len(table)
    mod = (1 << k) // size
    out = np.zeros((1 << k, 1 << k), dtype=complex)
    for c in range(mod):
        for lam in range(size):
            out[((c + int(table[lam])) % mod) * size + lam, c * size + lam] = 1.0
    return out


def gate_matrix(op) -> np.ndarray:
    """The 2**k x 2**k matrix of a GateOp's targets; a (B, d, d) block stack
    becomes the block-diagonal matrix with block j on rows and columns
    j*d .. j*d+d-1, a table T the matrix of its add (``add_table_matrix``),
    a Fourier sign s the DFT with kernel e^(s 2 pi i jk / 2**k)."""
    if op.matrix.ndim == 2:
        return op.matrix
    if op.matrix.ndim == 0:
        dft = dft_matrix(len(op.targets))
        return dft if op.matrix > 0 else dft.conj()
    if op.matrix.ndim == 3:
        blocks, d, _ = op.matrix.shape
        out = np.zeros((blocks * d, blocks * d), dtype=complex)
        for j in range(blocks):
            for r in range(d):
                for c in range(d):
                    out[j * d + r, j * d + c] = op.matrix[j, r, c]
        return out
    return add_table_matrix(op.matrix, len(op.targets))


def simulated_matrix(op) -> np.ndarray:
    """The matrix of an uncontrolled GateOp as the simulator applies it:
    ``circuit_unitary`` of the gate moved onto qubits 0 .. k-1, target i to
    qubit i."""
    wiring = {t: i for i, t in enumerate(op.targets)}
    return circuit_unitary(Circuit(len(op.targets), [op.remap(wiring)]))


def dense_operator(op, num_qubits: int) -> np.ndarray:
    """Full 2**Q x 2**Q matrix of a GateOp, by basis-state enumeration."""
    dim = 1 << num_qubits
    k = len(op.targets)
    matrix = gate_matrix(op)
    full = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        bits = [(src >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        if any(bits[q] != pol for q, pol in op.controls):
            full[src, src] = 1.0
            continue
        col = 0
        for t in op.targets:
            col = (col << 1) | bits[t]
        for row_sub in range(1 << k):
            amp = matrix[row_sub, col]
            if amp == 0:
                continue
            new_bits = list(bits)
            for i, t in enumerate(op.targets):
                new_bits[t] = (row_sub >> (k - 1 - i)) & 1
            dst = 0
            for b in new_bits:
                dst = (dst << 1) | b
            full[dst, src] = amp
    return full


def state_prep_reference(vector, qubits=None, num_qubits=None):
    """Binary-tree state preparation with one multi-controlled Ry per tree
    node, the controls spelling out the path from the root; zero-angle
    nodes are dropped."""
    tree = state_prep_tree(vector)
    m = len(tree.level_angles)
    qubits = tuple(range(m)) if qubits is None else tuple(qubits)
    circ = Circuit(max(qubits) + 1 if num_qubits is None else num_qubits)
    for level, thetas in enumerate(tree.level_angles):
        for node, theta in enumerate(thetas):
            if theta == 0.0:
                continue
            controls = tuple(
                (qubits[b], (node >> (level - 1 - b)) & 1) for b in range(level)
            )
            circ.append(ry(float(theta), qubits[level], controls=controls))
    return circ


def qft_reference(num_qubits: int) -> Circuit:
    """Textbook QFT: per qubit i a Hadamard, then one controlled phase
    2 pi / 2**(j-i+1) from each qubit j > i; then floor(n/2) SWAPs."""
    circ = Circuit(num_qubits)
    for i in range(num_qubits):
        circ.append(hadamard(i))
        for j in range(i + 1, num_qubits):
            circ.append(cphase(2 * np.pi / (1 << (j - i + 1)), control=j, target=i))
    for i in range(num_qubits // 2):
        circ.append(swap(i, num_qubits - 1 - i))
    return circ


def phase_estimation_reference(spec, lam_qubits, target_qubits, num_qubits=None) -> Circuit:
    """Textbook phase estimation: a Hadamard on each register qubit, one
    controlled exp(2 pi i A 2**(n-1-i) / 2**n) per register qubit i, then the
    inverse of ``qft_reference`` on the register.  ``build_phase_estimation``
    equals this circuit."""
    lam_qubits, target_qubits = tuple(lam_qubits), tuple(target_qubits)
    if num_qubits is None:
        num_qubits = max(lam_qubits + target_qubits) + 1
    n = spec.eig_bits
    circ = Circuit(num_qubits)
    for lq in lam_qubits:
        circ.append(hadamard(lq))
    for i, lq in enumerate(lam_qubits):
        circ.append(GateOp(exp_matrices(spec, (n - 1 - i,))[0], target_qubits, controls=((lq, 1),)))
    circ.extend(qft_reference(n).inverse().remap(lam_qubits, num_qubits))
    return circ


def pe_powers(pe, n: int) -> np.ndarray:
    """The (2**n, d, d) stack of V D_b V^T for every register value b, read
    off phase estimation's V^T, phase gate and V, its ops[n:n+3]: the
    unitary phase estimation applies to the targets when the register holds b."""
    to_eigen, powers, from_eigen = (op.matrix for op in pe.ops[n : n + 3])
    phases = powers.reshape(1 << n, -1)
    return (from_eigen * phases[:, None, :]) @ to_eigen


def filter_permutation_matrix(table) -> np.ndarray:
    """Dense |c>|lambda> -> |c + y(lambda) mod 2**n>|lambda> on the joint
    y+lambda register, one entry per source basis state."""
    size = 1 << table.params.n_bits
    dim = size * size
    perm = np.zeros((dim, dim))
    for lam in range(size):
        y = table.y_raw(lam)
        for c in range(size):
            src = c * size + lam
            dst = ((c + y) % size) * size + lam
            perm[dst, src] = 1.0
    return perm


def flip_permutation_matrix(n_bits: int) -> np.ndarray:
    """Dense ancilla flip on (ancilla, y): X on the ancilla wherever y != 0."""
    size = 1 << n_bits
    perm = np.zeros((2 * size, 2 * size))
    for y in range(size):
        for anc in (0, 1):
            src = anc * size + y
            dst = (anc ^ (y != 0)) * size + y
            perm[dst, src] = 1.0
    return perm


def dft_matrix(num_qubits: int) -> np.ndarray:
    """Discrete Fourier matrix F[j, k] = w^(jk) / sqrt(N), element by element."""
    size = 1 << num_qubits
    out = np.empty((size, size), dtype=complex)
    for j in range(size):
        for k in range(size):
            out[j, k] = np.exp(2j * np.pi * j * k / size) / np.sqrt(size)
    return out


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(rng, num_qubits: int) -> np.ndarray:
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return v / np.linalg.norm(v)


def newton_reciprocal_fraction(lam: int, iters: int, frac_bits: int) -> int:
    """Exact-rational Newton reciprocal, rounded once at the end.

    Returns the raw fixed-point integer round(z_p * 2**frac_bits), with the
    same power-of-two seed the package uses.  ``round`` on a Fraction rounds
    half to even, matching float rounding semantics.
    """
    if lam < 1:
        raise ValueError("lam must be a positive integer")
    seed_exp = (lam - 1).bit_length()  # ceil(log2(lam)) for integers
    z = Fraction(1, 1 << seed_exp)
    for _ in range(iters):
        z = 2 * z - z * z * lam
    return round(z * (1 << frac_bits))


def matrix_with_spectrum(rng, lams) -> np.ndarray:
    """Symmetrised Q diag(lams) Q^T for a random orthogonal Q drawn from rng."""
    dim = len(lams)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diagonal(r))
    mat = (q * np.asarray(lams)) @ q.T
    return 0.5 * (mat + mat.T)


def random_integer_spectrum_matrix(rng, dim: int, n_bits: int, tau: float):
    """Random symmetric matrix with integer eigenvalues in [0, 2**n_bits),
    at least one of them above tau.  Returns (matrix, eigenvalues)."""
    top = 1 << n_bits
    while True:
        lams = rng.integers(0, top, size=dim)
        if lams.max() > tau and lams.max() > 0:
            break
    return matrix_with_spectrum(rng, lams), np.sort(lams)[::-1].astype(float)
