import importlib

import qpcasim

# builders no pipeline path ran; the filter's gate budget lives in
# cost_proposed(n, m).per_block["filter"], the exponentials are
# V D_b V^T of build_phase_estimation's V^T, D and V.  The DFT (build_qft),
# its semiclassical gates, the exponential stack (_exp_matrices), swap and
# cphase are test references now (tests/helpers.py); circuits concatenate
# as Circuit(n, a.ops + b.ops), and state prep checks its blocks without
# GateOp.stack.  A gate keeps no inverse (dagger builds one on each call)
# and no kernel plan, and builders keeps no Fourier gate per register: a
# prepared input's slot alone keeps built gates.  One size limit,
# pipeline.MAX_LIVE_AMPS, replaces the qubit and eig-bits caps; QpcaConfig
# alone checks the run parameters, and sim.ROUNDOFF is the one round-off
# floor.  A gate has no controls: a controlled-U is a block stack with I in
# every block but one.  The Newton iteration count follows from the precision.
# A gate's targets are a range of qubits: the kernel needs no transpose plan
# or bit matrix, GateOp.first replaces min_qubit, and any other wiring,
# remap included, is a test reference (tests/helpers.py), as are
# circuit_unitary, pauli_x and phase.  Phase estimation puts a Fourier
# gate on its register, so builders needs no Hadamard.
DELETED = (
    "build_qft_adder",
    "count_filter_gates",
    "matrix_exponential_unitary",
    "build_qft",
    "swap",
    "cphase",
    "__add__",
    "_exp_matrices",
    "stack",
    "keep_inverse",
    "_plans",
    "MAX_QUBITS",
    "MAX_EIG_BITS",
    "RunSpec",
    "MIN_OUTCOME_PROB",
    "controls",
    "_normalize_controls",
    "newton_iters",
    "remap",
    "circuit_unitary",
    "pauli_x",
    "phase",
    "_rows_plan",
    "_keys_plan",
    "_wiring",
    "min_qubit",
    "_register_gates",
    "_inverse",
)


def test_every_exported_name_resolves():
    assert len(set(qpcasim.__all__)) == len(qpcasim.__all__)
    for name in qpcasim.__all__:
        assert getattr(qpcasim, name) is not None, name


def test_deleted_builders_are_gone():
    for name in DELETED:
        assert name not in qpcasim.__all__
        assert not hasattr(qpcasim, name)
        owners = [
            importlib.import_module(f"qpcasim.{mod}")
            for mod in ("sim", "builders", "filtering", "pipeline", "cli")
        ]
        classes = [qpcasim.Circuit, qpcasim.GateOp, qpcasim.FilterParams]
        assert not any(hasattr(owner, name) for owner in owners + classes)
    assert not hasattr(importlib.import_module("qpcasim.builders"), "hadamard")
