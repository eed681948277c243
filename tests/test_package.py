import qpcasim

# builders no pipeline path ran; the filter's gate budget lives in
# cost_proposed(n, m).per_block["filter"], the exponentials are
# V D_b V^T of build_phase_estimation(...).ops[n:n+3].  The DFT (build_qft),
# its semiclassical gates, the exponential stack (_exp_matrices), swap and
# cphase are test references now (tests/helpers.py); circuits concatenate
# as Circuit(n, a.ops + b.ops), and state prep checks its blocks without
# GateOp.stack
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
)


def test_every_exported_name_resolves():
    assert len(set(qpcasim.__all__)) == len(qpcasim.__all__)
    for name in qpcasim.__all__:
        assert getattr(qpcasim, name) is not None, name


def test_deleted_builders_are_gone():
    for name in DELETED:
        assert name not in qpcasim.__all__
        assert not hasattr(qpcasim, name)
        owners = [getattr(qpcasim, mod) for mod in ("sim", "builders", "filtering")]
        assert not any(hasattr(owner, name) for owner in owners + [qpcasim.Circuit, qpcasim.GateOp])
