import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcspin import (
    Nucleus,
    Observable,
    QuantumState,
    SpinSystem,
    angular_from_khz,
    angular_from_mhz,
    build_hamiltonian,
    embed_operator,
    expectation,
    initial_state,
    nuclear_frequency,
)
from dcspin.dynamics import standard_observables
from dcspin.spincore import (
    DimensionMismatchError,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    SPIN_X,
    SPIN_Z,
    _operators,
    nuclear_x_observable,
    nuclear_z_observable,
    sigma_x_observable,
    sigma_z_observable,
)

TWO_PI = 2 * np.pi


def one_nucleus_system(gamma=1.0, ax=0.0, az=0.0, field=1.0):
    return SpinSystem(field_z=field, nuclei=(Nucleus(gamma, ax, az),))


# ---------------------------------------------------------------------------
# embed_operator
# ---------------------------------------------------------------------------

def test_embed_identity_any_slot():
    system = one_nucleus_system()
    for slot in (0, 1):
        npt.assert_array_equal(embed_operator(IDENTITY_2, slot, system).matrix, np.eye(4))


def test_embed_sigma_z_slot0():
    system = one_nucleus_system()
    npt.assert_array_equal(embed_operator(SIGMA_Z, 0, system).matrix,
                           np.diag([1, 1, -1, -1]).astype(complex))


def test_embed_nuclear_z_slot1():
    system = one_nucleus_system()
    npt.assert_array_equal(embed_operator(SPIN_Z, 1, system).matrix,
                           np.diag([0.5, -0.5, 0.5, -0.5]).astype(complex))


def test_embed_errors():
    system = one_nucleus_system()
    with pytest.raises(IndexError):
        embed_operator(SIGMA_Z, 2, system)
    with pytest.raises(DimensionMismatchError):
        embed_operator(np.eye(3), 0, system)


def test_embed_disjoint_slots_commute(rng):
    system = SpinSystem(field_z=0.0, nuclei=(Nucleus(1, 0, 0), Nucleus(1, 0, 0)))
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = a + a.conj().T
        b = b + b.conj().T
        ea = embed_operator(a, 0, system).matrix
        eb = embed_operator(b, 2, system).matrix
        npt.assert_allclose(ea @ eb - eb @ ea, 0, atol=1e-12 * np.abs(a).max() * np.abs(b).max())


# ---------------------------------------------------------------------------
# nuclear_frequency
# ---------------------------------------------------------------------------

def test_nuclear_frequency_carbon_table_value():
    # tabulated 13C gamma lands within ~4e-4 of the 10.713 MHz reference
    nuc = Nucleus(angular_from_mhz(10.7084), 0.0, angular_from_khz(17.09))
    assert nuclear_frequency(nuc, 1.0) == pytest.approx(angular_from_mhz(10.713), rel=5e-4)


def test_nuclear_frequency_proton():
    nuc = Nucleus(angular_from_mhz(42.5775), 0.0, angular_from_khz(0.5))
    assert nuclear_frequency(nuc, 0.35) == pytest.approx(angular_from_mhz(14.9), rel=2e-4)


def test_nuclear_frequency_zero_case():
    assert nuclear_frequency(Nucleus(123.0, 5.0, 0.0), 0.0) == 0.0


def test_nuclear_frequency_linearity(rng):
    for _ in range(10):
        gamma, az, b1, b2 = rng.uniform(0.1, 10, size=4)
        n1 = Nucleus(gamma, 0.0, az)
        assert nuclear_frequency(n1, b1 + b2) == pytest.approx(
            nuclear_frequency(n1, b1) + nuclear_frequency(n1, b2) - nuclear_frequency(n1, 0.0))
        n2 = Nucleus(gamma, 0.0, 2 * az)
        assert (nuclear_frequency(n2, b1) - nuclear_frequency(Nucleus(gamma, 0, 0), b1)
                ) == pytest.approx(az)


# ---------------------------------------------------------------------------
# build_hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_bare_qubit():
    system = SpinSystem(field_z=1.0, nuclei=())
    omega = 2.5e6
    npt.assert_allclose(build_hamiltonian(system, omega).matrix,
                        omega * np.diag([0.5, -0.5]), atol=0)


def test_hamiltonian_free_precession():
    system = one_nucleus_system(gamma=7.0, field=2.0)
    h = build_hamiltonian(system, 0.0).matrix
    npt.assert_allclose(h, 14.0 * np.diag([0.5, -0.5, 0.5, -0.5]), atol=0)


def test_hamiltonian_matches_hand_assembly(carbon_system, carbon_rabi):
    """Independent oracle: the 4x4 matrix built from literal Kronecker blocks."""
    nuc = carbon_system.nuclei[0]
    omega_n = nuc.gyromagnetic_ratio * carbon_system.field_z + nuc.hyperfine_z / 2
    ax, az, we = nuc.hyperfine_x, nuc.hyperfine_z, carbon_rabi
    # basis |+up>, |+dn>, |-up>, |-dn>
    expected = np.array([
        [we / 2 + omega_n / 2, 0, az / 4, ax / 4],
        [0, we / 2 - omega_n / 2, ax / 4, -az / 4],
        [az / 4, ax / 4, -we / 2 + omega_n / 2, 0],
        [ax / 4, -az / 4, 0, -we / 2 - omega_n / 2],
    ], dtype=complex)
    h = build_hamiltonian(carbon_system, carbon_rabi).matrix
    npt.assert_allclose(h, expected, atol=1e-9)


def _kron_hamiltonian(system, omega_e):
    """Reference: every operator re-embedded with np.kron, terms summed in
    build_hamiltonian's order."""
    def embed(op, slot):
        out = np.ones((1, 1), dtype=complex)
        for i in range(system.n_slots):
            out = np.kron(out, op if i == slot else IDENTITY_2)
        return out

    h = np.zeros((system.dimension, system.dimension), dtype=complex)
    h += omega_e * embed(0.5 * SIGMA_Z, 0)
    sx = embed(SIGMA_X, 0)
    for j, nuc in enumerate(system.nuclei, start=1):
        iz, ix = embed(SPIN_Z, j), embed(SPIN_X, j)
        h += nuclear_frequency(nuc, system.field_z) * iz
        h += 0.5 * sx @ (nuc.hyperfine_x * ix + nuc.hyperfine_z * iz)
    return h


_RATE = st.floats(-1e8, 1e8, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(nuclei=st.lists(st.builds(Nucleus, _RATE, _RATE, _RATE), max_size=3),
       field=st.floats(0.0, 10.0), omega_e=_RATE)
def test_hamiltonian_equals_kron_construction(nuclei, field, omega_e):
    system = SpinSystem(field_z=field, nuclei=tuple(nuclei))
    for _ in range(2):  # cold, then from the cached operators
        assert np.array_equal(build_hamiltonian(system, omega_e).matrix,
                              _kron_hamiltonian(system, omega_e))


def test_cached_operators_and_states_are_read_only(carbon_system):
    ops = _operators(carbon_system)
    arrays = [ops.z_half, ops.sigma_x, *(a for pair in ops.nuclear_terms for a in pair)]
    for kind in ("sensing", "topdnp_parallel"):
        for system in (carbon_system, SpinSystem(field_z=1.0)):
            weights, vectors = initial_state(kind, system).branches
            arrays += [weights, vectors]
    arrays.append(initial_state("sensing", SpinSystem(field_z=1.0)).vector)
    arrays += [o.matrix for o in standard_observables(carbon_system)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert initial_state("sensing", carbon_system) is initial_state("sensing",
                                                                     carbon_system)


def test_hamiltonian_hermitian_random(rng):
    for _ in range(10):
        nuclei = tuple(Nucleus(*rng.uniform(-10, 10, size=3)) for _ in range(2))
        system = SpinSystem(field_z=rng.uniform(0, 2), nuclei=nuclei)
        h = build_hamiltonian(system, rng.uniform(-5, 5)).matrix
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_hamiltonian_no_hyperfine_commutes_with_z_operators():
    system = SpinSystem(field_z=1.3, nuclei=(Nucleus(3.0, 0, 0), Nucleus(5.0, 0, 0)))
    h = build_hamiltonian(system, 0.7).matrix
    for obs in [sigma_z_observable(system), nuclear_z_observable(system, 1),
                nuclear_z_observable(system, 2)]:
        npt.assert_allclose(h @ obs.matrix - obs.matrix @ h, 0, atol=1e-12)


# ---------------------------------------------------------------------------
# expectation and states
# ---------------------------------------------------------------------------

def test_expectation_eigenstate(carbon_system):
    state = initial_state("sensing", carbon_system)
    assert expectation(state, sigma_z_observable(carbon_system)) == pytest.approx(1.0)


def test_expectation_maximally_mixed(carbon_system):
    state = QuantumState.from_density(np.eye(4) / 4)
    assert expectation(state, sigma_z_observable(carbon_system)) == pytest.approx(0.0, abs=1e-14)


def test_expectation_unpolarized_nucleus(carbon_system):
    state = initial_state("sensing", carbon_system)
    assert expectation(state, nuclear_z_observable(carbon_system, 1)) == pytest.approx(0.0, abs=1e-14)


def test_expectation_identity_on_random_density(rng, carbon_system):
    identity = embed_operator(IDENTITY_2, 0, carbon_system)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        state = QuantumState.from_density(rho)
        assert expectation(state, identity) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch(carbon_system):
    state = QuantumState.pure(np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        expectation(state, sigma_z_observable(carbon_system))


def test_initial_state_kinds(carbon_system):
    sensing = initial_state("sensing", carbon_system)
    assert np.trace(sensing.density_matrix()).real == pytest.approx(1.0)
    assert expectation(sensing, sigma_z_observable(carbon_system)) == pytest.approx(1.0)
    assert expectation(sensing, nuclear_z_observable(carbon_system, 1)) == pytest.approx(0.0)

    # the lab-frame population state is the +1 eigenstate of the
    # population-difference operator, which is sigma_x in the fixed basis
    parallel = initial_state("topdnp_parallel", carbon_system)
    assert expectation(parallel, sigma_x_observable(carbon_system)) == pytest.approx(1.0)
    assert expectation(parallel, sigma_z_observable(carbon_system)) == pytest.approx(0.0, abs=1e-14)

    perp = initial_state("topdnp_perpendicular", carbon_system)
    npt.assert_allclose(perp.density_matrix(), sensing.density_matrix(), atol=0)

    bare = initial_state("sensing", SpinSystem(field_z=1.0, nuclei=()))
    assert bare.is_pure
    npt.assert_allclose(bare.density_matrix(), np.diag([1.0, 0.0]), atol=0)


def test_density_validation():
    with pytest.raises(ValueError):
        QuantumState.from_density(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        QuantumState.from_density(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValueError):
        QuantumState.from_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        QuantumState.pure(np.array([1.0, 1.0]))  # norm sqrt(2)


def test_mixture_matches_density(carbon_system):
    state = initial_state("dnp_dcs", carbon_system)
    weights, vectors = state.branches
    rebuilt = (vectors * weights) @ vectors.conj().T
    npt.assert_allclose(rebuilt, np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), atol=1e-15)


def test_observable_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Observable(np.array([[0, 1], [0, 0]], dtype=complex), name="bad")


def test_nuclear_x_observable_name(carbon_system):
    assert nuclear_x_observable(carbon_system, 1).name == "I_x[1]"
    assert nuclear_z_observable(carbon_system, 1).name == "I_z[1]"
