"""Composite electron-nuclear Hilbert space: operators, states, Hamiltonian.

The electron qubit lives in its dressed basis {|+>, |->} (eigenbasis of the
drive) and occupies tensor slot 0; nucleus j (spin-1/2, basis {|up>, |dn>})
occupies slot j+1.  In this fixed ordering the drive splitting couples to
``sigma_z`` = diag(1, -1) and the hyperfine interaction enters through
``sigma_x``, which is the population-difference operator of the lab-frame
qubit levels.

All frequencies are angular (rad/s); fields are tesla.  Types are immutable
and operations are pure functions, safe for concurrent sweep evaluation.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import GYROMAGNETIC_RATIOS

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
NORM_TOL = 1e-12

# distinct SpinSystems whose operators, observables and initial states stay
# cached per process; a sweep reuses one system for every point
SYSTEM_CACHE_SIZE = 8

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# spin-1/2 operators for the nuclei
SPIN_X = 0.5 * SIGMA_X
SPIN_Y = 0.5 * SIGMA_Y
SPIN_Z = 0.5 * SIGMA_Z
SPIN_PLUS = SPIN_X + 1.0j * SPIN_Y
SPIN_MINUS = SPIN_X - 1.0j * SPIN_Y


class DimensionMismatchError(ValueError):
    """Operator or state dimensions do not match."""


@dataclass(frozen=True)
class Nucleus:
    """A spin-1/2 nucleus with secular hyperfine components.

    Parameters
    ----------
    gyromagnetic_ratio : float
        Angular frequency per tesla (rad/s/T).
    hyperfine_x : float
        Transverse hyperfine component A_x (rad/s).
    hyperfine_z : float
        Parallel hyperfine component A_z (rad/s).
    label : str
        Free text, e.g. the isotope name.
    """

    gyromagnetic_ratio: float
    hyperfine_x: float
    hyperfine_z: float
    label: str = ""

    def __post_init__(self):
        for name in ("gyromagnetic_ratio", "hyperfine_x", "hyperfine_z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Nucleus.{name} must be finite")


def nucleus_from_isotope(isotope: str, hyperfine_x: float, hyperfine_z: float,
                         gyromagnetic_ratio: float | None = None) -> Nucleus:
    """Build a Nucleus from the bundled isotope table, optionally overriding gamma."""
    if gyromagnetic_ratio is None:
        try:
            gyromagnetic_ratio = GYROMAGNETIC_RATIOS[isotope]
        except KeyError:
            raise KeyError(
                f"unknown isotope {isotope!r}; known: {sorted(GYROMAGNETIC_RATIOS)}"
            ) from None
    return Nucleus(gyromagnetic_ratio, hyperfine_x, hyperfine_z, label=isotope)


@dataclass(frozen=True)
class SpinSystem:
    """Electron qubit plus N spin-1/2 nuclei under a static field along z.

    ``dimension`` is 2 * 2**N.  The electron occupies tensor slot 0 and
    nucleus j occupies slot j+1; this ordering is fixed and golden files
    depend on it.
    """

    field_z: float
    nuclei: tuple[Nucleus, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "nuclei", tuple(self.nuclei))

    @property
    def n_nuclei(self) -> int:
        return len(self.nuclei)

    @property
    def n_slots(self) -> int:
        return 1 + len(self.nuclei)

    @property
    def dimension(self) -> int:
        return 2 * 2 ** len(self.nuclei)


@dataclass(frozen=True)
class Observable:
    """A Hermitian operator on the composite space, with a display name."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"observable matrix must be square, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) >= HERMITICITY_TOL:
            raise ValueError(f"observable {self.name!r} is not Hermitian within {HERMITICITY_TOL}")
        object.__setattr__(self, "matrix", m)


class QuantumState:
    """A state of the composite system as weighted pure branches.

    rho = sum_b w_b |psi_b><psi_b|: ``QuantumState(weights, vectors)`` (or
    ``mixture``) takes nonnegative weights that sum to 1 and one unit column
    of ``vectors`` per weight, and checks them.  ``pure`` makes a vector one
    branch, and ``from_density`` takes a density matrix's eigendecomposition
    (eigenvalues as weights, eigenvectors as branches), so propagation only
    ever evolves branch vectors.
    """

    def __init__(self, weights, vectors):
        w = np.asarray(weights, dtype=float)
        vs = np.asarray(vectors, dtype=complex)
        if vs.ndim != 2 or vs.shape[1] != w.size:
            raise ValueError("branch vectors must be (dimension, n_branches)")
        if abs(w.sum() - 1.0) >= TRACE_TOL or np.any(w < 0):
            raise ValueError("branch weights must be nonnegative and sum to 1")
        defect = np.max(np.abs(np.linalg.norm(vs, axis=0) - 1.0))
        if defect >= NORM_TOL:
            raise ValueError(f"branch vector norms differ from 1 by {defect:.3g} >= {NORM_TOL}")
        self._branch_weights, self._branch_vectors = w, vs

    @classmethod
    def pure(cls, vector: np.ndarray) -> "QuantumState":
        return cls([1.0], np.asarray(vector, dtype=complex).ravel()[:, None])

    @classmethod
    def from_density(cls, matrix: np.ndarray) -> "QuantumState":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) >= HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian within {HERMITICITY_TOL}")
        tr = np.trace(m).real
        if abs(tr - 1.0) >= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} differs from 1 beyond {TRACE_TOL}")
        vals, vecs = np.linalg.eigh(m)
        if vals[0] < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has an eigenvalue below the tolerance floor")
        # zero-weight branches are kept; clipping the negative rounding
        # may lift the sum above 1 by at most dimension * |floor|
        w = np.clip(vals, 0.0, None)
        return cls(w / w.sum(), vecs)

    @classmethod
    def mixture(cls, weights, vectors) -> "QuantumState":
        """Weighted mixture of pure states: the constructor by its name."""
        return cls(weights, vectors)

    @property
    def dimension(self) -> int:
        return self._branch_vectors.shape[0]

    @property
    def is_pure(self) -> bool:
        return self._branch_weights.size == 1

    @property
    def vector(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("state is not pure: it has more than one branch")
        return self._branch_vectors[:, 0]

    @property
    def branches(self) -> tuple[np.ndarray, np.ndarray]:
        """(weights, vectors): one weight and one unit column per branch."""
        return self._branch_weights, self._branch_vectors

    def density_matrix(self) -> np.ndarray:
        """Materialize the density operator."""
        vs = self._branch_vectors
        return (vs * self._branch_weights) @ vs.conj().T


class InitialStateKind(str, enum.Enum):
    SENSING = "sensing"
    DNP_DCS = "dnp_dcs"
    TOPDNP_PARALLEL = "topdnp_parallel"
    TOPDNP_PERPENDICULAR = "topdnp_perpendicular"


def embed_matrix(local_op: np.ndarray, slot: int, system: SpinSystem) -> np.ndarray:
    """identity (x) ... (x) local_op (x) ... (x) identity, operator at ``slot``
    (0 = electron, j+1 = nucleus j).  No hermiticity requirement."""
    op = np.asarray(local_op, dtype=complex)
    if op.shape != (2, 2):
        raise DimensionMismatchError(f"local operator must be 2x2, got {op.shape}")
    if not 0 <= slot < system.n_slots:
        raise IndexError(f"slot {slot} out of range for {system.n_slots} slots")
    out = np.ones((1, 1), dtype=complex)
    for i in range(system.n_slots):
        out = np.kron(out, op if i == slot else IDENTITY_2)
    return out


def embed_operator(local_op: np.ndarray, slot: int, system: SpinSystem,
                   name: str = "") -> Observable:
    """Embed a single-site Hermitian 2x2 operator at the given tensor slot."""
    return Observable(embed_matrix(local_op, slot, system),
                      name=name or f"local[{slot}]")


def sigma_z_observable(system: SpinSystem) -> Observable:
    return embed_operator(SIGMA_Z, 0, system, name="sigma_z")


def sigma_x_observable(system: SpinSystem) -> Observable:
    return embed_operator(SIGMA_X, 0, system, name="sigma_x")


def nuclear_z_observable(system: SpinSystem, j: int) -> Observable:
    """I_z of nucleus j (1-based, matching the I_z[j] naming)."""
    return embed_operator(SPIN_Z, j, system, name=f"I_z[{j}]")


def nuclear_x_observable(system: SpinSystem, j: int) -> Observable:
    return embed_operator(SPIN_X, j, system, name=f"I_x[{j}]")


def nuclear_frequency(nucleus: Nucleus, field_z: float) -> float:
    """Shifted nuclear frequency gamma*B_z + A_z/2 (rad/s)."""
    return nucleus.gyromagnetic_ratio * field_z + 0.5 * nucleus.hyperfine_z


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only (cached arrays are shared by every caller)."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class _Operators:
    """Embedded operators of one SpinSystem, all read-only.

    ``nuclear_terms[j-1]`` holds nucleus j's two Hamiltonian terms:
    omega_nj * I_z[j] and (sigma_x/2) @ (A_xj * I_x[j] + A_zj * I_z[j]).
    """

    z_half: np.ndarray  # electron sigma_z/2
    sigma_x: np.ndarray  # electron sigma_x
    nuclear_terms: tuple[tuple[np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _operators(system: SpinSystem) -> _Operators:
    z_half = _read_only(embed_matrix(0.5 * SIGMA_Z, 0, system))
    sx = _read_only(embed_matrix(SIGMA_X, 0, system))
    terms = []
    for j, nuc in enumerate(system.nuclei, start=1):
        iz = embed_matrix(SPIN_Z, j, system)
        ix = embed_matrix(SPIN_X, j, system)
        terms.append((
            _read_only(nuclear_frequency(nuc, system.field_z) * iz),
            _read_only(0.5 * sx @ (nuc.hyperfine_x * ix + nuc.hyperfine_z * iz)),
        ))
    return _Operators(z_half=z_half, sigma_x=sx, nuclear_terms=tuple(terms))


def build_hamiltonian(system: SpinSystem, omega_e: float) -> Observable:
    """Rotating-frame Hamiltonian at drive splitting ``omega_e``.

    H = omega_e * sigma_z/2
        + sum_j omega_nj * I_z[j]
        + (sigma_x/2) * sum_j (A_xj * I_x[j] + A_zj * I_z[j])

    The terms are summed in this order, nucleus by nucleus, from operators
    built once per system.
    """
    if not math.isfinite(omega_e):
        raise ValueError("omega_e must be finite")
    ops = _operators(system)
    dim = system.dimension
    h = np.zeros((dim, dim), dtype=complex)
    h += omega_e * ops.z_half
    for zeeman, hyperfine in ops.nuclear_terms:
        h += zeeman
        h += hyperfine
    return Observable(h, name="H")


def expectation(state: QuantumState, obs: Observable) -> float:
    """Tr[rho O]; the imaginary residue is asserted below 1e-10 and dropped."""
    if state.dimension != obs.matrix.shape[0]:
        raise DimensionMismatchError(
            f"state dimension {state.dimension} != observable dimension {obs.matrix.shape[0]}"
        )
    w, vs = state.branches
    value = complex(np.einsum("ib,ij,jb,b->", vs.conj(), obs.matrix, vs, w))
    if abs(value.imag) >= 1e-10:
        raise ValueError(f"expectation value has imaginary residue {value.imag}")
    return value.real


_ELECTRON_VECTORS = {
    # dressed |+> : sensing and DCS polarization start, and the lab-frame
    # transverse ("perpendicular") preparation for the pulse-train protocol
    InitialStateKind.SENSING: np.array([1.0, 0.0], dtype=complex),
    InitialStateKind.DNP_DCS: np.array([1.0, 0.0], dtype=complex),
    InitialStateKind.TOPDNP_PERPENDICULAR: np.array([1.0, 0.0], dtype=complex),
    # lab-frame |1> population state ("parallel" to the static field)
    InitialStateKind.TOPDNP_PARALLEL: np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
}


@functools.lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def initial_state(kind: InitialStateKind | str, system: SpinSystem) -> QuantumState:
    """Electron prepared per ``kind``, nuclei in the maximally mixed state.

    The nuclear identity is expanded over the 2**N basis states as equally
    weighted pure branches |electron> (x) |b>, which propagation handles by
    linearity.  The state is cached per (kind, system) and its arrays are
    read-only.
    """
    electron, dim_n = _ELECTRON_VECTORS[InitialStateKind(kind)], 2 ** system.n_nuclei
    state = QuantumState.mixture(np.full(dim_n, 1.0 / dim_n),
                                 np.kron(electron[:, None], np.eye(dim_n)))
    for array in state.branches:
        _read_only(array)
    return state
