"""Fixed calibration computations that time how fast the machine runs now.

The benchmark times a calibration kernel after every timed run and divides
a pass's time by the mean calibration time of the same run. On a shared
host the machine's speed drifts by tens of percent over minutes; a ratio of
two times taken over the same stretch of time cancels that drift, while a
change to dcspin moves only the numerator: the kernels use numpy and plain
Python only, never dcspin.

The drift is not the same for all code. A slow spell can double the time
of work on 64-dimensional states while small-matrix work, bound by Python
and numpy call overhead, keeps its speed, and the other way round. So there
are two kernels, and each workload is divided by the one whose work
resembles its own:

- ``narrow``: Kronecker products, 16x16 Hermitian eigendecompositions,
  exponentials built from them, ``matrix_power``, ``einsum`` and a scalar
  Python loop, as in sweeps of one or two nuclei.
- ``wide``: 64x64 Hermitian eigendecompositions, a 64x32 state update and
  the expectation-value ``einsum`` over 32 branches, as in propagating a
  cluster of five nuclei.
"""
from __future__ import annotations

import math
import time

import numpy as np

NARROW_DIM = 16
NARROW_REPS = 100
WIDE_DIM = 64
WIDE_BRANCHES = 32
WIDE_REPS = 6
WIDE_SAMPLES = 8

_rng = np.random.default_rng(20231110)


def _hermitian(dim: int) -> np.ndarray:
    a = _rng.standard_normal((dim, dim)) + 1j * _rng.standard_normal((dim, dim))
    return a + a.conj().T


_H_NARROW = _hermitian(NARROW_DIM)
_SZ = np.diag([0.5, -0.5]).astype(complex)
_SZ_SZ = np.kron(np.kron(_SZ, _SZ), np.eye(NARROW_DIM // 4))
_H_WIDE = _hermitian(WIDE_DIM)
_PSI_WIDE = np.linalg.qr(_rng.standard_normal((WIDE_DIM, WIDE_BRANCHES)) + 0j)[0]
_WEIGHTS_WIDE = np.full(WIDE_BRANCHES, 1.0 / WIDE_BRANCHES)


def narrow() -> float:
    """Small-matrix work; returns a value that depends on all of it."""
    acc = 0.0
    for k in range(NARROW_REPS):
        h = _H_NARROW + (1.0 + 1e-3 * k) * np.kron(_SZ, np.kron(_SZ, np.eye(NARROW_DIM // 4)))
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        acc += np.einsum("ij,ji->", np.linalg.matrix_power(u, 7), _SZ_SZ).real
        for i in range(300):
            acc += math.sin(i * 1e-2) * math.cos(k * 1e-2)
    return acc


def wide() -> float:
    """Work on a 64-dimensional state of 32 branches; returns a value that depends on all of it."""
    acc = 0.0
    psi = _PSI_WIDE
    for k in range(WIDE_REPS):
        w, v = np.linalg.eigh(_H_WIDE * (1.0 + 1e-3 * k))
        psi = ((v * np.exp(-1j * w)) @ v.conj().T) @ psi
        for _ in range(WIDE_SAMPLES):
            acc += np.einsum("ib,ij,jb,b->", psi.conj(), _H_WIDE, psi, _WEIGHTS_WIDE).real
    return acc


KERNELS = {"narrow": narrow, "wide": wide}


def timed(kernel: str) -> float:
    """Seconds one run of the named calibration kernel takes now."""
    fn = KERNELS[kernel]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
