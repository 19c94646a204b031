import numpy as np
import pytest

from sphertrans import linalg
from sphertrans.ensembles import random_tuple
from sphertrans.tuples import OperatorTuple

GRID_ENSEMBLES = ("ginibre", "nilpotent", "contraction")


def grid_tuples() -> list:
    """180 tuples: d = 1..4, n = 2..6, three ensembles, three seeds each."""
    return [random_tuple(d, n, [d, n, k], ensemble) for ensemble in GRID_ENSEMBLES
            for d in range(1, 5) for n in range(2, 7) for k in range(3)]


def combination(t, lam) -> np.ndarray:
    """sum_k lam_k T_k by one einsum, apart from the estimators' gemm;
    rows of coefficients give a stack of matrices."""
    return np.einsum("...k,kij->...ij", np.asarray(lam, dtype=np.complex128), t.array)


def hypo_oracle(t, p=np.inf):
    """The batched objective lam rows -> ||sum_k lam_k T_k||_p for
    grid_supremum: numpy's vector p-norm of the singular values, apart
    from the estimators' own evaluation."""
    def objective(lam):
        return np.linalg.norm(np.linalg.svd(combination(t, lam), compute_uv=False),
                              ord=p, axis=-1)
    return objective


def schatten_norm(a, p) -> float:
    """The Schatten p-norm of one matrix: schatten_from_singulars of the
    singular values of its complex128 copy."""
    s = np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    return linalg.schatten_from_singulars(s, p)


def cmat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


def random_matrix(rng, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def random_psd_matrix(rng, n: int) -> np.ndarray:
    g = random_matrix(rng, n)
    s = g @ np.conj(g.T) / n
    return (s + np.conj(s.T)) / 2


@pytest.fixture
def sharp_column():
    """d = 2 pair ([[1,0],[0,0]], [[0,0],[1,0]]) with defect diag(sqrt(2), 0)."""
    return OperatorTuple(matrices=(
        cmat([[1, 0], [0, 0]]),
        cmat([[0, 0], [1, 0]]),
    ))


@pytest.fixture
def diag_pair():
    """d = 2 pair (diag(1,0), diag(0,1)) with identity defect."""
    return OperatorTuple(matrices=(
        cmat([[1, 0], [0, 0]]),
        cmat([[0, 0], [0, 1]]),
    ))
