import numpy as np
import pytest

from symcone import eigh
from symcone.algebra import Algebra

ALL_ALGEBRAS = [
    Algebra.sym_real(1),
    Algebra.sym_real(2),
    Algebra.sym_real(3),
    Algebra.herm_complex(2),
    Algebra.herm_complex(3),
    Algebra.lorentz(2),
    Algebra.lorentz(4),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture(params=ALL_ALGEBRAS, ids=lambda a: a.spec_string())
def algebra(request):
    return request.param


@pytest.fixture
def eigh_calls(monkeypatch):
    """The batch size of every Jacobi call the test makes, in call order."""
    calls = []
    jacobi_eigh_batch = eigh.jacobi_eigh_batch

    def counting(mats, *args, **kwargs):
        calls.append(len(mats))
        return jacobi_eigh_batch(mats, *args, **kwargs)

    monkeypatch.setattr(eigh, "jacobi_eigh_batch", counting)
    return calls
