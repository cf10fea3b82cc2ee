"""Traced memory of the quotient tables and of the periodic operator.

tracemalloc counts numpy's buffers, so a peak above the memory traced at
the start is the largest set of arrays a call held at once.  Building
G_k should hold little beyond the tables it returns, and filling the
periodic CSR little beyond the CSR; single-site KPM on the reflection
orbits less than the full operator takes.  Each bound leaves room for noise
but fails when int64 tables, wide chunk temporaries or a COO copy of
the operator come back.
"""

import os
import tracemalloc

import pytest

from hyperbulk import operators, quotient, spectral

MiB = 2**20


def traced_peak(call, *args, **kwargs):
    """call(*args, **kwargs) and the peak of traced bytes above those traced before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def table_bytes(group):
    """The tables a group holds: the cached ones and the discovery tree derived from gen_perm."""
    return sum(getattr(group, name).nbytes for name in (*quotient._CACHE_ARRAYS, "parents", "tokens"))


def csr_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


@pytest.fixture(scope="module")
def g3():
    return quotient.build_quotient(5, 4, 2, 3)


def test_build_holds_little_beyond_its_tables():
    # 2.0 MiB of tables for 81,920 elements and no element rows, a traced peak of about 2.2 times that,
    # most of it fixed-size chunk temporaries of the cocycle's key pass; 5.6 MiB of rows would break it
    group, peak = traced_peak(quotient.build_quotient, 5, 4, 2, 3)
    assert peak <= 2.5 * table_bytes(group)


@pytest.mark.parametrize("model", ["adj", "h1"])
def test_periodic_operator_holds_little_beyond_its_csr(g3, model):
    # h_1's 8 words name 7 elements (A^4 = A^-1), merged in row e before the fill: 7 entries a row, none summed
    h = operators.adjacency(5, 4) if model == "adj" else operators.model_hamiltonian(1, 1, 0.8, 5, 4)
    mat, peak = traced_peak(operators.represent_periodic, h, g3)
    assert mat.nnz == (4 if model == "adj" else 7) * g3.order
    assert peak <= 1.5 * csr_bytes(mat)


def test_kpm_on_the_reflection_orbits_holds_less_than_the_full_operator(g3):
    # adjacency KPM on G_3, the reflection computed inside: 3.8 MiB folded, 6.6 MiB on the full operator
    vars(g3).pop("reflection", None)
    _, peak = traced_peak(spectral.kpm_dos, operators.adjacency(5, 4), g3)
    assert peak <= 5 * MiB


@pytest.mark.skipif(not os.environ.get("RUN_LONG"), reason="set RUN_LONG")
def test_g4_build_and_operator_fit_their_bounds():
    # {5,4} at k = 4: 5,242,880 elements, 125 MiB of tables, a traced peak near 205 MiB (530 MiB when
    # the lift also filled the 360 MiB of element rows)
    group, peak = traced_peak(quotient.build_quotient, 5, 4, 2, 4, element_cap=2**23)
    assert peak <= 300 * MiB
    mat, peak = traced_peak(operators.represent_periodic, operators.adjacency(5, 4), group)
    assert peak <= 1.2 * csr_bytes(mat)
