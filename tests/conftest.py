import sys

import numpy as np
import pytest

from hyperbulk import operators, quotient, spectral, triangle
from hyperbulk.triangle import GEN_A, GEN_A_INV, GEN_B, GEN_B_INV


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

# Table rows: (p, q, expected |G_1| at s=2). The largest pair runs only
# when RUN_LONG is set; everything else finishes in seconds.
QUOTIENT_ORDERS = {
    (6, 6): 12,
    (8, 4): 16,
    (6, 4): 24,
    (8, 8): 32,
    (6, 5): 60,
    (5, 5): 80,
    (8, 3): 96,
    (8, 6): 96,
    (5, 4): 160,
    (7, 7): 448,
    (7, 3): 504,
    (7, 6): 504,
    (7, 4): 896,
    (8, 5): 2560,
}
QUOTIENT_ORDERS_LONG = {(7, 5): 262080}

EPS = 0.8


def all_models(p, q):
    """The adjacency and every model Hamiltonian h_alpha(kidx) of {p,q} at EPS, by name."""
    nu = {1: p, 2: q, 3: 2}
    out = {"adj": operators.adjacency(p, q)}
    for alpha in (1, 2, 3):
        for kidx in range(1, nu[alpha] + 1):
            out[f"h{alpha}_{kidx}"] = operators.model_hamiltonian(alpha, kidx, EPS, p, q)
    return out


# words that name one element (A^4 = A^-1, A^5 = B^4 = B B^-1 = 1 in {5,4}), real and complex;
# with three in a column the sum's rounding depends on their order within the row: (0.1 + 0.2) + 0.3 != 0.6
DUPLICATES = {
    "real": operators.AlgebraElement({(GEN_A,) * 4: 0.5, (GEN_A_INV,): -0.25, (): 0.1, (GEN_A,) * 5: 0.2,
                                      (GEN_B,) * 4: 0.3}),
    "complex": operators.AlgebraElement({(GEN_A,) * 4: 0.5j, (GEN_A_INV,): 0.25, (): 0.1 + 0.1j,
                                         (GEN_A,) * 5: 0.2 + 0.2j, (GEN_B_INV, GEN_B): 0.3 + 0.3j}),
    "empty": operators.AlgebraElement(),
}


def left_translation(group, t, indices=None):
    """perm[j] indexes g_t x_i for i = indices[j] (every element by default).

    Exact GroupMatrix products reduced mod s^k, looked up in elements.
    """
    gens = triangle.build_generators(group.p, group.q)
    g = gens.token_matrix(t)
    where = {row.tobytes(): i for i, row in enumerate(group.elements.astype(np.int64))}
    perm = []
    for i in range(group.order) if indices is None else indices:
        gx = g @ triangle.word_to_matrix(group.word(i), gens)
        perm.append(where[(triangle.matrix_to_flat(gx) % group.modulus).astype(np.int64).tobytes()])
    return np.array(perm)


def check_layers(tree):
    """tree.layers partition the elements, and the parents of layer j + 1 lie in layer j."""
    layers, n = tree.layers, len(tree.parents)
    assert layers[0] == 0 and layers[-1] == n and np.all(np.diff(layers) > 0)
    depth = np.repeat(np.arange(len(layers) - 1), np.diff(layers))
    assert np.array_equal(depth[tree.parents[1:]], depth[1:] - 1)


def relabelled(perm, new):
    """The tables perm with element x renamed new[x]: the same group, numbered otherwise."""
    out = np.empty_like(perm)
    out[:, new] = new[perm]
    return out


def fixing_0(n, seed=0):
    """A random permutation of range(n) that fixes the identity 0."""
    return np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])


def window_and_factors(ham, **window):
    """eigenpairs_near(ham, **window) and every LU it factored, in order: the shift's is the last."""
    made = []
    factor = spectral._factor

    def recording(*args):
        made.append(factor(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_factor", recording)
        pairs = spectral.eigenpairs_near(ham, **window)
    return pairs, made


def per_element_fill(tree, root, step):
    """value(e) = root and value(x t) = step(value(x), t), one element at a time: the oracle of tree.fill."""
    out = [root]
    for i in range(1, len(tree.parents)):
        out.append(step(out[tree.parents[i]], int(tree.tokens[i])))
    return np.array(out)


@pytest.fixture(scope="session")
def q54_k1():
    return quotient.build_quotient(5, 4, 2, 1)


@pytest.fixture(scope="session")
def q54_k2():
    return quotient.build_quotient(5, 4, 2, 2)


@pytest.fixture(scope="session")
def ball54_r3():
    return triangle.ball_enumerate(5, 4, 3)


@pytest.fixture(scope="session")
def dense_spectrum():
    """dense_spectrum(name, group): read-only exact_spectrum eigenvalues of all_models(p, q)[name].

    Each (quotient, model) pair is diagonalized once per session, so the
    acceptance criteria and the block tests share one dense oracle.
    """
    memo = {}

    def eigenvalues(name, group):
        key = (group.p, group.q, group.s, group.k, name)
        if key not in memo:
            mat = operators.represent_periodic(all_models(group.p, group.q)[name], group)
            memo[key] = spectral.exact_spectrum(mat).eigenvalues
            memo[key].flags.writeable = False
        return memo[key]

    return eigenvalues
