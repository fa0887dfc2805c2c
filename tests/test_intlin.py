import random

import pytest

import intlin_oracles as intlin


def test_smith_normal_form_examples():
    d, _, _ = intlin.smith_normal_form([[2, 1], [1, 1]])
    assert intlin.diagonal(d) == [1, 1]
    d, _, _ = intlin.smith_normal_form([[0, 1, 0], [-1, 3, 1], [-1, 1, 1]])
    assert intlin.diagonal(d) == [1, 1, 0]
    d, _, _ = intlin.smith_normal_form([[0, 0], [0, 0]])
    assert intlin.diagonal(d) == [0, 0]


def test_smith_factorisation_random():
    rng = random.Random(20240501)
    for _ in range(120):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = intlin.smith_normal_form(matrix)
        assert intlin.mat_mul(intlin.mat_mul(u, matrix), v) == d
        assert abs(intlin.det(u)) == 1
        assert abs(intlin.det(v)) == 1
        diag = intlin.diagonal(d)
        nonzero = [x for x in diag if x]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert len(nonzero) == intlin.rank(matrix)
        for i, row in enumerate(d):
            for j, value in enumerate(row):
                assert i == j or value == 0


def test_det_rank_charpoly_examples():
    assert intlin.det([[1, 1, 0], [1, 2, 0], [1, 1, 1]]) == 1
    for n in range(2, 6):
        ones_plus_identity = [[1 + (i == j) for j in range(n)] for i in range(n)]
        assert intlin.rank(ones_plus_identity) == n
    assert intlin.mat_pow([[1, 1], [1, 0]], 2) == [[2, 1], [1, 1]]
    assert intlin.char_poly([[2, 1], [1, 1]]) == [1, -3, 1]
    assert intlin.char_poly([[0, 1], [0, 0]]) == [1, 0, 0]


P61 = 2 ** 61 - 1


def _unimodular(rng, n, steps):
    """A product of elementary matrices: adding a multiple of one row to
    another, and swapping two rows."""
    matrix = intlin.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            matrix[i], matrix[j] = matrix[j], matrix[i]
        else:
            factor = rng.randint(-3, 3)
            matrix[i] = [a + factor * b for a, b in zip(matrix[i], matrix[j])]
    return matrix


def test_det_mod_matches_det():
    rng = random.Random(20261019)
    kinds = {"random": 0, "singular": 0, "unimodular": 0, "wide": 0}
    for _ in range(200):
        n = rng.randint(1, 7)
        kind = rng.choice(sorted(kinds))
        if kind == "random":
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        elif kind == "singular":
            k = rng.randint(0, n - 1)
            left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)]
            right = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            matrix = intlin.mat_mul(left, right) if k else intlin.zeros(n, n)
        elif kind == "unimodular":
            matrix = _unimodular(rng, n, 4 * n) if n > 1 else [[rng.choice((1, -1))]]
        else:
            matrix = [[rng.randint(-2 ** 1100, 2 ** 1100) for _ in range(n)] for _ in range(n)]
        kinds[kind] += 1
        exact = intlin.det(matrix)
        assert intlin.det_mod(matrix, P61) == exact % P61, (kind, matrix)
        if kind == "singular":
            assert exact == 0
        if kind == "unimodular":
            assert abs(exact) == 1
    assert min(kinds.values()) >= 30
    assert intlin.det_mod([], P61) == 1
    assert intlin.det_mod([[P61 + 2]], P61) == 2
    with pytest.raises(intlin.DimensionError):
        intlin.det_mod([[1, 2]], P61)


def test_pow_additivity():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m, k = rng.randint(0, 3), rng.randint(0, 3)
        assert intlin.mat_pow(matrix, m + k) == intlin.mat_mul(
            intlin.mat_pow(matrix, m), intlin.mat_pow(matrix, k))


def test_charpoly_matches_det_shift():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        coeffs = intlin.char_poly(matrix)
        # evaluate det(xI - A) at a few integers against Horner on the coeffs
        for x in (-2, -1, 0, 1, 2, 3):
            shifted = [[x * (i == j) - matrix[i][j] for j in range(n)] for i in range(n)]
            value = 0
            for c in coeffs:
                value = value * x + c
            assert value == intlin.det(shifted)


def test_column_lattice_basis_and_solve():
    basis = intlin.column_lattice_basis([[2, 4], [0, 2]])
    vectors = [[2, 0], [4, 2]]
    for vec in vectors:
        coeffs = intlin.express_in_basis(basis, vec)
        rebuilt = [sum(c * col[i] for c, col in zip(coeffs, basis))
                   for i in range(len(vec))]
        assert rebuilt == vec
    with pytest.raises(Exception):
        intlin.express_in_basis(basis, [1, 0])


def test_dimension_errors():
    with pytest.raises(intlin.DimensionError):
        intlin.mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(intlin.DimensionError):
        intlin.det([[1, 2]])


def _kernel_matrix(rng, n, kind):
    """A square matrix of one of the shapes the packed and sliced kernels
    must handle exactly."""
    big = 10 ** 6
    if kind == "sparse":
        return [[rng.randint(-big, big) if rng.random() < 0.2 else 0 for _ in range(n)]
                for _ in range(n)]
    if kind == "dense":
        return [[rng.randint(0, big) for _ in range(n)] for _ in range(n)]
    if kind == "signed":
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if kind == "rank_deficient":
        k = rng.randint(0, n - 1)
        left = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        return intlin.mat_mul(left, right) if k else intlin.zeros(n, n)
    if kind == "nilpotent":
        # strictly upper triangular, with rows and columns renamed alike
        order = rng.sample(range(n), n)
        upper = [[rng.randint(-big, big) if i < j else 0 for j in range(n)]
                 for i in range(n)]
        return [[upper[order[i]][order[j]] for j in range(n)] for i in range(n)]
    # every entry -1: |A|^e 1 is the exact entry size times n
    return [[-1] * n for _ in range(n)]


KERNEL_KINDS = ("sparse", "dense", "signed", "rank_deficient", "nilpotent", "all_minus_one")


def test_mat_pow_equals_squaring():
    rng = random.Random(20261021)
    cases = 0
    for kind in KERNEL_KINDS:
        for _ in range(60):
            n = rng.randint(1, 8)
            matrix = _kernel_matrix(rng, n, kind)
            for exponent in {0, 1, n, rng.randint(2, 20)}:
                assert intlin.mat_pow(matrix, exponent) == \
                    intlin.reference_mat_pow(matrix, exponent), (kind, exponent, matrix)
                cases += 1
    for exponent in (0, 1, 20):
        assert intlin.mat_pow([], exponent) == intlin.reference_mat_pow([], exponent) == []
    # a 1x1 matrix attains the width bound at every exponent
    for value in (-10 ** 6, -2, -1, 0, 1, 2, 10 ** 6):
        for exponent in range(21):
            assert intlin.mat_pow([[value]], exponent) == [[value ** exponent]]
    assert cases > 1200


def _lattice_cases(rng):
    """Matrices whose column lattice the basis kernel must reproduce:
    powers as ``eventual_rank`` takes them, and rectangular ones."""
    for kind in KERNEL_KINDS:
        for _ in range(60):
            n = rng.randint(1, 7)
            matrix = _kernel_matrix(rng, n, kind)
            yield intlin.reference_mat_pow(matrix, rng.choice((1, n)))
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        yield [[rng.randint(-6, 6) if rng.random() < 0.5 else 0 for _ in range(cols)]
               for _ in range(rows)]
    yield []
    yield intlin.zeros(3, 4)


def test_column_lattice_basis_and_solve_equal_the_reference():
    rng = random.Random(11)
    outside = 0
    for matrix in _lattice_cases(rng):
        basis = intlin.column_lattice_basis(matrix)
        assert basis == intlin.reference_column_lattice_basis(matrix), matrix
        rows, cols = intlin.dims(matrix)
        vectors = [[matrix[i][j] for i in range(rows)] for j in range(cols)]
        for _ in range(3):
            coeffs = [rng.randint(-5, 5) for _ in basis]
            vectors.append([sum(c * col[i] for c, col in zip(coeffs, basis))
                            for i in range(rows)])
            vectors.append([x + rng.choice((0, 1)) for x in vectors[-1]])
        for vector in vectors:
            try:
                want = intlin.reference_express_in_basis(basis, vector)
            except intlin.SubstdynError:
                outside += 1
                with pytest.raises(intlin.SubstdynError, match="vector not in lattice"):
                    intlin.express_in_basis(basis, vector)
                continue
            assert intlin.express_in_basis(basis, vector) == want
    assert outside > 100


@pytest.mark.parametrize("basis, vector", [
    ([[2, 1, 0]], [1, 0, 0]),               # the pivot entry is not divisible
    ([[1, 0, 0], [0, 1, 0]], [1, 1, 5]),    # a residual past the last pivot
    ([[0, 2, 1]], [3, 2, 1])])              # a residual before the first pivot
def test_express_in_basis_rejects_vectors_outside_the_lattice(basis, vector):
    for solve in (intlin.express_in_basis, intlin.reference_express_in_basis):
        with pytest.raises(intlin.SubstdynError, match="vector not in lattice"):
            solve(basis, vector)


def test_mat_pow_rejects_bad_shapes():
    with pytest.raises(intlin.DimensionError):
        intlin.mat_pow([[1, 2]], 2)
    with pytest.raises(intlin.DimensionError):
        intlin.mat_pow([[1]], -1)
