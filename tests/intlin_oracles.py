"""Integer linear algebra that only the tests use, as oracles: Smith normal
form, characteristic polynomials and matrix-vector products.

The library functions the tests call are re-exported, so a test imports
this module as ``intlin`` and reaches them and these oracles under one name.
"""

from substdyn.errors import SubstdynError
from substdyn.intlin import (DimensionError, column_lattice_basis, copy, det,  # noqa: F401
                             det_mod, dims, express_in_basis, identity, mat_mul,
                             mat_pow, rank, zeros)


def mat_vec(a, v):
    ra, ca = dims(a)
    if ca != len(v):
        raise DimensionError("vector length mismatch")
    return [sum(a[i][k] * v[k] for k in range(ca)) for i in range(ra)]


def mat_add_scaled(a, b, scale):
    ra, ca = dims(a)
    rb, cb = dims(b)
    if (ra, ca) != (rb, cb):
        raise DimensionError("shape mismatch")
    return [[a[i][j] + scale * b[i][j] for j in range(ca)] for i in range(ra)]


def char_poly(matrix):
    """Coefficients [1, c_{n-1}, ..., c_0] of det(xI - A), leading first.

    Faddeev-LeVerrier recursion; every division is exact over the integers.
    """
    n, cols = dims(matrix)
    if n != cols:
        raise DimensionError("characteristic polynomial of a non-square matrix")
    coeffs = [1]
    m = zeros(n, n)
    c = 1
    for k in range(1, n + 1):
        m = mat_add_scaled(mat_mul(matrix, m), identity(n), c)
        am = mat_mul(matrix, m)
        trace = sum(am[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise SubstdynError("non-exact division in Faddeev-LeVerrier")
        c = q
        coeffs.append(c)
    return coeffs


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, factor):
    m[dst] = [a + factor * b for a, b in zip(m[dst], m[src])]


def _add_col(m, dst, src, factor):
    for row in m:
        row[dst] += factor * row[src]


def smith_normal_form(matrix):
    """Return (D, U, V) with U*A*V = D, D diagonal with d_i | d_{i+1},
    U and V unimodular."""
    d = copy(matrix)
    rows, cols = dims(d)
    u = identity(rows)
    v = identity(cols)
    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                entry = abs(d[i][j])
                if entry and (best is None or entry < best):
                    best = entry
                    pivot = (i, j)
        if pivot is None:
            break
        _swap_rows(d, t, pivot[0])
        _swap_rows(u, t, pivot[0])
        _swap_cols(d, t, pivot[1])
        _swap_cols(v, t, pivot[1])
        while True:
            # clear column t with euclidean row steps
            restart = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    _add_row(d, i, t, -q)
                    _add_row(u, i, t, -q)
                    if d[i][t]:
                        _swap_rows(d, t, i)
                        _swap_rows(u, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    _add_col(d, j, t, -q)
                    _add_col(v, j, t, -q)
                    if d[t][j]:
                        _swap_cols(d, t, j)
                        _swap_cols(v, t, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t]:
                        offender = (i, j)
                        break
                if offender:
                    break
            if offender is None:
                break
            _add_col(d, t, offender[1], 1)
            _add_col(v, t, offender[1], 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return d, u, v


def diagonal(matrix):
    rows, cols = dims(matrix)
    return [matrix[i][i] for i in range(min(rows, cols))]


