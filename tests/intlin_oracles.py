"""Integer linear algebra that only the tests use, as oracles: Smith normal
form, characteristic polynomials, matrix-vector products, and the plain
list-of-rows forms of the library's direct-limit kernels (``reference_*``:
the matrix power by squaring, the column lattice basis and the solve in it),
which the packed and sliced library kernels must equal exactly.

The library functions the tests call are re-exported, so a test imports
this module as ``intlin`` and reaches them and these oracles under one name.
"""

from substdyn.errors import SubstdynError
from substdyn.intlin import (DimensionError, column_lattice_basis, copy, det,  # noqa: F401
                             det_mod, dims, express_in_basis, mat_mul, mat_pow,
                             rank, zeros)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def reference_mat_pow(matrix, exponent):
    """A^e by repeated squaring through ``mat_mul``."""
    rows, cols = dims(matrix)
    if rows != cols:
        raise DimensionError("power of a non-square matrix")
    if exponent < 0:
        raise DimensionError("negative matrix power")
    result = identity(rows)
    base = copy(matrix)
    e = exponent
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def reference_column_lattice_basis(matrix):
    """Column-style Hermite reduction on full-length vectors, scanning the
    pivot rows for each lead."""
    rows, cols = dims(matrix)
    work = [[matrix[i][j] for i in range(rows)] for j in range(cols)]  # columns
    basis = []
    pivot_rows = []
    for vec in work:
        vec = vec[:]
        while True:
            lead = next((i for i, x in enumerate(vec) if x), None)
            if lead is None:
                break
            placed = False
            for idx, prow in enumerate(pivot_rows):
                if prow == lead:
                    a = basis[idx][lead]
                    b = vec[lead]
                    if b % a == 0:
                        q = b // a
                        vec = [x - q * y for x, y in zip(vec, basis[idx])]
                    else:
                        # replace the basis vector by the gcd combination
                        g, s, t0 = _egcd(a, b)
                        new = [s * x + t0 * y for x, y in zip(basis[idx], vec)]
                        vec = [(a // g) * y - (b // g) * x
                               for x, y in zip(basis[idx], vec)]
                        basis[idx] = new
                    placed = True
                    break
            if not placed:
                basis.append(vec)
                pivot_rows.append(lead)
                break
        # keep basis sorted by pivot row for deterministic output
    order = sorted(range(len(basis)), key=lambda k: pivot_rows[k])
    basis = [basis[k] for k in order]
    pivot_rows.sort()
    # reduce entries above each pivot for a canonical form
    for idx in range(len(basis) - 1, -1, -1):
        prow = pivot_rows[idx]
        pval = basis[idx][prow]
        if pval < 0:
            basis[idx] = [-x for x in basis[idx]]
            pval = -pval
        for other in range(idx):
            q = basis[other][prow] // pval
            if q:
                basis[other] = [x - q * y for x, y in zip(basis[other], basis[idx])]
    return basis


def _egcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def reference_express_in_basis(basis, vector):
    """Coefficients of ``vector`` in ``basis``, subtracting full-length
    vectors."""
    vec = list(vector)
    coeffs = [0] * len(basis)
    pivots = [next(i for i, x in enumerate(col) if x) for col in basis]
    for idx in sorted(range(len(basis)), key=lambda k: pivots[k]):
        prow = pivots[idx]
        q, r = divmod(vec[prow], basis[idx][prow])
        if r:
            raise SubstdynError("vector not in lattice")
        coeffs[idx] = q
        if q:
            vec = [x - q * y for x, y in zip(vec, basis[idx])]
    if any(vec):
        raise SubstdynError("vector not in lattice")
    return coeffs


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


