"""Exact integer linear algebra used by the complex and lattice machinery.

Matrices are rectangular lists of row lists of Python ints, so every result
is exact at arbitrary precision.  Elimination is fraction-free (Bareiss);
there is deliberately no floating-point code path anywhere in this module.
Public functions never mutate their arguments.

``mat_pow`` holds each row of the running power as one Python int, its
entries in fixed-width slots: the row (v_0, ..., v_{n-1}) is the integer
sum v_j * 2^(w*j).  That packing is Z-linear, so one step by A, a packed row
``sum(x * packed[k] for k, x in row)`` over the nonzeros of a row of A, is
exact whatever the slots hold on the way.  Only the final unpack needs room:
with every |entry| below 2^(w-1), adding 2^(w-1) to each slot leaves it in
[0, 2^w), so the slots are the base-2^w digits and nothing borrows.  The
width comes from an exact bound on the entries, |(A^e)_ij| <= (|A|^e 1)_i,
the largest row sum of |A|^e, taken by e sparse matrix-vector steps on |A|.
"""

from __future__ import annotations

from .errors import SubstdynError


class DimensionError(SubstdynError):
    pass


def dims(matrix):
    rows = len(matrix)
    if rows == 0:
        return 0, 0
    cols = len(matrix[0])
    for row in matrix:
        if len(row) != cols:
            raise DimensionError("ragged matrix")
    return rows, cols


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def copy(matrix):
    return [row[:] for row in matrix]


def transpose(matrix):
    rows, cols = dims(matrix)
    return [[matrix[i][j] for i in range(rows)] for j in range(cols)]


def mat_mul(a, b):
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise DimensionError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        row = a[i]
        dest = out[i]
        for k in range(ca):
            entry = row[k]
            if entry:
                brow = b[k]
                for j in range(cb):
                    dest[j] += entry * brow[j]
    return out


def mat_pow(matrix, exponent):
    """A^e, by e steps of A on the left of packed rows (module docstring).

    A step costs one big-int multiply-add per nonzero of A, so a sparse A
    is stepped by, not squared: its squares fill in."""
    rows, cols = dims(matrix)
    if rows != cols:
        raise DimensionError("power of a non-square matrix")
    if exponent < 0:
        raise DimensionError("negative matrix power")
    sparse = [[(k, x) for k, x in enumerate(row) if x] for row in matrix]
    magnitudes = [[(k, abs(x)) for k, x in row] for row in sparse]
    bound = [1] * rows
    for _ in range(exponent):
        bound = [sum(x * bound[k] for k, x in row) for row in magnitudes]
    width = max(bound, default=0).bit_length() + 1
    packed = [1 << (width * i) for i in range(rows)]
    for _ in range(exponent):
        packed = [sum(x * packed[k] for k, x in row) for row in sparse]
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    offset = half * (((1 << (width * rows)) - 1) // mask)
    result = []
    for value in packed:
        value += offset
        out = []
        for _ in range(rows):
            out.append((value & mask) - half)
            value >>= width
        result.append(out)
    return result


def rank(matrix):
    """Rank by fraction-free Gaussian elimination."""
    work = copy(matrix)
    rows, cols = dims(work)
    r = 0
    prev = 1
    for col in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][col]
        for i in range(r + 1, rows):
            factor = work[i][col]
            for j in range(col, cols):
                work[i][j] = (pivot * work[i][j] - factor * work[r][j]) // prev
        prev = pivot
        r += 1
        if r == rows:
            break
    return r


def det(matrix):
    """Determinant by the Bareiss fraction-free algorithm."""
    rows, cols = dims(matrix)
    if rows != cols:
        raise DimensionError("determinant of a non-square matrix")
    if rows == 0:
        return 1
    work = copy(matrix)
    sign = 1
    prev = 1
    for k in range(rows - 1):
        if work[k][k] == 0:
            swap = None
            for i in range(k + 1, rows):
                if work[i][k]:
                    swap = i
                    break
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, rows):
            for j in range(k + 1, rows):
                work[i][j] = (pivot * work[i][j] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = pivot
    return sign * work[rows - 1][rows - 1]


def det_mod(matrix, modulus):
    """``det(matrix) % modulus`` for a prime modulus, by Gaussian
    elimination over GF(modulus): every entry stays below the modulus."""
    rows, cols = dims(matrix)
    if rows != cols:
        raise DimensionError("determinant of a non-square matrix")
    work = [[x % modulus for x in row] for row in matrix]
    result = 1
    for k in range(rows):
        pivot_row = next((i for i in range(k, rows) if work[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            result = -result
        pivot = work[k][k]
        result = result * pivot % modulus
        inverse = pow(pivot, -1, modulus)
        top = work[k]
        for i in range(k + 1, rows):
            factor = work[i][k] * inverse % modulus
            if factor:
                row = work[i]
                for j in range(k + 1, rows):
                    row[j] = (row[j] - factor * top[j]) % modulus
    return result % modulus


def column_lattice_basis(matrix):
    """Basis (as a list of column vectors) of the lattice spanned by the
    columns of `matrix`, via column-style Hermite reduction."""
    rows, cols = dims(matrix)
    work = [[matrix[i][j] for i in range(rows)] for j in range(cols)]  # columns
    basis = []
    placed = {}  # pivot row -> index in basis
    for vec in work:
        lead = 0
        while True:
            # both vectors are zero before the lead, and each step clears
            # vec[lead], so the search resumes there and only tails combine
            lead = next((i for i in range(lead, rows) if vec[i]), None)
            if lead is None:
                break
            idx = placed.get(lead)
            if idx is None:
                placed[lead] = len(basis)
                basis.append(vec)
                break
            pivot = basis[idx]
            a = pivot[lead]
            b = vec[lead]
            if b % a == 0:
                q = b // a
                vec[lead:] = [x - q * y for x, y in zip(vec[lead:], pivot[lead:])]
            else:
                # replace the basis vector by the gcd combination
                g, s, t0 = _egcd(a, b)
                new = [s * x + t0 * y for x, y in zip(pivot[lead:], vec[lead:])]
                vec[lead:] = [(a // g) * y - (b // g) * x
                              for x, y in zip(pivot[lead:], vec[lead:])]
                pivot[lead:] = new
        # keep basis sorted by pivot row for deterministic output
    pivot_rows = list(placed)
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


def express_in_basis(basis, vector):
    """Coefficients x with sum x_k basis_k == vector, exact over the integers.

    `basis` is a list of column vectors with distinct leading rows (as
    produced by column_lattice_basis).  Raises if the vector is outside the
    lattice."""
    vec = list(vector)
    coeffs = [0] * len(basis)
    pivots = [next(i for i, x in enumerate(col) if x) for col in basis]
    for idx in sorted(range(len(basis)), key=lambda k: pivots[k]):
        prow = pivots[idx]
        col = basis[idx]
        q, r = divmod(vec[prow], col[prow])
        if r:
            raise SubstdynError("vector not in lattice")
        coeffs[idx] = q
        if q:
            # the basis vector is zero before its pivot row
            vec[prow:] = [x - q * y for x, y in zip(vec[prow:], col[prow:])]
    if any(vec):
        raise SubstdynError("vector not in lattice")
    return coeffs
