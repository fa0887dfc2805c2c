import random

import pytest

import intlin_oracles as intlin
from substdyn import apcomplex
from substdyn.apcomplex import (build_complex, complex_to_dot, direct_limit,
                                eventual_rank, h1_presentation, induced_map,
                                inverse_limit_presentation)
from substdyn.collar import collar
from substdyn.core import Substitution, parse_substitution
from substdyn.classify import decide_tameness
from substdyn.corpus import CORPUS, sigma_family
from substdyn.errors import SubstdynError, WildInputError
from substdyn.primitivize import primitivize

from conftest import reference_graph_h1
from test_intlin import _unimodular
from test_properties import SUBSTITUTIONS


def snf_probes_equal(a, b):
    """Necessary conditions for GL(n, Z)-conjugacy: equal characteristic
    polynomials and equal Smith forms of the shifts at a few integers."""
    n = len(a)
    if intlin.char_poly(a) != intlin.char_poly(b):
        return False
    for lam in (0, 1, -1, 2):
        shift_a = [[a[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        shift_b = [[b[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        if intlin.diagonal(intlin.smith_normal_form(shift_a)[0]) != \
           intlin.diagonal(intlin.smith_normal_form(shift_b)[0]):
            return False
    return True


def test_fib_handle_complex(fib_handle):
    collared = collar(fib_handle, 1)
    complex_ = build_complex(collared)
    assert len(complex_.edges) == 7
    assert complex_.vertex_count == 5
    assert complex_.component_count == 1
    assert set(complex_.graph.vertex_labels) == {"10", "01", "00", "21", "02"}
    assert complex_.h1_rank() == 3


def test_fib_handle_h1_matrix(fib_handle):
    collared = collar(fib_handle, 1)
    complex_ = build_complex(collared)
    h1 = h1_presentation(complex_, induced_map(collared, complex_))
    assert h1.rank == 3
    assert h1.limit.eventual_rank == 3
    assert h1.limit.unimodular_on_image
    assert h1.limit.group_description == "Z^3"
    assert snf_probes_equal([list(r) for r in h1.matrix],
                            [[1, 1, 0], [1, 2, 0], [1, 1, 1]])


def test_single_loop_circle():
    sub = parse_substitution("a -> aa\n")
    collared = collar(sub, 1)
    complex_ = build_complex(collared)
    assert len(complex_.edges) == 1 and complex_.vertex_count == 1
    h1 = h1_presentation(complex_, induced_map(collared, complex_))
    assert h1.matrix == ((2,),)
    assert h1.limit.eventual_rank == 1
    assert not h1.limit.unimodular_on_image


def test_chacon_fixed_loop(chacon):
    collared = collar(chacon, 1)
    complex_ = build_complex(collared)
    assert len(complex_.edges) == 5
    cell_map = induced_map(collared, complex_)
    assert cell_map.on_edges["b|aba"] == ("b|aba",)


def test_functoriality(fib_handle, chacon):
    for sub in (fib_handle, chacon):
        collared = collar(sub, 1)
        complex_ = build_complex(collared)
        once = h1_presentation(complex_, induced_map(collared, complex_))
        twice = h1_presentation(complex_, induced_map(collared, complex_, power=2))
        assert [list(r) for r in twice.matrix] == intlin.mat_mul(
            [list(r) for r in once.matrix], [list(r) for r in once.matrix])


def test_boundary_of_basis_cycles(fib_handle):
    collared = collar(fib_handle, 1)
    complex_ = build_complex(collared)
    h1 = h1_presentation(complex_, induced_map(collared, complex_))
    graph = complex_.graph
    for cycle in h1.basis:
        boundary = [0] * graph.vertex_count
        for i, e in enumerate(graph.edges):
            if cycle[i]:
                boundary[graph.target[e]] += cycle[i]
                boundary[graph.source[e]] -= cycle[i]
        assert not any(boundary)


def test_eventual_rank_examples():
    assert eventual_rank([[1, 1, 0], [1, 2, 0], [1, 1, 1]])[0] == 3
    rank, unimodular, _ = eventual_rank([[0, 1, 0], [-1, 3, 1], [-1, 1, 1]])
    assert rank == 2
    rank4, uni4, restricted4 = eventual_rank(intlin.identity(4))
    assert rank4 == 4 and uni4 and restricted4 == intlin.identity(4)
    assert eventual_rank([[0, 1], [0, 0]])[0] == 0
    assert direct_limit([[0, 1], [0, 0]]).group_description == "0"


def test_eventual_rank_stability():
    for matrix in ([[1, 1, 0], [1, 2, 0], [1, 1, 1]],
                   [[0, 1, 0], [-1, 3, 1], [-1, 1, 1]],
                   [[2, 0], [0, 0]]):
        squared = intlin.mat_mul(matrix, matrix)
        assert eventual_rank(matrix)[0] == eventual_rank(squared)[0]


def _deficient_matrices(seed, count):
    """Seeded square matrices of deficient rank: products of an n x k and a
    k x n matrix, and unimodular conjugates of a block of a unimodular
    matrix and a nilpotent one, so that both verdicts occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        if rng.random() < 0.5:
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            out.append(intlin.mat_mul(left, right))
            continue
        block = intlin.zeros(n, n)
        unit = _unimodular(rng, k, 3 * k) if k > 1 else [[rng.choice((1, -1))]]
        for i in range(k):
            block[i][:k] = unit[i]
        for i in range(k, n):
            for j in range(i + 1, n):
                block[i][j] = rng.randint(-2, 2)
        # conjugate by elementary matrices E = I + f e_ij: E A adds f times
        # row j to row i, and (E A) E^-1 subtracts f times column i from column j
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            factor = rng.randint(-2, 2)
            block[i] = [a + factor * b for a, b in zip(block[i], block[j])]
            for row in block:
                row[j] -= factor * row[i]
        out.append(block)
    return out


def test_eventual_rank_matches_char_poly_and_power_rank():
    # over Q, A acts invertibly on its eventual image and nilpotently on a
    # complement, so its characteristic polynomial is x^(n - r) times that of
    # the restriction, whose constant term is det(restricted) up to sign
    verdicts = set()
    for matrix in _deficient_matrices(20261019, 150):
        n = len(matrix)
        rank, unimodular, restricted = eventual_rank(matrix)
        assert rank == intlin.rank(intlin.mat_pow(matrix, n)) < n
        lowest = next(c for c in reversed(intlin.char_poly(matrix)) if c)
        assert unimodular == (abs(lowest) == 1), matrix
        assert len(restricted) == rank
        verdicts.add((rank > 0, unimodular))
    assert verdicts == {(True, True), (True, False), (False, True)}


def _random_primitive(rng, letters):
    """Images of length 2-3, as in perfbench's ``alphabet_scale`` pool,
    redrawn until the rule is primitive."""
    alphabet = "abcdefgh"[:letters]
    while True:
        sub = Substitution([(a, tuple(rng.choice(alphabet) for _ in range(rng.choice((2, 3)))))
                            for a in alphabet], alphabet=tuple(alphabet))
        if sub.is_primitive():
            return sub


def _reference_restricted(matrix):
    """The restricted matrix of ``eventual_rank``, from the reference
    kernels and a dense image product."""
    n = len(matrix)
    basis = intlin.reference_column_lattice_basis(intlin.reference_mat_pow(matrix, n))
    images = [[sum(matrix[i][k] * col[k] for k in range(n)) for i in range(n)]
              for col in basis]
    columns = [intlin.reference_express_in_basis(basis, image) for image in images]
    return [[column[i] for column in columns] for i in range(len(basis))]


def test_eventual_rank_equals_the_reference_kernels_on_h1_matrices(monkeypatch):
    # the matrices direct_limit receives for 20 seeded primitive 6-8-letter
    # rules at radius 2: sparse, of size 8-32, and with lattice bases whose
    # gcd combinations reach 80,000 bits
    matrices = []
    monkeypatch.setattr(apcomplex, "direct_limit", matrices.append)
    rng = random.Random(1)
    for _ in range(20):
        collared = collar(_random_primitive(rng, rng.randint(6, 8)), 2)
        complex_ = build_complex(collared)
        h1_presentation(complex_, induced_map(collared, complex_))
    monkeypatch.undo()
    assert len(matrices) == 20
    for matrix in matrices:
        n = len(matrix)
        assert intlin.mat_pow(matrix, n) == intlin.reference_mat_pow(matrix, n)
        restricted = _reference_restricted(matrix)
        assert eventual_rank(matrix)[::2] == (len(restricted), restricted)


def test_inverse_limit_presentations(chacon, fib_handle):
    pres = inverse_limit_presentation(chacon)
    assert pres.collared.radius == 2 and pres.n_sigma == 2
    assert pres.forcing_level == 1
    assert pres.h1.limit.eventual_rank == 2
    pres2 = inverse_limit_presentation(fib_handle)
    assert pres2.collared.radius == 1 and pres2.forcing_level == 1
    assert pres2.h1.limit.eventual_rank == 3
    uniform = inverse_limit_presentation(parse_substitution("a -> abb\nb -> bbb\n"))
    assert uniform.collared.radius == 1 and uniform.forcing_level == 1


def test_inverse_limit_guards(wild_ab):
    with pytest.raises(WildInputError):
        inverse_limit_presentation(wild_ab)


def test_recognisability_flag():
    # evidenced when no periodic point shows up; unknown when one does
    chacon_pres = inverse_limit_presentation(parse_substitution("a -> aaba\nb -> b\n"))
    assert chacon_pres.recognisable == "evidenced"
    mixed = parse_substitution("a -> aa\nb -> aba\nc -> ccd\nd -> cd\ne -> bdecb\n")
    assert inverse_limit_presentation(mixed).recognisable == "unknown"


def test_forgetful_naturality(chacon):
    # the radius-2 complex maps edgewise onto the radius-1 complex,
    # commuting with the cellular maps
    from collar_oracles import forgetful_map
    deep = collar(chacon, 2)
    shallow = collar(chacon, 1)
    mapping = forgetful_map(deep, 1)
    deep_complex = build_complex(deep)
    shallow_complex = build_complex(shallow)
    assert {mapping[e] for e in deep_complex.edges} == set(shallow_complex.edges)
    deep_map = induced_map(deep, deep_complex)
    shallow_map = induced_map(shallow, shallow_complex)
    for e in deep_complex.edges:
        assert tuple(mapping[x] for x in deep_map.on_edges[e]) == \
            shallow_map.on_edges[mapping[e]]


def test_psi_family_ranks():
    for n in (2, 3):
        psi = primitivize(sigma_family(n), depth=3).derived.psi
        pres = inverse_limit_presentation(psi)
        assert pres.h1.limit.eventual_rank == n


def test_exercise_pair_rank_five():
    for text in ("a -> cab\nb -> ac\nc -> a\n", "a -> bbac\nb -> a\nc -> b\n"):
        pres = inverse_limit_presentation(parse_substitution(text))
        assert pres.h1.limit.eventual_rank == 5


def test_dot_export(fib_handle):
    collared = collar(fib_handle, 1)
    complex_ = build_complex(collared)
    dot = complex_to_dot(complex_, {"0|001": "blue"})
    assert dot.startswith("digraph")
    assert 'label="0|001"' in dot and 'color="blue"' in dot
    assert dot.count("->") == 7


def test_h1_presentation_matches_reference():
    # every tame corpus entry and the first 60 seeded tame rules, radius 1
    subs = [entry.substitution() for entry in CORPUS.values()] + SUBSTITUTIONS
    checked = 0
    for sub in subs:
        report = decide_tameness(sub)
        if report.empty_subshift or not report.tame:
            continue
        try:
            collared = collar(sub, 1, max_letters=600)
        except SubstdynError:
            continue
        if not collared.legal:
            continue
        complex_ = build_complex(collared)
        cell_map = induced_map(collared, complex_)
        assert h1_presentation(complex_, cell_map) == \
            reference_graph_h1(complex_.graph, cell_map.on_edges)
        checked += 1
        if checked >= 85:
            break
    assert checked == 85
