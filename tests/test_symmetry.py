"""Symmetry algebra computation, orbits, scans, witnesses, obstruction."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubes import catalog, symmetry
from tubes.fields import VectorField, lie_bracket, linear_combination, minors_scan, rank_at
from tubes.linalg import kernel_basis, rref_rows
from tubes.poly import (MultiPoly, linear_pivot, merge_vars, poly_sum, tangency_rows,
                        variable_keys)
from tubes.scalars import GaussianRational
from tubes.symmetry import (ComplexLine, Hypersurface, LieAlgebraPresentation,
                            _chart_system, _residuals,
                            affine_symmetry_algebra, expand_in_fields,
                            is_nilpotent,
                            line_in_domain_check,
                            non_nilpotent_transitive_obstruction,
                            open_orbit_report, scan_covers_subspace,
                            subalgebra_scan, verify_transitivity_witness)

import reference as ref
from oracles import (chart_rows_from_solution, dense_structure, first_written_pivot,
                     frozen_scan_chart, jacobi_holds, random_poly, realify,
                     tangency_multiplier)

XV = ("x1", "x2", "x3", "x4")
X1, X2, X3, X4 = (MultiPoly.var(XV, n) for n in XV)


def surf(fid):
    return catalog.get(fid).payload


def algebra(fid):
    return affine_symmetry_algebra(surf(fid))


DIMENSIONS = {
    "surface.table.1p": 7,
    "surface.table.1m": 7,
    "surface.table.2.sphere": 6,
    "surface.table.3": 5,
    "surface.table.4.a0": 4,
    "surface.table.4.a112": 4,
    "surface.table.4.a1": 4,
    "surface.table.5": 4,
    "surface.table.6": 4,
}


@pytest.mark.parametrize("fid,expected", sorted(DIMENSIONS.items()))
def test_symmetry_dimensions(fid, expected):
    assert algebra(fid).dim == expected


def test_hyperplane_symmetry_dimension():
    plane = Hypersurface(X4, (Fraction(0),) * 4)
    assert affine_symmetry_algebra(plane).dim == 16


def test_symmetry_output_is_tangent_and_closed():
    for fid in ("surface.table.3", "surface.table.6"):
        s = surf(fid)
        alg = algebra(fid)
        alg.verify()
        for field in alg.basis:
            assert tangency_multiplier(field, s.defining) is not None


def test_sphere_algebra_equals_rotation_span():
    alg = algebra("surface.table.2.sphere")
    rotations = catalog.get("basis.rotations.sphere").payload.fields
    assert alg.dim == 6
    for rot in rotations:
        assert expand_in_fields([rot], alg.basis)[0] is not None
    for b in alg.basis:
        assert expand_in_fields([b], rotations)[0] is not None


def _sparse(dense):
    """The sparse form of a dense tensor: entry (i, j) lists the pairs
    (k, c) with c = dense[i][j][k] != 0."""
    return tuple(tuple(tuple((k, c) for k, c in enumerate(entry) if c) for entry in row)
                 for row in dense)


def _retensored(alg, dense):
    return LieAlgebraPresentation(alg.basis, _sparse(dense))


def test_verify_rejects_a_one_sided_entry():
    alg = algebra("surface.table.3")
    alg.verify()
    t = dense_structure(alg.structure)
    assert t[0][1][3] == -1 and t[1][0][3] == 1
    t[0][1][3] = 1
    with pytest.raises(AssertionError, match="structure tensor is not antisymmetric"):
        _retensored(alg, t).verify()


def test_verify_rejects_an_antisymmetric_change_that_breaks_jacobi():
    alg = algebra("surface.table.3")
    dim = alg.dim
    for i, j, l in itertools.product(range(dim), repeat=3):
        if i < j:
            t = dense_structure(alg.structure)
            t[i][j][l] += 1
            t[j][i][l] -= 1
            if not jacobi_holds(t):
                break
    else:
        pytest.fail("no single antisymmetric change breaks Jacobi")
    with pytest.raises(AssertionError, match="Jacobi identity fails on the tensor"):
        _retensored(alg, t).verify()


def test_verify_rejects_a_rescaled_basis_field():
    alg = algebra("surface.table.3")
    assert alg.structure[0][1] == ((3, -1),)
    doubled = LieAlgebraPresentation(
        (linear_combination([2], alg.basis[:1]),) + alg.basis[1:], alg.structure)
    with pytest.raises(AssertionError, match=r"structure tensor wrong at \(0,1\)"):
        doubled.verify()


def test_verify_brackets_its_own_basis(monkeypatch):
    """verify brackets every pair of basis fields itself, whether the
    tensor was solved for (from_fields) or read off the kernel vectors."""
    alg = algebra("surface.table.3")
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return lie_bracket(x, y)

    monkeypatch.setattr(symmetry, "lie_bracket", counting)
    solved = LieAlgebraPresentation.from_fields(alg.basis)
    calls.clear()
    for presentation in (alg, solved):
        presentation.verify()
    assert len(calls) == alg.dim * (alg.dim - 1)


HYPERSURFACES = ("surface.quadric.half", "surface.table.1m", "surface.table.1p",
                 "surface.table.2.cubic", "surface.table.2.sphere", "surface.table.3",
                 "surface.table.4.a0", "surface.table.4.a1", "surface.table.4.a112",
                 "surface.table.4.am1", "surface.table.5", "surface.table.6",
                 "surface.tube.6.realified")


def test_hypersurfaces_names_every_catalogued_hypersurface():
    assert sorted(fid for fid in catalog.list_ids("surface.*")
                  if catalog.get(fid).kind == "hypersurface") == list(HYPERSURFACES)


@pytest.mark.parametrize("fid", HYPERSURFACES)
def test_affine_structure_equals_the_tensor_solved_from_the_fields(fid):
    """The tensor read off the kernel vectors is the one from_fields solves
    for, entry types included (repr tells an int from a Fraction)."""
    alg = algebra(fid)
    assert repr(alg.structure) == repr(LieAlgebraPresentation.from_fields(alg.basis).structure)


def _assert_canonical(structure):
    """Entry (i, j) lists (k, c) by ascending k, each c a nonzero int, or
    a Fraction that is not integral; (j, i) is its negation, (i, i) is ()."""
    dim = len(structure)
    assert all(len(row) == dim for row in structure)
    for i, j in itertools.product(range(dim), repeat=2):
        entry = structure[i][j]
        ks = [k for k, _ in entry]
        assert ks == sorted(set(ks)) and all(0 <= k < dim for k in ks), (i, j)
        for _, c in entry:
            assert c and (type(c) is int or type(c) is Fraction and c.denominator != 1), (i, j)
        assert structure[j][i] == tuple((k, -c) for k, c in entry), (i, j)
    assert all(structure[i][i] == () for i in range(dim))


FIELD_BASES = ("basis.Z.C", "basis.Z.D") + tuple(catalog.list_ids("basis.half_pseudo_ball.*"))


def test_field_bases_include_both_half_pseudo_balls():
    assert len(FIELD_BASES) == 4


@pytest.mark.parametrize("source", HYPERSURFACES + FIELD_BASES)
def test_structure_tensor_is_in_canonical_sparse_form(source):
    if source in FIELD_BASES:
        alg = LieAlgebraPresentation.from_fields(catalog.get(source).payload.fields)
    else:
        alg = algebra(source)
    assert alg.dim > 1
    _assert_canonical(alg.structure)


def _affine_fields(vectors, names):
    """The field x -> A x + b of each vector (A row-major, then b, then c)."""
    n = len(names)
    xs = [MultiPoly.var(names, v) for v in names]
    return [VectorField(names, tuple(
        sum((x * a for x, a in zip(xs, vec[n * i:n * i + n]) if a),
            MultiPoly.const(names, vec[n * n + i])) for i in range(n))) for vec in vectors]


def test_affine_structure_reads_fractional_coordinates():
    """sl2 as H' = 2 x1 d/dx1 - 2 x2 d/dx2, X = x2 d/dx1, Y = x1 d/dx2:
    [H', X] = -4 X, an int, [X, Y] = -H'/2, a Fraction, and each tensor entry
    is from_fields'."""
    vectors = [[2, 0, 0, -2, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]]
    structure = symmetry._affine_structure(vectors, 2)
    assert structure[1][2] == ((0, Fraction(-1, 2)),)
    assert structure[0][1] == ((1, -4),) and type(structure[0][1][0][1]) is int
    _assert_canonical(structure)
    solved = LieAlgebraPresentation.from_fields(_affine_fields(vectors, ("x1", "x2")))
    assert repr(structure) == repr(solved.structure)
    LieAlgebraPresentation(solved.basis, structure).verify()


def test_affine_structure_of_zero_and_one_dimensional_spans():
    assert symmetry._affine_structure([], 2) == () == LieAlgebraPresentation.from_fields(
        []).structure
    euler = [[1, 0, 0, 1, 0, 0, 2]]  # x1 d/dx1 + x2 d/dx2, multiplier 2
    assert symmetry._affine_structure(euler, 2) == (((),),)
    LieAlgebraPresentation(tuple(_affine_fields(euler, ("x1", "x2"))), (((),),)).verify()


def test_a_span_that_is_not_bracket_closed_raises_the_closure_error():
    with pytest.raises(RuntimeError, match=r"closure failure: \[B_0, B_1\] is outside the span"):
        symmetry._affine_structure([[0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]], 2)
    with pytest.raises(ValueError, match="nonzero at no column of its own"):
        symmetry._affine_structure([[0, 1, 0, 0, 0, 0, 0]] * 2, 2)


@pytest.mark.parametrize("fid", ["surface.table.3", "surface.quadric.half"])
def test_a_kernel_minus_one_vector_fails_exactly_where_from_fields_does(fid, monkeypatch):
    """Dropping one kernel vector leaves a span whose brackets may leave it:
    affine_symmetry_algebra then raises its closure RuntimeError (an engine
    fault) at the pair at which from_fields refuses the same fields as bad
    input, with a ValueError, and otherwise gives the same tensor."""
    full = algebra(fid).basis
    kernel_basis = symmetry.linalg.kernel_basis
    outcomes = []
    for drop in range(len(full)):
        monkeypatch.setattr(symmetry.linalg, "kernel_basis",
                            lambda m: [v for i, v in enumerate(kernel_basis(m)) if i != drop])
        try:
            want = LieAlgebraPresentation.from_fields(full[:drop] + full[drop + 1:]).structure
        except ValueError as exc:
            with pytest.raises(RuntimeError) as got:
                algebra(fid)
            pair = str(exc).removeprefix("the basis is not closed under bracket: ")
            assert str(got.value) == f"closure failure: {pair}; this indicates a bug in the " \
                "basis computation" and pair.endswith("is outside the span")
            outcomes.append("open")
        else:
            assert algebra(fid).structure == want
            outcomes.append("closed")
    assert {"open", "closed"} <= set(outcomes)


def test_verify_jacobi_agrees_with_dense_oracle():
    """On random sparse antisymmetric tensors over zero fields, whose
    bracket identity always holds, verify fails exactly when the dense
    Jacobi sum does not vanish."""
    outcomes = set()
    for seed in range(60):
        rng = random.Random(seed)
        dim = rng.randint(3, 6)
        t = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for _ in range(rng.randint(1, dim)):
            i, j = rng.sample(range(dim), 2)
            c = rng.choice((-2, -1, 1, 2))
            l = rng.randrange(dim)
            t[i][j][l], t[j][i][l] = c, -c
        zero = VectorField(XV, (MultiPoly.zero(XV),) * 4)
        alg = LieAlgebraPresentation((zero,) * dim, _sparse(t))
        holds = jacobi_holds(t)
        outcomes.add(holds)
        if holds:
            alg.verify()
        else:
            with pytest.raises(AssertionError, match="Jacobi identity fails on the tensor"):
                alg.verify()
    assert outcomes == {True, False}


def test_expand_in_basis_examples():
    zb = list(catalog.get("basis.Z.D").payload.fields)
    alg = LieAlgebraPresentation.from_fields(zb)
    coeffs = expand_in_fields([zb[3]], alg.basis)[0]
    assert list(coeffs) == [GaussianRational(int(i == 3)) for i in range(10)]
    br = lie_bracket(zb[2], zb[9])
    coeffs = expand_in_fields([br], alg.basis)[0]
    expected = [GaussianRational(0)] * 10
    expected[8] = GaussianRational(-2)
    assert list(coeffs) == expected


def test_expand_absent():
    alg = algebra("surface.table.2.sphere")
    d1 = VectorField(XV, (MultiPoly.const(XV, 1),) + (MultiPoly.zero(XV),) * 3)
    assert expand_in_fields([d1], alg.basis)[0] is None


def _field(variables, **comps):
    return VectorField(variables, tuple(comps.get(v, MultiPoly.zero(variables))
                                        for v in variables))


def test_is_nilpotent_fixtures():
    av = ("a", "b", "c")
    a, b, c = (MultiPoly.var(av, n) for n in av)
    heis = [_field(av, a=b), _field(av, b=c), _field(av, a=c)]
    nil, dims = is_nilpotent(LieAlgebraPresentation.from_fields(heis))
    assert nil and dims == (3, 1, 0)

    one = MultiPoly.const(av, 1)
    abelian = [_field(av, a=one), _field(av, b=one)]
    nil, dims = is_nilpotent(LieAlgebraPresentation.from_fields(abelian))
    assert nil and dims == (2, 0)

    zb = list(catalog.get("basis.Z.D").payload.fields)
    pair = LieAlgebraPresentation.from_fields([zb[0], zb[3]])  # [Z1, Z4] = -Z4
    nil, dims = is_nilpotent(pair)
    assert not nil and dims[-1] == dims[-2] == 1


def _series_dims_oracle(structure):
    """The lower central series dimensions of a structure tensor, from
    dense Fraction brackets and the reference rank, one basis of each term kept
    by plain Gauss-Jordan (reference.rref)."""
    dense = dense_structure(structure)
    dim = len(dense)
    current = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    dims = [dim]
    while True:
        brackets = [[sum((v[j] * dense[i][j][k] for j in range(dim)), Fraction(0))
                     for k in range(dim)] for i in range(dim) for v in current]
        rank = ref.rank(brackets)
        dims.append(rank)
        if rank in (0, dims[-2]):
            return rank == 0, tuple(dims)
        current = ref.rref(brackets)[0][:rank]


def _upper_triangular_tensor(rng, dim):
    """A random sparse tensor with c_ij^k = 0 unless k > max(i, j): its
    brackets only raise the index, so its series reaches 0."""
    upper = {}
    for i, j in itertools.combinations(range(dim), 2):
        upper[i, j] = tuple((k, rng.choice([1, -2, Fraction(1, 3)]))
                            for k in range(j + 1, dim) if rng.random() < 0.4)
    return symmetry._antisymmetric(dim, upper)


def test_is_nilpotent_series_matches_the_fraction_oracle():
    for fid in ("basis.Z.D", "basis.Z.C"):
        alg = LieAlgebraPresentation.from_fields(catalog.get(fid).payload.fields)
        assert is_nilpotent(alg) == _series_dims_oracle(alg.structure), fid
    rng = random.Random(3307)
    field = VectorField(("a",), (MultiPoly.zero(("a",)),))
    for _ in range(40):
        dim = rng.randint(1, 7)
        structure = _upper_triangular_tensor(rng, dim)
        alg = LieAlgebraPresentation((field,) * dim, structure)
        nil, dims = is_nilpotent(alg)
        assert nil and (nil, dims) == _series_dims_oracle(structure)


def test_open_orbit_report_case6():
    s = surf("surface.table.6")
    rep = open_orbit_report(algebra("surface.table.6"), s,
                            [(1, 0, 0, 1), (1, 1, 0, 0), (1, 0, 0, 0)])
    assert rep.probes[0].rank == 4 and rep.probes[0].open_orbit
    assert rep.probes[1].rank == 4
    assert rep.probes[2].rejected is not None
    assert rep.determinant is not None


def test_open_orbit_report_sphere():
    s = surf("surface.table.2.sphere")
    rep = open_orbit_report(algebra("surface.table.2.sphere"), s, [(2, 0, 0, 0)])
    assert rep.all_minors_zero
    assert rep.verdict.startswith("no open orbits")


def test_open_orbit_case1_probe():
    s = surf("surface.table.1p")
    rep = open_orbit_report(algebra("surface.table.1p"), s, [(0, 0, 0, 1)])
    assert rep.probes[0].rank == 4


def test_orbit_report_basis_independent():
    rng = random.Random(99)
    s = surf("surface.table.6")
    alg = algebra("surface.table.6")
    probes = [(1, 0, 0, 1), (1, 1, 0, 0)]
    base = open_orbit_report(alg, s, probes)
    # random invertible rational change of basis
    dim = alg.dim
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        if len(rref_rows(m)) == dim:
            break
    new_fields = [linear_combination(row, alg.basis) for row in m]
    changed = LieAlgebraPresentation.from_fields(new_fields)
    rep2 = open_orbit_report(changed, s, probes)
    assert [r.open_orbit for r in base.probes] == [r.open_orbit for r in rep2.probes]
    assert base.all_minors_zero == rep2.all_minors_zero


def _solved(scan):
    return [c for c in scan.charts if c.status == "solved"]


def test_scan_case3():
    alg = algebra("surface.table.3")
    scan = subalgebra_scan(alg, 4)
    assert len(scan.charts) == 5
    solved = _solved(scan)
    assert all(c.closure_verified for c in solved)
    # every solved family is either nowhere of full rank or has
    # determinant proportional to the defining polynomial
    s = surf("surface.table.3")
    for chart in solved:
        minors = _family_minors(alg, chart.rows, s)
        if all(m.is_zero() for m in minors):
            continue
        from tubes.linalg import poly_div_exact
        quotient = poly_div_exact(minors[0], s.defining.with_vars(minors[0].vars))
        assert all(v not in s.variables for v in quotient.used_vars())
    # unresolved charts surfaced, never dropped
    assert len(scan.unresolved) + len(solved) + \
        len([c for c in scan.charts if c.status == "empty"]) == 5


def _family_minors(alg, rows, s):
    tvars = rows[0][0].vars
    universe = merge_vars(s.variables, tvars)
    fields = []
    for row in rows:
        comps = [MultiPoly.zero(universe) for _ in s.variables]
        for l, entry in enumerate(row):
            if entry.is_zero():
                continue
            e = entry.with_vars(universe)
            for ci, comp in enumerate(alg.basis[l].components):
                comps[ci] = comps[ci] + comp.with_vars(universe) * e
        fields.append(VectorField(s.variables, tuple(comps)))
    return minors_scan(fields)


def test_scan_abelian_every_subspace_closes():
    av = ("a", "b", "c")
    abelian = [_field(av, **{v: MultiPoly.const(av, 1)}) for v in av]
    alg = LieAlgebraPresentation.from_fields(abelian)
    scan = subalgebra_scan(alg, 2)
    assert all(c.status == "solved" for c in scan.charts)
    # full chart families: every chart variable stays free
    assert all(not c.solution for c in scan.charts)


def test_scan_recovers_half_domain_subalgebra():
    alg = algebra("surface.table.1m")
    scan = subalgebra_scan(alg, 5)
    fx = catalog.get("basis.half_pseudo_ball.1m")
    rows = []
    for f in fx.payload.fields:
        c = expand_in_fields([f], alg.basis)[0]
        assert c is not None
        rows.append(list(c))
    assert scan_covers_subspace(scan, rows)


def test_scan_permuted_basis_same_subspaces():
    alg = algebra("surface.table.3")
    scan_a = subalgebra_scan(alg, 4)
    perm = [2, 0, 3, 4, 1]
    permuted = LieAlgebraPresentation.from_fields([alg.basis[i] for i in perm])
    scan_b = subalgebra_scan(permuted, 4)
    # sample solved subspaces of A and re-express them in B's coordinates
    rng = random.Random(8)
    for chart in _solved(scan_a):
        for _ in range(2):
            values = {v: GaussianRational(rng.randint(-3, 3)) for v in chart.free_vars}
            sampled = [[entry.eval_at(values).re for entry in row] for row in chart.rows]
            # coordinates w.r.t. permuted basis
            reexpressed = [[row[i] for i in perm] for row in sampled]
            assert scan_covers_subspace(scan_b, reexpressed)


def _unimodular(rng, n):
    """A seeded n x n integer matrix with entries in -2..2 and
    determinant 1 or -1, an element of GL_n(Z)."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        # the determinant by fraction elimination
        work, det = [[Fraction(x) for x in row] for row in a], Fraction(1)
        for c in range(n):
            r = next((r for r in range(c, n) if work[r][c]), None)
            if r is None:
                det = 0
                break
            if r != c:
                work[c], work[r], det = work[r], work[c], -det
            det *= work[c][c]
            for r in range(c + 1, n):
                f = work[r][c] / work[c][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
        if abs(det) == 1:
            return a


SMALL_HYPERSURFACES = sorted(f for f in catalog.list_ids("surface.*")
                             if catalog.get(f).kind == "hypersurface"
                             and len(surf(f).variables) <= 5)


def _affine_changes(s, rng):
    """Three seeded changes x = A y + b of the surface s, A in GL_n(Z),
    each sending a random integer point y0 to the basepoint: a triple
    (A, b, the hypersurface P(A y + b) = 0 with basepoint y0) per change."""
    names, p = s.variables, s.defining
    out = []
    for _ in range(3):
        a = _unimodular(rng, len(names))
        y0 = [rng.randint(-2, 2) for _ in names]
        b = [x - sum(c * y for c, y in zip(row, y0)) for x, row in zip(s.basepoint, a)]
        images = {v: poly_sum(names, [MultiPoly.const(names, bi),
                                      *(MultiPoly.var(names, w) * c for w, c in zip(names, row))])
                  for v, row, bi in zip(names, a, b)}
        out.append((a, b, Hypersurface(p.subs_poly(images), tuple(y0))))
    return out


@pytest.mark.parametrize("fid", SMALL_HYPERSURFACES)
def test_symmetry_dimension_and_series_survive_affine_changes_and_negation(fid):
    """Metamorphic relations: for P(x) = 0 and y with x = A y + b, A in
    GL_n(Z), the surface P(A y + b) = 0 has an isomorphic affine symmetry
    algebra, and so has -P = 0; neither the dimension nor the lower
    central series may move. Three seeded changes per surface, each
    sending a random integer point y0 to the basepoint."""
    s = surf(fid)
    expected = algebra(fid)
    expected = (expected.dim, is_nilpotent(expected))
    changed = [Hypersurface(-s.defining, s.basepoint)]
    changed += [t for _, _, t in _affine_changes(s, random.Random(fid))]
    for t in changed:
        alg = affine_symmetry_algebra(t)
        assert (alg.dim, is_nilpotent(alg)) == expected, (fid, t.defining)


# the surfaces whose algebra has an open orbit at some seeded probe below:
# all but the two of table 2, whose `orbits` reports find none
OPEN_ORBITS = set(SMALL_HYPERSURFACES) - {"surface.table.2.cubic", "surface.table.2.sphere"}


@pytest.mark.parametrize("fid", SMALL_HYPERSURFACES)
def test_rank_at_follows_a_probe_through_affine_changes(fid):
    """Metamorphic relation: x = A y + b carries the affine symmetry
    algebra of P to that of P(A y + b), so the rank of the fields at a
    probe p equals the rank of the changed surface's fields at
    A^-1 (p - b); an open-orbit probe keeps its open orbit. Seeded integer
    probes and the basepoint, under the three changes of the dimension
    test."""
    s = surf(fid)
    n = len(s.variables)
    basis = algebra(fid).basis
    rng = random.Random(fid + ".probes")
    probes = [list(s.basepoint)] + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(6)]
    ranks = [rank_at(basis, p) for p in probes]
    assert (n in ranks) == (fid in OPEN_ORBITS)
    for a, b, changed in _affine_changes(s, random.Random(fid)):
        moved = affine_symmetry_algebra(changed).basis
        for p, rank in zip(probes, ranks):
            work, _ = ref.rref([row + [x - bi] for row, x, bi in zip(a, p, b)])
            y = [row[n] for row in work]
            assert [sum(c * yj for c, yj in zip(row, y)) + bi for row, bi in zip(a, b)] == p
            assert changed.point_on_surface(y) == s.point_on_surface(p)
            assert rank_at(moved, y) == rank, (fid, p, y)


@pytest.mark.parametrize("fid", sorted(f for f in catalog.list_ids("surface.*")
                                       if catalog.get(f).kind == "hypersurface"))
def test_tangency_rows_match_the_reference_on_the_catalog(fid):
    _assert_tangency_rows_match_the_reference(surf(fid).defining)


def test_tangency_rows_match_the_reference_on_random_polynomials():
    """Rational coefficients, one-term polynomials and a constant term."""
    rng = random.Random(43)
    for _ in range(60):
        names = ("a", "b", "c", "d")[:rng.randint(1, 4)]
        _assert_tangency_rows_match_the_reference(
            random_poly(rng, names, max_degree=3, max_terms=rng.choice((1, 2, 6))))


def _assert_tangency_rows_match_the_reference(p):
    """tangency_rows(p) holds the rows of the reference's matrix, in
    another order: one row per monomial of the real polynomials x_j
    dP/dx_i, dP/dx_i and -P, their coefficients canonical, so the same
    values of the same types and the same kernel."""
    got = tangency_rows(p)
    n = len(p.vars)
    real = {e: (re, 0) for e, (re, _) in ref.poly(p).items() if re}
    gradient = [ref.diff(real, i) for i in range(n)]
    columns = [ref.mul(ref.var(n, j), gradient[i]) for i in range(n) for j in range(n)]
    columns += gradient + [ref.scale(real, -1)]
    monomials = {e for column in columns for e in column}
    want = [[ref.canonical(column.get(e, ref.ZERO)[0]) for column in columns]
            for e in monomials]

    def typed(rows):
        return sorted(tuple((x, type(x).__name__) for x in row) for row in rows)

    assert typed(got) == typed(want)
    assert kernel_basis(got) == ref.kernel(want)


# names whose string order differs from their index order
PICK_VARS = ("t0_2", "t0_10", "t1_3", "t0_1", "t10_0")
PICK_UNITS = [tuple(int(i == j) for i in range(len(PICK_VARS))) for j in range(len(PICK_VARS))]


def _pivot(e):
    """linear_pivot on the real part of e, its key checked and dropped:
    (name, c) or None, in the form first_written_pivot gives."""
    pick = linear_pivot(e.re_terms, e.vars)
    if pick is None:
        return None
    name, key, c = pick
    assert key == variable_keys(e.vars)[e.vars.index(name)]
    return name, GaussianRational(c)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.one_of(st.sampled_from(PICK_UNITS),
                                 st.tuples(*[st.integers(0, 2)] * len(PICK_VARS))),
                       st.integers(-3, 3).filter(bool), max_size=6))
def test_linear_pivot_matches_first_written_rule(terms):
    e = MultiPoly(PICK_VARS, terms)
    assert _pivot(e) == first_written_pivot(e)


def test_linear_pivot_uses_string_order():
    t = {v: MultiPoly.var(PICK_VARS, v) for v in PICK_VARS}
    assert _pivot(t["t0_2"] + t["t0_10"] * 3) == ("t0_10", GaussianRational(3))
    assert _pivot(t["t0_2"] * 5 + t["t0_10"] * t["t1_3"] + t["t0_10"]) == \
        ("t0_2", GaussianRational(5))
    assert _pivot(t["t0_2"] * t["t0_2"] + t["t0_10"] * t["t1_3"]) is None


def test_linear_pivot_sees_a_variable_again_at_another_exponent():
    # exponents 1 and 2 share no bit, so each exponent field must be
    # tested for nonzero, not AND-ed with the fields seen before
    t = {v: MultiPoly.var(PICK_VARS, v) for v in PICK_VARS}
    assert _pivot(t["t0_1"] + t["t0_1"] ** 2 * t["t1_3"]) is None
    assert _pivot(t["t0_1"] * 2 + t["t0_10"] + t["t0_10"] ** 2) == \
        ("t0_1", GaussianRational(2))


def _dense_bracket(structure, u, v, zero):
    dim = len(structure)
    return [sum((u[i] * v[j] * structure[i][j][k] for i in range(dim) for j in range(dim)),
                zero) for k in range(dim)]


def test_bracket_coords_against_dense_sum_and_evaluation():
    rng = random.Random(3)
    vs = ("a", "b", "c")
    zero = MultiPoly.zero(vs)
    dense = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for k in range(4):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            dense[i][j][k], dense[j][i][k] = c, -c
    algebras = [algebra(fid) for fid in ("surface.table.1m", "surface.quadric.half")]
    algebras.append(LieAlgebraPresentation((None,) * 4, _sparse(dense)))
    for alg in algebras:
        for _ in range(4):
            u, v = ([random_poly(rng, vs, complex_coeffs=True) if rng.random() < 0.7
                     else zero for _ in range(alg.dim)] for _ in range(2))
            w = alg.bracket_coords(u, v)
            assert w == _dense_bracket(dense_structure(alg.structure), u, v, zero)
            for _ in range(3):
                point = {n: GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                             rng.randint(-2, 2)) for n in vs}
                scalar = alg.bracket_coords([x.eval_at(point) for x in u],
                                            [x.eval_at(point) for x in v])
                assert [x.eval_at(point) for x in w] == scalar


def _assert_chart_systems_match_generic(alg):
    """_chart_system gives the generic residuals of the chart rows, in
    order and term for term, for every chart of every k."""
    m = alg.dim
    for k in range(1, m):
        for pivots in itertools.combinations(range(m), k):
            nonpivots = [j for j in range(m) if j not in pivots]
            tvars = tuple(f"t{a}_{j}" for a in range(k) for j in nonpivots)
            rows = [[MultiPoly.const(tvars, int(j == p)) if j in pivots
                     else MultiPoly.var(tvars, f"t{a}_{j}") for j in range(m)]
                    for a, p in enumerate(pivots)]
            fast = _chart_system(alg, pivots, tvars)
            generic = _residuals(alg, pivots, tvars, rows)
            assert all(e.vars == tvars and e.is_real() for e in generic)
            assert fast == [e.re_terms for e in generic], (k, pivots)


SCAN_SURFACES = sorted(f for f in catalog.list_ids("surface.*")
                       if catalog.get(f).kind == "hypersurface" and "realified" not in f)


def test_scan_surfaces_are_the_twelve_table_and_quadric_surfaces():
    assert len(SCAN_SURFACES) == 12


@pytest.mark.parametrize("fid", SCAN_SURFACES)
def test_chart_system_equals_generic_residuals(fid):
    _assert_chart_systems_match_generic(algebra(fid))


def _random_tensor_algebra(seed, m=6):
    """A presentation of no fields over a seeded random tensor:
    antisymmetric, sparse, with Fraction constants; Jacobi does not matter."""
    rng = random.Random(seed)
    dense = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        for k in range(m):
            if rng.random() < 0.4:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                dense[i][j][k], dense[j][i][k] = c, -c
    return LieAlgebraPresentation((None,) * m, _sparse(dense))


@pytest.mark.parametrize("seed", [0, 1])
def test_chart_system_equals_generic_residuals_on_a_random_tensor(seed):
    _assert_chart_systems_match_generic(_random_tensor_algebra(seed))


def _chart_printout(chart):
    """Every field of a ChartOutcome in printed form, with the type of
    every coefficient part of its polynomials."""
    polys = [*chart.residual, *(p for _, p in chart.solution), *(p for r in chart.rows for p in r)]
    return (chart.pivots, chart.status, chart.free_vars, chart.closure_verified,
            [str(e) for e in chart.residual], [(v, str(p)) for v, p in chart.solution],
            [[str(p) for p in row] for row in chart.rows],
            [type(x) for p in polys for _, re, im in p.sorted_terms() for x in (re, im)])


def _assert_scan_equals_frozen_loop(alg):
    """_scan_chart on term dicts gives, for every chart of every k, the
    ChartOutcome of the frozen MultiPoly loop, field for field and
    residual string for residual string."""
    m = alg.dim
    for k in range(1, m):
        for pivots in itertools.combinations(range(m), k):
            chart = symmetry._scan_chart(alg, k, pivots)
            frozen = frozen_scan_chart(alg, k, pivots)
            assert chart == frozen, (k, pivots)
            assert _chart_printout(chart) == _chart_printout(frozen), (k, pivots)


@pytest.mark.parametrize("fid", SCAN_SURFACES)
def test_scan_equals_the_frozen_multipoly_loop(fid):
    _assert_scan_equals_frozen_loop(algebra(fid))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_equals_the_frozen_multipoly_loop_on_a_random_tensor(seed):
    _assert_scan_equals_frozen_loop(_random_tensor_algebra(seed))


# SHA-256 of each scan, over its charts in order: pivots, status, sorted
# solution strings, residual strings and closure flag. The benchmark runs
# none of these scans. The digests were computed at commit fb86230, the
# scan before the one-sweep pivot pick and the batched bracket solve.
SCAN_DIGESTS = {
    ("surface.table.1m", 3): "a9b75d785ff8cffe4ef28dd86753ad82ead3862dcd660c21430cdb66647ccebc",
    ("surface.table.5", 3): "5a43efd70ab81e7bf65c4c88bc164bbe593485eed30c487dc84d891c7ebc7612",
    ("surface.table.6", 3): "5c709d1de350a12695948af2afaa41dbf960554f77da4429c19e52caf8c7c155",
}


@pytest.mark.parametrize("fid,k", sorted(SCAN_DIGESTS))
def test_scan_golden_digest(fid, k):
    lines = []
    for c in subalgebra_scan(algebra(fid), k).charts:
        solution = sorted(f"{name}={value}" for name, value in c.solution)
        residual = [str(e) for e in c.residual]
        lines.append(f"{c.pivots}|{c.status}|{solution}|{residual}|{c.closure_verified}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SCAN_DIGESTS[fid, k]


# the five scans of the algebra-scan benchmark workload
BENCH_SCANS = (("surface.table.1m", 5), ("surface.table.1p", 3), ("surface.table.3", 3),
               ("surface.table.2.sphere", 4), ("surface.quadric.half", 4))


@pytest.mark.parametrize("fid,k", BENCH_SCANS + tuple(sorted(SCAN_DIGESTS)))
def test_chart_rows_equal_their_rebuild_from_the_solution(fid, k):
    alg = algebra(fid)
    for chart in _solved(subalgebra_scan(alg, k)):
        assert chart.rows == tuple(map(tuple, chart_rows_from_solution(chart, alg.dim)))


def test_scan_substitution_budget(monkeypatch):
    """The table.1m k=3 scan (34 of its 35 charts unresolved) makes at most
    141 subs_poly calls: eliminations touch only the equations, and the one
    solved chart back-substitutes once per step that needs it."""
    alg = algebra("surface.table.1m")
    calls = []
    subs_poly = MultiPoly.subs_poly

    def counting(p, mapping):
        calls.append(len(mapping))
        return subs_poly(p, mapping)

    monkeypatch.setattr(MultiPoly, "subs_poly", counting)
    subalgebra_scan(alg, 3)
    assert 0 < len(calls) <= 141


def test_half_domain_fixture_closed_and_tangent():
    fx = catalog.get("basis.half_pseudo_ball.1m")
    fields = list(fx.payload.fields)
    LieAlgebraPresentation.from_fields(fields).verify()
    p = surf("surface.table.1m").defining
    wall = X1 + X3
    for f in fields:
        assert tangency_multiplier(f, p) is not None
        assert tangency_multiplier(f, wall) is not None


def test_transitivity_witnesses():
    for wid in ("witness.D.gt", "witness.D.lt", "witness.C.gt", "witness.C.lt"):
        fx = catalog.get(wid)
        assert verify_transitivity_witness(fx.payload.witness, fx.payload.base), wid


def test_identity_parameters_fix_base():
    fam = catalog.get("family.affine.D").payload
    ident = dict(fam.identity)
    base = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for i, comp in enumerate(fam.components):
        value = comp.eval_at({**dict(zip(fam.variables, base)), **ident})
        assert value == GaussianRational(base[i])


def test_witness_wrong_parameters_fail():
    fx = catalog.get("witness.D.gt")
    w = fx.payload.witness
    broken = dict(w.assignment)
    broken["q"] = broken["q"] + 1
    from tubes.symmetry import TransitivityWitness
    bad = TransitivityWitness(w.family, w.target_vars, broken, w.context)
    assert not verify_transitivity_witness(bad, fx.payload.base)


def _case_algebra(case):
    zb = list(catalog.get(f"basis.Z.{case}").payload.fields)
    return LieAlgebraPresentation.from_fields(zb)


@pytest.mark.parametrize("case", ["D", "C"])
def test_obstruction_certificate(case):
    alg = _case_algebra(case)
    iso = catalog.get(f"isospan.{case}").payload
    cert = non_nilpotent_transitive_obstruction(
        alg, list(iso.vectors), iso.z1_index, iso.z4_index, list(iso.s_indices))
    assert cert.passed
    assert all(ok for _, ok, _ in cert.conditions)
    assert cert.induction_ok


def test_obstruction_perturbed_control():
    """The D tensor with the marked bracket [Z1, Z4] wiped, in the sparse
    form, differs from the original at (z1, z4) and (z4, z1) only, and
    fails condition (a) where the original certificate passes."""
    alg = _case_algebra("D")
    iso = catalog.get("isospan.D").payload
    z1, z4 = iso.z1_index, iso.z4_index
    args = (list(iso.vectors), z1, z4, list(iso.s_indices))
    assert non_nilpotent_transitive_obstruction(alg, *args).passed
    structure = [list(row) for row in alg.structure]
    structure[z1][z4] = structure[z4][z1] = ()
    perturbed = LieAlgebraPresentation(alg.basis, tuple(map(tuple, structure)))
    changed = {(i, j) for i, j in itertools.product(range(alg.dim), repeat=2)
               if perturbed.structure[i][j] != alg.structure[i][j]}
    assert changed == {(z1, z4), (z4, z1)}
    cert = non_nilpotent_transitive_obstruction(perturbed, *args)
    assert not cert.passed
    assert not cert.conditions[0][1]  # condition (a) fails


# Two Lie algebras of vector fields in the plane, e0 = x d/dx, e1 = d/dx
# and a third field e2, with z1 = e0, z4 = e1, iso = [e2] and the span S
# chosen so that conditions (a)-(e) hold but the first iterated bracket,
# (1 + lam) e1 or lam e0 + e1 - mu e2, breaks exactly one half of the
# induction test: the B_z4-coefficient 1, or the vanishing B_z1-coefficient.
XY = ("x", "y")
X, Y = (MultiPoly.var(XY, n) for n in XY)
LM = ("lam0", "mu0")
OBSTRUCTION_CONTROLS = {
    # [e0, e1] = -e1, [e2, e1] = e1, [e0, e2] = 0; S = span(e1, e2)
    "z4 coefficient": ({"x": -X, "y": Y}, (1, 2)),
    # sl2: [e0, e1] = -e1, [e0, e2] = e2, [e2, e1] = e0; S = span(e0, e2)
    "z1 coefficient": ({"x": X * X * Fraction(-1, 2)}, (0, 2)),
}


@pytest.mark.parametrize("broken", sorted(OBSTRUCTION_CONTROLS))
def test_obstruction_induction_needs_both_halves(broken):
    """Negative control: conditions (a)-(e) all hold, and the first
    iterated bracket fails exactly one of the two halves of the induction
    test, so the certificate must not pass."""
    e2, s_idx = OBSTRUCTION_CONTROLS[broken]
    alg = LieAlgebraPresentation.from_fields(
        [_field(XY, x=X), _field(XY, x=MultiPoly.const(XY, 1)), _field(XY, **e2)])
    alg.verify()
    cert = non_nilpotent_transitive_obstruction(alg, [[0, 0, 1]], 0, 1, s_idx, depth=1)
    assert all(ok for _, ok, _ in cert.conditions)
    lam, mu = (MultiPoly.var(LM, n) for n in LM)
    zero, one = MultiPoly.zero(LM), MultiPoly.const(LM, 1)
    nxt = alg.bracket_coords([-one, zero, lam], [zero, one, mu])
    assert (nxt[1] != 1, not nxt[0].is_zero()) == ((True, False) if broken == "z4 coefficient"
                                                   else (False, True))
    assert not cert.induction_ok and not cert.passed


def test_simply_transitive_on_realified_surface():
    """The realified basis.H.transitive.D fields act simply transitively on
    the realified surface: each is tangent, there are exactly dim S = 7 of
    them, and they have rank 7 at a point of the surface."""
    s = surf("surface.tube.6.realified")
    point = [Fraction(x) for x in (1, 0, 1, 1, 0, 0, 0, 0)]
    assert s.point_on_surface(point)
    assert not s.point_on_surface([Fraction(x) for x in (1, 1, 1, 1, 0, 0, 0, 0)])
    fields = [realify(z) for z in catalog.get("basis.H.transitive.D").payload.fields]
    assert all(f.variables == s.variables for f in fields)
    assert all(tangency_multiplier(f, s.defining) is not None for f in fields)
    expected = len(s.variables) - 1

    def simply_transitive(fs):
        return len(fs) == expected and rank_at(fs, point) == expected

    assert len(fields) == 7 and rank_at(fields, point) == 7 and simply_transitive(fields)
    assert rank_at(fields[:-1], point) == 6 and not simply_transitive(fields[:-1])
    doubled = fields + [fields[0]]
    assert len(doubled) == 8 and not simply_transitive(doubled)


def test_line_in_domain_checks():
    for fid in ("line.D.gt", "line.D.lt", "line.C.gt", "line.C.lt"):
        fx = catalog.get(fid)
        domain = catalog.get(fx.payload.domain_id).payload
        verdict = line_in_domain_check(fx.payload.line, domain.expr, "gt")
        assert verdict.verdict == "contained", fid
        assert verdict.value == 1


def test_line_unresolved_and_excluded():
    g = GaussianRational.coerce
    domain = catalog.get("domain.D.gt").payload
    # a line with non-constant restriction
    wobble = ComplexLine(tuple(map(g, (1, 0, 0, 1))), tuple(map(g, (0, 1, 0, 0))))
    assert line_in_domain_check(wobble, domain.expr, "gt").verdict == "unresolved"
    # a line sitting in the complementary side
    outside = ComplexLine(tuple(map(g, (1, 0, 1, 0))), tuple(map(g, (0, 1, -1, 0))))
    assert line_in_domain_check(outside, domain.expr, "gt").verdict == "not_contained"
