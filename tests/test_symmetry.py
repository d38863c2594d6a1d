"""Symmetry algebra computation, orbits, scans, witnesses, obstruction."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from tubes import catalog
from tubes.fields import VectorField, lie_bracket, linear_combination, minors_scan, rank_at
from tubes.linalg import rref_rows
from tubes.poly import MultiPoly, merge_vars
from tubes.scalars import GaussianRational
from tubes.symmetry import (ComplexLine, Hypersurface, LieAlgebraPresentation,
                            affine_symmetry_algebra, expand_in_fields, is_nilpotent,
                            line_in_domain_check,
                            non_nilpotent_transitive_obstruction,
                            open_orbit_report, scan_covers_subspace,
                            subalgebra_scan, verify_transitivity_witness)

from oracles import jacobi_holds, realify, tangency_multiplier

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
        assert expand_in_fields(rot, alg.basis) is not None
    for b in alg.basis:
        assert expand_in_fields(b, rotations) is not None


def _frozen(structure):
    return tuple(tuple(tuple(entry) for entry in row) for row in structure)


def _retensored(alg, structure):
    return dataclasses.replace(alg, structure=_frozen(structure))


def _tensor_lists(alg):
    return [[list(entry) for entry in row] for row in alg.structure]


def test_verify_rejects_a_one_sided_entry():
    alg = algebra("surface.table.3")
    alg.verify()
    t = _tensor_lists(alg)
    assert t[0][1][3] == -1 and t[1][0][3] == 1
    t[0][1][3] = 1
    with pytest.raises(AssertionError, match="structure tensor is not antisymmetric"):
        _retensored(alg, t).verify()


def test_verify_rejects_an_antisymmetric_change_that_breaks_jacobi():
    alg = algebra("surface.table.3")
    dim = alg.dim
    for i, j, l in itertools.product(range(dim), repeat=3):
        if i < j:
            t = _tensor_lists(alg)
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
    assert alg.structure[0][1] == (0, 0, 0, -1, 0)
    doubled = dataclasses.replace(
        alg, basis=(linear_combination([2], alg.basis[:1]),) + alg.basis[1:])
    with pytest.raises(AssertionError, match=r"structure tensor wrong at \(0,1\)"):
        doubled.verify()


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
        alg = LieAlgebraPresentation((zero,) * dim, _frozen(t))
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
    coeffs = expand_in_fields(zb[3], alg.basis)
    assert list(coeffs) == [GaussianRational(int(i == 3)) for i in range(10)]
    br = lie_bracket(zb[2], zb[9])
    coeffs = expand_in_fields(br, alg.basis)
    expected = [GaussianRational(0)] * 10
    expected[8] = GaussianRational(-2)
    assert list(coeffs) == expected


def test_expand_absent():
    alg = algebra("surface.table.2.sphere")
    d1 = VectorField(XV, (MultiPoly.const(XV, 1),) + (MultiPoly.zero(XV),) * 3)
    assert expand_in_fields(d1, alg.basis) is None


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
        if len(rref_rows([[GaussianRational(x) for x in row] for row in m])) == dim:
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
        rows = chart.basis_coords(alg.dim)
        minors = _family_minors(alg, rows, s)
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
        c = expand_in_fields(f, alg.basis)
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
        rows = chart.basis_coords(alg.dim)
        for _ in range(2):
            values = {v: GaussianRational(rng.randint(-3, 3)) for v in rows[0][0].vars}
            sampled = [[entry.eval_at(values) for entry in row] for row in rows]
            # coordinates w.r.t. permuted basis
            reexpressed = [[row[i] for i in perm] for row in sampled]
            assert scan_covers_subspace(scan_b, reexpressed)


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
        value = comp.num.eval_at({**dict(zip(fam.variables, base)), **ident})
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
    alg = _case_algebra("D")
    iso = catalog.get("isospan.D").payload
    dim = alg.dim
    structure = [[alg.structure[i][j] for j in range(dim)] for i in range(dim)]
    zero = tuple(Fraction(0) for _ in range(dim))
    structure[iso.z1_index][iso.z4_index] = zero
    structure[iso.z4_index][iso.z1_index] = zero
    perturbed = LieAlgebraPresentation(alg.basis, tuple(tuple(r) for r in structure))
    cert = non_nilpotent_transitive_obstruction(
        perturbed, list(iso.vectors), iso.z1_index, iso.z4_index, list(iso.s_indices))
    assert not cert.passed
    assert not cert.conditions[0][1]  # condition (a) fails


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
