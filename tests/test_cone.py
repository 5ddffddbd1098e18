import hashlib
import random
from fractions import Fraction as F

import pytest

from ivpoly import cone, linprog, verify
from ivpoly.cone import (
    ConeCertificate,
    ConeSpec,
    _membership_system,
    _pair_system,
    a_gen,
    b_gen,
    cone_member,
    common_divisor_mass,
    idf_family_check,
    mass_system_agreement,
    membership_system_agreement,
    t_power,
    tpoly,
)
from ivpoly.cli import run
from ivpoly.errors import DegreeBoundError, IndexRangeError, TruncationError
from ivpoly.linprog import fm_feasible_eq, simplex_feasible, simplex_solve

SPEC6 = ConeSpec(6)
ONE = tpoly([1])
T = tpoly([0, 1])


class TestGenerators:
    def test_definitions(self):
        assert a_gen(1).coeffs == (F(1), F(0), F(-1))
        assert b_gen(2).coeffs == (F(0), F(1), F(0), F(-1))
        assert t_power(3).coeffs == (F(0), F(0), F(0), F(1))

    def test_distinct(self):
        gens = SPEC6.generators()
        assert len({g.poly.coeffs for g in gens}) == len(gens)

    def test_bad_truncation(self):
        with pytest.raises(TruncationError):
            ConeSpec(0)


class TestMembership:
    def test_one_is_a_member(self):
        cert = cone_member(ONE, SPEC6)
        assert cert is not None and cert.verify(SPEC6, ONE)

    def test_t_without_its_own_generator(self):
        cert = cone_member(T, SPEC6, exclude={"t^1"})
        assert cert is not None and cert.verify(SPEC6, T)

    def test_zero_has_empty_certificate(self):
        cert = cone_member(tpoly([]), SPEC6)
        assert cert is not None and cert.weights == ()

    def test_one_minus_t_stays_out(self):
        assert cone_member(tpoly([1, -1]), SPEC6) is None

    def test_negative_value_stays_out(self):
        # any cone element is nonnegative at rational points of (0,1)
        assert cone_member(tpoly([-1]), SPEC6) is None

    def test_degree_bound_enforced(self):
        with pytest.raises(DegreeBoundError):
            cone_member(tpoly([0] * 8 + [1]), SPEC6)

    def test_named_certificates_from_the_construction(self):
        assert ConeCertificate((("a_1", F(1)), ("t^2", F(1)))).verify(SPEC6, ONE)
        assert ConeCertificate((("b_1", F(1)), ("t^2", F(1)))).verify(SPEC6, T)

    def test_verify_rejects_a_label_outside_the_spec(self):
        cert = ConeCertificate((("a_7", F(1)),))
        assert not cert.verify(SPEC6, a_gen(7))
        assert cert.verify(ConeSpec(7), a_gen(7))

    def test_monotone_in_truncation(self):
        cert = cone_member(ONE, ConeSpec(3))
        for bigger in (4, 6, 8):
            assert cert.verify(ConeSpec(bigger), ONE)


class TestCommonDivisorMass:
    def test_zero_for_first_indices(self):
        spec8 = ConeSpec(8)
        for i in range(1, 5):
            assert common_divisor_mass(i, spec8) == 0

    def test_smaller_truncation(self):
        assert common_divisor_mass(1, SPEC6) == 0
        assert common_divisor_mass(2, ConeSpec(8)) == 0

    def test_index_range(self):
        with pytest.raises(IndexRangeError):
            common_divisor_mass(7, SPEC6)

    def test_sign_obstruction_for_degenerate_divisor(self):
        # b_i - a_i = t - 1 has a negative constant coefficient
        diff = b_gen(2) - a_gen(2)
        assert diff.coeffs == (F(-1), F(1))
        assert cone_member(diff, SPEC6) is None

    def test_the_same_value_as_the_simplex(self):
        cases = [(i, n) for n in range(1, 13) for i in range(1, n + 1)]
        for i, n in cases + [*TestPivotPathPin.MASS_CASES, *TestPivotPathPin.IDF_CASES]:
            res = _mass_simplex(i, n)
            assert res.status == "optimal", (i, n)
            assert common_divisor_mass(i, ConeSpec(n)) == res.value, (i, n)

    def test_no_pivot(self, pivots):
        for i, n in TestPivotPathPin.MASS_CASES + TestPivotPathPin.IDF_CASES:
            assert common_divisor_mass(i, ConeSpec(n)) == 0
            assert idf_family_check(i, ConeSpec(n)).all_ok
        assert pivots == []

    @pytest.mark.parametrize("i, n", [(1, 1), (1, 8), (5, 8), (8, 8), (20, 40)])
    def test_the_dual_check_is_not_vacuous(self, i, n):
        spec = ConeSpec(n)
        y, z = cone._mass_dual(i, n)
        assert cone._mass_dual_holds(i, spec, y, z)
        # y_1 = 1 leaves (y+z).b_i = 0 < 1
        assert not cone._mass_dual_holds(i, spec, [y[0], 1, *y[2:]], z)
        # z_(i+1) = 0 leaves the objective z.b_i = 1
        assert not cone._mass_dual_holds(i, spec, y, z[:i + 1] + [0] + z[i + 2:])
        # z_0 = -1 makes z.a_n negative
        assert not cone._mass_dual_holds(i, spec, y, [-1, *z[1:]])

    def test_a_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(cone, "_mass_dual", lambda i, n: ([1] * (n + 2), [0] * (n + 2)))
        with pytest.raises(ArithmeticError):
            common_divisor_mass(2, ConeSpec(4))
        with pytest.raises(ArithmeticError):
            idf_family_check(2, ConeSpec(4))

    def test_verify_paper_checks_the_mass_against_the_simplex(self, monkeypatch):
        (result,) = verify.run_facts(["cone-idf"]).results
        assert result.passed
        assert result.detail == "certificates, masses, family checks, and LP agreement all hold"
        monkeypatch.setattr(linprog, "simplex_solve",
                            lambda *system: linprog.LPResult("optimal", F(1), None))
        (result,) = verify.run_facts(["cone-idf"]).results
        assert not result.passed and "mass at i=1" in result.detail

    def test_positive_control_for_the_mass_formulation(self):
        # for the degenerate pair (a_1, a_1) the element c = a_1 itself is a
        # common divisor, so the analogous maximization must exceed zero
        spec = ConeSpec(2)
        res = simplex_solve(*_pair_system(spec, a_gen(1), a_gen(1)))
        assert res.status == "optimal" and res.value == 1


class TestIdfFamily:
    def test_identities_and_mass(self):
        report = idf_family_check(1, ConeSpec(8))
        assert report.identity_one and report.identity_t
        assert report.mass == 0 and report.all_ok

    def test_index_three(self):
        assert idf_family_check(3, ConeSpec(8)).all_ok

    def test_exponent_identities_by_definition(self):
        for i in range(1, 7):
            assert t_power(i + 1) + a_gen(i) == ONE
            assert t_power(i + 1) + b_gen(i) == T

    def test_family_pairs_distinct(self):
        n = 8
        pairs = [(a_gen(i).coeffs, b_gen(i).coeffs) for i in range(1, n + 1)]
        assert len(set(pairs)) == n

    def test_a_planted_duplicate_pair_is_not_distinct(self, monkeypatch):
        generators = cone._generators

        def planted(n):
            # a_5, b_5 replaced by copies of a_2, b_2
            gens = list(generators(n))
            gens[n + 4], gens[2 * n + 4] = gens[n + 1], gens[2 * n + 1]
            return tuple(gens)

        assert idf_family_check(2, ConeSpec(6)).distinct_from_other_indices
        monkeypatch.setattr(cone, "_generators", planted)
        report = idf_family_check(2, ConeSpec(6))
        assert not report.distinct_from_other_indices and not report.all_ok
        assert idf_family_check(3, ConeSpec(6)).distinct_from_other_indices


    def test_a_planted_pair_with_the_same_top_degrees_is_distinct(self, monkeypatch):
        generators = cone._generators

        def planted(n):
            # a_5 replaced by 2 a_2, which has the top degree of a_2 but other terms
            gens = list(generators(n))
            gens[n + 4] = cone.ConeGenerator("a_5", tpoly([2, 0, -2]))
            gens[2 * n + 4] = gens[2 * n + 1]
            return tuple(gens)

        monkeypatch.setattr(cone, "_generators", planted)
        assert idf_family_check(2, ConeSpec(6)).all_ok

    def test_a_planted_generator_fails_its_identity(self, monkeypatch):
        generators = cone._generators

        def planted(n):
            # a_3 = 1 - t^4 replaced by 1 - t^5, b_4 = t - t^5 by t - t^4
            gens = list(generators(n))
            gens[n + 2], gens[2 * n + 3] = gens[n + 3], gens[2 * n + 2]
            return tuple(gens)

        monkeypatch.setattr(cone, "_generators", planted)
        three, four = idf_family_check(3, ConeSpec(6)), idf_family_check(4, ConeSpec(6))
        assert not three.identity_one and three.identity_t and not three.all_ok
        assert four.identity_one and not four.identity_t and not four.all_ok
        assert idf_family_check(2, ConeSpec(6)).all_ok

    def test_reports_equal_the_checks_from_the_definitions(self):
        pairs = {j: (a_gen(j), b_gen(j)) for j in range(1, 41)}
        for n in range(1, 41):
            for i in range(1, n + 1):
                distinct = all(pairs[j] != pairs[i] for j in range(1, n + 1) if j != i)
                assert idf_family_check(i, ConeSpec(n)) == cone.IdfReport(
                    index=i, truncation=n, identity_one=True, identity_t=True, mass=F(0),
                    only_trivial_common_divisor=True, distinct_from_other_indices=distinct)


class TestOracleAgreement:
    def test_membership_systems(self):
        for target, exclude in ((ONE, set()), (T, {"t^1"}), (tpoly([1, -1]), set())):
            simplex, fm = membership_system_agreement(target, SPEC6, exclude)
            assert simplex == fm

    def test_mass_systems(self):
        spec8 = ConeSpec(8)
        for i in range(1, 5):
            simplex, fm = mass_system_agreement(i, spec8)
            assert simplex == fm

    def test_each_call_runs_the_engines_linprog_holds(self, monkeypatch):
        # a tracer or a test may replace an engine after linprog was first loaded
        assert membership_system_agreement(ONE, SPEC6) == (True, True)
        calls = []
        for name in ("simplex_feasible", "fm_feasible_eq"):
            engine = getattr(linprog, name)
            monkeypatch.setattr(linprog, name,
                                lambda *a, name=name, engine=engine: calls.append(name) or engine(*a))
        assert membership_system_agreement(ONE, SPEC6) == (True, True)
        assert mass_system_agreement(1, ConeSpec(8)) == (True, True)
        assert calls == ["simplex_feasible", "fm_feasible_eq"] * 2

    def test_seeded_targets_both_ways(self, fm_rows):
        verdicts = []
        for target, spec in _seeded_targets(8):
            simplex, fm = membership_system_agreement(target, spec)
            assert simplex == fm
            verdicts.append(simplex)
        assert verdicts.count(True) == 42 and verdicts.count(False) == 18
        assert max(fm_rows) <= 64

    def test_mass_systems_stay_small(self, fm_rows):
        for n in range(1, 9):
            for i in range(1, n + 1):
                assert mass_system_agreement(i, ConeSpec(n)) == (True, True)
        assert max(fm_rows) <= 64

    def test_mass_systems_take_batched_rounds(self, fm_rows):
        # a round eliminates every one-positive-row variable on disjoint rows: one
        # variable per round took 723 prunes here
        for n in range(1, 9):
            for i in range(1, n + 1):
                system, rhs, ncols, _ = _pair_system(ConeSpec(n), a_gen(i), b_gen(i))
                assert fm_feasible_eq(system, rhs, ncols)
        assert len(fm_rows) <= 356

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_pair_and_generator_system(self, n):
        # each generator, and each generator minus t, with and without itself
        spec = ConeSpec(n)
        for i in range(1, n + 1):
            assert mass_system_agreement(i, spec) == (True, True)
        verdicts = []
        for g in spec.generators():
            for target in (g.poly, g.poly - t_power(1)):
                for exclude in (set(), {g.label}):
                    simplex, fm = membership_system_agreement(target, spec, exclude)
                    assert simplex == fm
                    verdicts.append(simplex)
        assert True in verdicts and False in verdicts


@pytest.fixture
def fm_rows(monkeypatch):
    """The number of rows of every Fourier-Motzkin prune while the test runs."""
    sizes = []
    prune = linprog._prune

    def spy(rows):
        sizes.append(len(rows))
        return prune(rows)

    monkeypatch.setattr(linprog, "_prune", spy)
    return sizes


def _seeded_targets(seed, count=60):
    """Positive combinations of three generators at truncations 4-8; every
    other one has one generator subtracted, which can push it out of the cone."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        spec = ConeSpec(rng.randint(4, 8))
        gens = spec.generators()
        coeffs = [F(0)] * (spec.degree_bound + 1)
        for g in rng.sample(gens, 3):
            w = F(rng.randint(1, 4), rng.randint(1, 3))
            for d, c in g.terms:
                coeffs[d] += w * c
        if k % 2:
            for d, c in rng.choice(gens).terms:
                coeffs[d] -= c
        out.append((tpoly(coeffs), spec))
    return out


def _dense_rows(spec, gens):
    """Row d holds every generator's coefficient of t^d, zeros included."""
    return [[g.poly.coeffs[d] if d < len(g.poly.coeffs) else F(0) for g in gens]
            for d in range(spec.degree_bound + 1)]


def _nonzeros(dense):
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


class TestSparseSystems:
    """The sparse rows against a dense matrix built here from the coefficients."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_membership_rows(self, n):
        spec = ConeSpec(n)
        target = tpoly([F(1, 2)] + [0] * n + [-3])
        for exclude in (set(), {"t^1"}, {"a_1", f"b_{n}", f"t^{n}"}):
            gens, rows, rhs = _membership_system(target, spec, exclude)
            kept = [g for g in spec.generators() if g.label not in exclude]
            assert list(gens) == kept
            assert rows == _nonzeros(_dense_rows(spec, kept))
            assert rhs == [F(1, 2)] + [F(0)] * n + [F(-3)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mass_rows(self, n):
        spec = ConeSpec(n)
        gens = spec.generators()
        k = len(gens)
        dense = _dense_rows(spec, gens)
        want = [base + base + [F(0)] * k for base in dense]
        want += [base + [F(0)] * k + base for base in dense]
        for i in range(1, n + 1):
            system, rhs, ncols, objective = _pair_system(spec, a_gen(i), b_gen(i))
            assert system == _nonzeros(want) and ncols == 3 * k
            a, b = a_gen(i).coeffs, b_gen(i).coeffs
            assert rhs == ([a[d] if d < len(a) else 0 for d in range(n + 2)]
                           + [b[d] if d < len(b) else 0 for d in range(n + 2)])
            assert objective == {j: 1 for j in range(k)}

    def test_target_above_the_degree_bound(self):
        with pytest.raises(DegreeBoundError):
            membership_system_agreement(tpoly([0] * 8 + [1]), SPEC6)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_fourier_motzkin_agrees_on_every_mass_system(self, n):
        spec = ConeSpec(n)
        for i in range(1, n + 1):
            system, rhs, ncols, _ = _pair_system(spec, a_gen(i), b_gen(i))
            assert simplex_feasible(system, rhs, ncols) is not None
            assert fm_feasible_eq(system, rhs, ncols)


class TestCertificateExactness:
    def test_recomputation_is_exact(self):
        for target in (ONE, T, tpoly([2, 1]), tpoly([1, 0, 1])):
            cert = cone_member(target, SPEC6)
            if cert is not None:
                assert cert.total(SPEC6).coeffs == target.coeffs
                assert all(w > 0 for _, w in cert.weights)


def _combo(*terms):
    """sum w * g over (label, w) pairs, generators taken at truncation 40."""
    table = {g.label: g.poly for g in ConeSpec(40).generators()}
    total = tpoly([])
    for label, w in terms:
        total = total + tpoly([w * c for c in table[label].coeffs])
    return total


def _simplex_weights(target, spec, exclude=frozenset()):
    """The simplex's nonzero weights on the membership system, None if infeasible."""
    gens, rows, rhs = _membership_system(target, spec, exclude)
    sol = simplex_feasible(rows, rhs, len(gens))
    return None if sol is None else tuple((g.label, w) for g, w in zip(gens, sol) if w)


def _mass_simplex(i, n):
    """The simplex on the mass LP of index i at truncation n, the oracle of the closed form."""
    return simplex_solve(*_pair_system(ConeSpec(n), a_gen(i), b_gen(i)))


class TestGoldenPivotPath:
    """Results of the dense-tableau simplex, pinned so that any change to the
    pivot sequence shows: Bland's rule makes certificates and LP solutions a
    function of the pivots taken.  Membership runs the simplex on the
    ``_membership_system`` rows, the oracle of the closed form."""

    TARGETS = {
        "one": tpoly([1]),
        "mixed": _combo(("a_3", F(7, 2)), ("b_4", F(5, 3)), ("t^5", 2)),
        "a1_plus_b1": tpoly([1, 1, -2]),
        "quarter": _combo(("b_2", 3), ("a_5", F(1, 4)), ("t^1", 1), ("b_6", F(2, 9))),
        "two_plus_t3": tpoly([2, 0, 0, 1]),
        "one_minus_t": tpoly([1, -1]),
        "square": tpoly([1, -2, 1]),
        "fractional": tpoly([F(1, 2), F(-1, 3), 0, F(5, 7)]),
        "three_minus": tpoly([3, -1, 0, 0, 0, -1]),
    }
    CERTIFICATES = {
        "one": (("t^2", F(1)), ("a_1", F(1))),
        "mixed": (("t^1", F(5, 3)), ("t^5", F(1, 3)), ("a_3", F(7, 2))),
        "a1_plus_b1": (("a_1", F(1)), ("b_1", F(1))),
        "quarter": (("t^1", F(1)), ("a_5", F(1, 36)), ("a_6", F(2, 9)), ("b_2", F(3)),
                    ("b_5", F(2, 9))),
        "two_plus_t3": (("t^2", F(2)), ("t^3", F(1)), ("a_1", F(2))),
        "one_minus_t": None,
        "square": None,
        "fractional": None,
        "three_minus": None,
    }
    HIGH = _combo(("a_19", F(5, 4)), ("b_11", F(2, 3)), ("t^17", 3), ("b_22", F(1, 5)))
    HIGH_CERTIFICATE = (("t^17", F(3)), ("a_19", F(21, 20)), ("a_22", F(1, 5)),
                        ("b_11", F(2, 3)), ("b_19", F(1, 5)))
    #: (index, truncation) -> nonzero entries of the mass LP's optimal solution
    MASS_SOLUTIONS = {
        (1, 8): {32: 1, 64: 1},
        (6, 12): {53: 1, 101: 1},
        (8, 16): {71: 1, 135: 1},
        (20, 20): {99: 1, 179: 1},
        (12, 24): {107: 1, 203: 1},
        (20, 40): {179: 1, 339: 1},
    }

    @pytest.mark.parametrize("truncation", (6, 12, 24, 40))
    def test_certificates(self, truncation):
        spec = ConeSpec(truncation)
        for name, target in self.TARGETS.items():
            assert _simplex_weights(target, spec) == self.CERTIFICATES[name], name

    @pytest.mark.parametrize("truncation", (24, 40))
    def test_high_degree_certificates(self, truncation):
        spec = ConeSpec(truncation)
        assert _simplex_weights(self.HIGH, spec) == self.HIGH_CERTIFICATE
        assert _simplex_weights(tpoly([1] + [0] * 19 + [-3]), spec) is None

    def test_mass_lp(self):
        for (i, n), nonzeros in self.MASS_SOLUTIONS.items():
            spec = ConeSpec(n)
            assert common_divisor_mass(i, spec) == 0
            res = simplex_solve(*_pair_system(spec, a_gen(i), b_gen(i)))
            assert res.status == "optimal" and res.value == 0
            assert {j: v for j, v in enumerate(res.solution) if v} == nonzeros

    #: (row, column) of every pivot, in order
    PIVOTS = {
        "quarter": [(1, 0), (2, 1), (4, 3), (5, 4), (0, 6), (2, 7), (0, 12), (3, 13), (2, 10),
                    (6, 16), (7, 11)],
        "square": [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (0, 6)],
        "mass": [(1, 0), (2, 1), (4, 3), (6, 4), (2, 5), (1, 8), (6, 16), (1, 0), (8, 1), (1, 9),
                 (0, 13), (0, 17), (7, 24), (8, 25), (10, 27), (7, 33), (3, 0), (5, 7), (9, 1),
                 (11, 19), (3, 2)],
    }

    def test_pivot_sequences(self, pivots):
        runs = {
            "quarter": lambda: _simplex_weights(self.TARGETS["quarter"], SPEC6),
            "square": lambda: _simplex_weights(self.TARGETS["square"], SPEC6),
            "mass": lambda: _mass_simplex(2, 4),
        }
        for name, call in runs.items():
            pivots.clear()
            call()
            assert pivots == self.PIVOTS[name], name

    @pytest.mark.parametrize("argv, stdout", [
        (["--target", "1", "--truncation", "12"],
         '{"error":null,"op":"cone-member","result":{"certificate":{"a_1":"1","t^2":"1"},'
         '"member":true,"verified_up_to":12}}'),
        (["--target", "1,1,-2", "--truncation", "24"],
         '{"error":null,"op":"cone-member","result":{"certificate":{"a_1":"1","b_1":"1"},'
         '"member":true,"verified_up_to":24}}'),
        (["--target", "0,1", "--truncation", "40", "--exclude", "t^1"],
         '{"error":null,"op":"cone-member","result":{"certificate":{"b_1":"1","t^2":"1"},'
         '"member":true,"verified_up_to":40}}'),
        (["--target", "1,-1", "--truncation", "40"],
         '{"error":null,"op":"cone-member","result":{"certificate":null,"member":false,'
         '"verified_up_to":40}}'),
        (["--target=-1,5", "--truncation", "1"],
         '{"error":null,"op":"cone-member","result":{"certificate":null,"member":false,'
         '"verified_up_to":1}}'),
    ])
    def test_cli_json(self, capsys, argv, stdout):
        assert run(["cone-member", *argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == stdout + "\n"


def _random_systems(seed, count=80):
    """Seeded sparse Fraction systems (a, b, n, objective), about half with an objective."""
    rng = random.Random(seed)

    def entry():
        return F(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.5 else F(0)

    systems = []
    for k in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 9)
        a = [{j: v for j in range(n) if (v := entry())} for _ in range(m)]
        b = [entry() for _ in range(m)]
        objective = {j: v for j in range(n) if (v := entry())} if k % 2 else None
        systems.append((a, b, n, objective))
    return systems


class TestPivotPathPin:
    """The full (row, column) pivot list of each group of systems, pinned as
    its length and the sha256 of its ``repr``: a change of tableau arithmetic
    that keeps Bland's choices keeps every entry."""

    #: (index, truncation) pairs of the ``cone`` benchmark's mass LPs and family checks
    MASS_CASES = ((1, 8), (6, 12), (8, 16), (20, 20), (12, 24), (20, 40))
    IDF_CASES = ((8, 8), (1, 10), (7, 14), (18, 18), (11, 22), (2, 40))
    RUNS = {
        **{f"member_{n}": (lambda n=n: [_simplex_weights(t, ConeSpec(n))
                                         for t in TestGoldenPivotPath.TARGETS.values()])
           for n in (6, 20, 40)},
        "mass": lambda: [_mass_simplex(i, n) for i, n in TestPivotPathPin.MASS_CASES],
        "idf": lambda: [_mass_simplex(i, n) for i, n in TestPivotPathPin.IDF_CASES],
        "random": lambda: [simplex_solve(*system) for system in _random_systems(19)],
    }
    PINS = {
        "member_6": (70, "d4ee90250717c02879be5deb5516458e52313c1fab08e1426cdec0c8f4c46400"),
        "member_20": (196, "fcd7959dd32aa39402a26edf22794ef1ef568df2179a64c26123cc57004dfe13"),
        "member_40": (376, "811880c7d32cc33208a62d9e70326601ffbd0ddd8247b2ee891fae6d61e5b90f"),
        "mass": (370, "14ec07963969b63a8763b0f5d4c89f5f1c80f145fb08918a2b7b0738e064313b"),
        "idf": (334, "b5767023cceb7bf5185f631887feaf779d05588723784c4e4f316328d22d2025"),
        "random": (178, "97d1cd52510ce47688b5c3561e32d751b035137c88409a377b45a79b7e9033d2"),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_pivot_list(self, pivots, name):
        self.RUNS[name]()
        digest = hashlib.sha256(repr(pivots).encode()).hexdigest()
        assert (len(pivots), digest) == self.PINS[name]


class TestClosedForm:
    """``cone_member`` decides in closed form and takes no simplex pivot; its
    own certificates of the golden targets are pinned here."""

    #: the simplex's certificates but for ``quarter``
    CERTIFICATES = {
        **TestGoldenPivotPath.CERTIFICATES,
        "quarter": (("t^1", F(1)), ("a_2", F(1, 4)), ("b_2", F(11, 4)), ("b_5", F(1, 4)),
                    ("b_6", F(2, 9))),
    }
    HIGH_CERTIFICATE = (("t^17", F(3)), ("a_11", F(2, 3)), ("a_19", F(7, 12)),
                        ("b_19", F(2, 3)), ("b_22", F(1, 5)))

    @pytest.mark.parametrize("truncation", (6, 12, 24, 40))
    def test_certificates(self, pivots, truncation):
        spec = ConeSpec(truncation)
        for name, target in TestGoldenPivotPath.TARGETS.items():
            cert = cone_member(target, spec)
            assert (None if cert is None else cert.weights) == self.CERTIFICATES[name], name
            assert cert is None or cert.verify(spec, target)
        assert pivots == []

    @pytest.mark.parametrize("truncation", (24, 40))
    def test_high_degree_certificates(self, pivots, truncation):
        spec = ConeSpec(truncation)
        cert = cone_member(TestGoldenPivotPath.HIGH, spec)
        assert cert.weights == self.HIGH_CERTIFICATE
        assert cert.verify(spec, TestGoldenPivotPath.HIGH)
        assert cone_member(tpoly([1] + [0] * 19 + [-3]), spec) is None
        assert pivots == []

    def test_a_negative_constant_stays_out_at_truncation_one(self):
        # s_1 = -c_2 = 0 must carry c_0 = sum alpha = -1: c_0 >= 0 fails, while
        # c_0 <= -c_2 <= c_0 + c_1 alone holds
        target = tpoly([-1, 5])
        assert cone_member(target, ConeSpec(1)) is None
        assert _simplex_weights(target, ConeSpec(1)) is None

    def test_the_same_verdicts_as_the_simplex(self):
        kinds = {}
        for target, spec, kind, exclude in _differential_cases(21):
            cert = cone_member(target, spec, exclude)
            member = _simplex_weights(target, spec, exclude) is not None
            assert (cert is not None) == member, (target, spec, exclude)
            if cert is not None:
                assert cert.verify(spec, target)
                assert not {label for label, _ in cert.weights} & exclude
            kinds.setdefault(kind, set()).add(member)
        assert kinds == {kind: {True, False} for kind in EXCLUSION_KINDS}


#: how ``_differential_cases`` picks the generators to exclude at truncation n
EXCLUSION_KINDS = {
    "none": lambda rng, n: set(),
    "random": lambda rng, n: set(rng.sample([g.label for g in ConeSpec(n).generators()],
                                            rng.randint(1, 3 * n // 2))),
    "t^1": lambda rng, n: {"t^1"},
    "t^(i+1)": lambda rng, n: {f"t^{rng.randint(2, n)}"} if n > 1 else {"t^1"},
    "a_i, b_i": lambda rng, n: {f"a_{(i := rng.randint(1, n))}", f"b_{i}"},
    # with no b_i left, only the weights of the a_i can take up c_1
    "t^1, every b_i": lambda rng, n: {"t^1", *(f"b_{i}" for i in range(1, n + 1))},
}


def _differential_cases(seed, per_truncation=30):
    """(target, spec, exclusion kind, exclude) at truncations 1-40.

    A target is a positive combination of one to four generators, then kept,
    less a multiple of one generator, with one coefficient moved, or replaced
    by a sparse random polynomial; the exclusion kinds take turns.
    """
    rng = random.Random(seed)
    kinds = list(EXCLUSION_KINDS.items())
    out = []
    for n in range(1, 41):
        spec = ConeSpec(n)
        gens = spec.generators()
        for k in range(per_truncation):
            coeffs = [F(0)] * (n + 2)
            for g in rng.sample(gens, rng.randint(1, min(4, len(gens)))):
                w = F(rng.randint(1, 6), rng.randint(1, 3))
                for d, c in g.terms:
                    coeffs[d] += w * c
            mode = rng.randrange(4)
            if mode == 1:
                w = F(rng.randint(1, 3), rng.randint(1, 3))
                for d, c in rng.choice(gens).terms:
                    coeffs[d] -= w * c
            elif mode == 2:
                coeffs[rng.randrange(n + 2)] += F(rng.randint(-4, 4), rng.randint(1, 3))
            elif mode == 3:
                coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.4 else 0
                          for _ in range(n + 2)]
            kind, pick = kinds[k % len(kinds)]
            out.append((tpoly(coeffs), spec, kind, pick(rng, n)))
    return out
