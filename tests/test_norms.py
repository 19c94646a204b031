import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphertrans import linalg, norms
from sphertrans.ensembles import random_tuple
from sphertrans.errors import InvalidPError, SphertransError
from sphertrans.optimize import OptimizerConfig, grid_supremum
from sphertrans.tuples import (
    adjoint_tuple,
    block_embedding,
    defect_operator,
    spherical_polar,
    tuple_from,
    zero_tuple,
)

from conftest import cmat

CFG = OptimizerConfig(n_random_starts=8)


class TestSphericalNorm:
    def test_column_pair(self, sharp_column):
        assert norms.spherical_norm(sharp_column) == pytest.approx(np.sqrt(2.0))

    def test_identity_defect(self, diag_pair):
        assert norms.spherical_norm(diag_pair) == pytest.approx(1.0)

    def test_zero(self):
        assert norms.spherical_norm(zero_tuple(2, 2)) == 0.0

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_scale_far_from_one(self, scale):
        """The norm and P come from the stacked column, never from
        sum T_k* T_k, which underflows at 1e-170 and overflows at 1e160."""
        base = random_tuple(2, 3, 5)
        t = tuple_from(*(scale * m for m in base))
        expected = scale * norms.spherical_norm(base)
        assert abs(norms.spherical_norm(t) - expected) <= 1e-13 * expected
        assert np.array_equal(defect_operator(t), spherical_polar(t).p)


# (d, n, ensemble, seed, ||T||, then the spherical Schatten p-norm at
# p = 1, 2, 3), recorded when both norms still came from sum T_k* T_k
FROZEN_CLOSED_FORMS = (
    (1, 2, "ginibre", 0, 0.8796227372442912, 1.1856176224839763, 0.9313264892989932,
     0.8917966895148682),
    (1, 5, "nilpotent", 1, 2.120937256476027, 4.440091765653414, 2.6594957761881246,
     2.3467486465051586),
    (1, 3, "contraction", 2, 1.0, 1.472441052883123, 1.0606265412605964, 1.0117961667920738),
    (2, 2, "nilpotent", 3, 2.6396099745440718, 2.6396099745440718, 2.6396099745440718,
     2.6396099745440718),
    (2, 3, "ginibre", 4, 2.1436470352496104, 4.180308752042105, 2.6529468029250727,
     2.3567220912692144),
    (2, 6, "contraction", 5, 0.9999999999999999, 3.791990091461081, 1.6319138411524312,
     1.2702418513752105),
    (3, 4, "ginibre", 6, 2.2968356170273148, 6.324431702921054, 3.329689589358217,
     2.756718540980918),
    (3, 5, "nilpotent", 7, 3.754289538031636, 8.243620563614066, 4.626745186199476,
     4.031813909995541),
    (3, 2, "contraction", 8, 1.0, 1.5301564978354052, 1.1318418229580942, 1.047388497248612),
    (4, 6, "ginibre", 9, 2.8364849401042576, 11.664154495108317, 4.932778946566549,
     3.781638581681689),
    (4, 3, "nilpotent", 10, 3.153537686463591, 4.697017618279905, 3.511001315845072,
     3.2722615386058465),
    (4, 5, "contraction", 11, 1.0, 3.571420034545543, 1.656056130513072, 1.306894643943961),
)


@pytest.mark.parametrize("d, n, ensemble, seed, op, p1, p2, p3", FROZEN_CLOSED_FORMS)
def test_closed_forms_match_frozen_values(d, n, ensemble, seed, op, p1, p2, p3):
    t = random_tuple(d, n, seed, ensemble)
    got = [norms.spherical_norm(t)] + [norms.schatten_spherical_norm(t, p) for p in (1, 2, 3)]
    for value, frozen in zip(got, (op, p1, p2, p3)):
        assert abs(value - frozen) <= 1e-14 * frozen


class TestEuclideanNorm:
    def test_column_pair(self, sharp_column):
        assert norms.euclidean_norm(sharp_column) == pytest.approx(np.sqrt(2.0))

    def test_single_coordinate(self):
        t = random_tuple(1, 4, 3)
        assert norms.euclidean_norm(t) == pytest.approx(linalg.operator_norm(t[0]))

    def test_diag_pair(self, diag_pair):
        assert norms.euclidean_norm(diag_pair) == pytest.approx(np.sqrt(2.0))

    def test_euclidean_can_exceed_spherical(self, diag_pair):
        # (diag(1,0), diag(0,1)): euclidean sqrt(2) strictly above spherical 1,
        # so no ordering between them holds in general
        assert norms.euclidean_norm(diag_pair) > norms.spherical_norm(diag_pair)

    def test_adjoint_symmetry(self):
        t = random_tuple(3, 4, 17)
        assert norms.euclidean_norm(t) == pytest.approx(
            norms.euclidean_norm(adjoint_tuple(t)), rel=1e-12
        )


class TestHypoNorm:
    def test_single_coordinate(self):
        t = random_tuple(1, 4, 7)
        assert norms.hypo_norm(t).value == pytest.approx(linalg.operator_norm(t[0]))

    def test_diag_pair_is_one(self, diag_pair):
        assert norms.hypo_norm(diag_pair).value == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_sandwich_with_spherical_norm(self, seed):
        t = random_tuple(3, 4, seed)
        h = norms.hypo_norm(t, CFG).value
        s = norms.spherical_norm(t)
        assert s / np.sqrt(t.d) <= h + 1e-6
        assert h <= s + 1e-9

    def test_adjoint_symmetry(self):
        for seed in range(5):
            t = random_tuple(3, 4, seed)
            a = norms.hypo_norm(t, CFG).value
            b = norms.hypo_norm(adjoint_tuple(t), CFG).value
            assert abs(a - b) <= 2e-6


def _dense_theta_max(a, points=2001, zooms=3):
    """max over theta of lam_max(Re(e^{i theta} A)) on a 2001-point theta
    grid, regridded three times around the best point so far."""
    best, lo, hi = -np.inf, 0.0, 2.0 * np.pi
    for _ in range(zooms + 1):
        thetas = np.linspace(lo, hi, points)
        rot = np.exp(1j * thetas)[:, None, None] * a
        tops = np.linalg.eigvalsh((rot + np.conj(np.swapaxes(rot, -1, -2))) / 2.0)[:, -1]
        i = int(np.argmax(tops))
        best = max(best, float(tops[i]))
        span = thetas[1] - thetas[0]
        lo, hi = thetas[i] - span, thetas[i] + span
    return best


class TestNumericalRadius:
    def test_hermitian_matrix_gives_norm(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        assert norms.numerical_radius(a) == pytest.approx(
            linalg.operator_norm(a), abs=1e-10
        )

    def test_square_zero_matrix_gives_half_norm(self):
        a = cmat([[0, 1], [0, 0]])
        assert norms.numerical_radius(a) == pytest.approx(0.5, abs=1e-10)
        # cross-check it and 20 random matrices, every third strictly upper
        # triangular, against a dense theta grid
        rng = np.random.default_rng(2024)
        mats = [a]
        for k in range(20):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append(np.triu(m, 1) if k % 3 == 0 else m)
        for m in mats:
            assert norms.numerical_radius(m) == pytest.approx(_dense_theta_max(m), abs=1e-8)

    def test_zero(self):
        assert norms.numerical_radius(np.zeros((3, 3))) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(SphertransError):
            norms.numerical_radius(np.ones((2, 3)))


class TestJointNumericalRadius:
    def test_normal_single_matrix(self):
        t = tuple_from(np.diag([1.0, 1j]))
        assert norms.joint_numerical_radius(t).value == pytest.approx(1.0, abs=1e-10)

    def test_nilpotent_single(self):
        t = tuple_from(cmat([[0, 1], [0, 0]]))
        assert norms.joint_numerical_radius(t).value == pytest.approx(0.5, abs=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 3))
    def test_sandwich(self, seed, d):
        t = random_tuple(d, 4, seed)
        w = norms.joint_numerical_radius(t, CFG, route="a").value
        s = norms.spherical_norm(t)
        e = norms.euclidean_norm(t)
        assert s / (2.0 * np.sqrt(d)) <= w + 1e-6
        assert w <= e + 1e-6
        assert w <= s + 1e-6
        assert s <= e + 1e-12

    def test_routes_agree(self):
        for seed in range(4):
            t = random_tuple(2, 3, seed)
            est = norms.joint_numerical_radius(t)
            assert est.cross_gap is not None
            assert est.cross_gap <= 1e-6

    def test_adjoint_symmetry(self):
        for seed in range(3):
            t = random_tuple(2, 3, seed)
            a = norms.joint_numerical_radius(t, CFG).value
            b = norms.joint_numerical_radius(adjoint_tuple(t), CFG).value
            assert abs(a - b) <= 2e-6


class TestSchattenSphericalNorm:
    def test_column_pair_constant_in_p(self, sharp_column):
        for p in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
            assert norms.schatten_spherical_norm(sharp_column, p) == pytest.approx(
                np.sqrt(2.0), abs=1e-12
            )

    def test_identity_defect(self, diag_pair):
        for p in (1.0, 2.0, 4.0):
            assert norms.schatten_spherical_norm(diag_pair, p) == pytest.approx(
                2.0 ** (1.0 / p), rel=1e-12
            )

    def test_single_coordinate(self):
        t = random_tuple(1, 4, 19)
        for p in (1.0, 2.5):
            assert norms.schatten_spherical_norm(t, p) == pytest.approx(
                linalg.schatten_norm(t[0], p), rel=1e-12
            )

    def test_matches_defect_and_block_routes(self):
        t = random_tuple(3, 4, 23)
        polar = spherical_polar(t)
        blocks = block_embedding(t)
        for p in (1.0, 2.0, 3.5):
            fromcol = norms.schatten_spherical_norm(t, p)
            assert fromcol == pytest.approx(linalg.schatten_norm(polar.p, p), abs=1e-10)
            assert fromcol == pytest.approx(
                linalg.schatten_norm(blocks.t_block, p), abs=1e-10
            )

    def test_direct_sum_p_norm(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(3)]
        block = np.zeros((9, 9), dtype=complex)
        for i, m in enumerate(mats):
            block[3 * i:3 * i + 3, 3 * i:3 * i + 3] = m
        for p in (1.0, 2.0, 3.0):
            direct = sum(linalg.schatten_norm(m, p) ** p for m in mats) ** (1.0 / p)
            assert linalg.schatten_norm(block, p) == pytest.approx(direct, rel=1e-10)

    def test_coordinate_bound(self):
        t = random_tuple(3, 4, 29)
        for p in (1.0, 2.0, 5.0):
            s = norms.schatten_spherical_norm(t, p)
            for m in t:
                assert linalg.schatten_norm(m, p) <= s + 1e-10

    def test_adjoint_p2_exact_other_p_not(self, sharp_column):
        t = sharp_column
        adj = adjoint_tuple(t)
        assert norms.schatten_spherical_norm(t, 2.0) == pytest.approx(
            norms.schatten_spherical_norm(adj, 2.0), abs=1e-10
        )
        # the column pair separates the tuple from its adjoint away from p = 2
        assert abs(
            norms.schatten_spherical_norm(t, 4.0)
            - norms.schatten_spherical_norm(adj, 4.0)
        ) > 0.05

    def test_rejects_p_below_one(self, diag_pair):
        for p in (0.9, np.nan):
            with pytest.raises(InvalidPError):
                norms.schatten_spherical_norm(diag_pair, p)

    def test_suprema_reject_p_below_one_or_nan(self, diag_pair):
        for quantity in (norms.schatten_hypo_norm, norms.schatten_numerical_radius):
            for p in (0.9, np.nan):
                with pytest.raises(InvalidPError):
                    quantity(diag_pair, p)


class TestSchattenHypoNorm:
    def test_column_pair_is_one_for_all_p(self, sharp_column):
        for p in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
            assert norms.schatten_hypo_norm(sharp_column, p).value == pytest.approx(
                1.0, abs=1e-9
            )

    def test_diag_pair_true_values(self, diag_pair):
        # 1 for p >= 2; for p < 2 the supremum is 2^(1/p - 1/2) > 1,
        # confirmed independently by the dense grid oracle below
        for p in (2.0, 3.0, 5.0, 10.0):
            assert norms.schatten_hypo_norm(diag_pair, p).value == pytest.approx(
                1.0, abs=1e-9
            )
        for p in (1.0, 1.5):
            expected = 2.0 ** (1.0 / p - 0.5)
            est = norms.schatten_hypo_norm(diag_pair, p)
            assert est.value == pytest.approx(expected, abs=1e-8)

            def obj(lam, p=p):
                return linalg.schatten_norm(norms.combination(diag_pair, lam), p)

            assert grid_supremum(obj, 2, n_points=10_000) == pytest.approx(
                expected, abs=1e-6
            )

    def test_single_coordinate(self):
        t = random_tuple(1, 3, 31)
        for p in (1.0, 3.0):
            assert norms.schatten_hypo_norm(t, p).value == pytest.approx(
                linalg.schatten_norm(t[0], p), rel=1e-12
            )

    def test_gram_closed_form_p2(self):
        for seed in range(6):
            t = random_tuple(3, 5, seed)
            opt = norms.schatten_hypo_norm(t, 2.0, CFG).value
            closed = norms.schatten_hypo_norm_gram(t)
            assert abs(opt - closed) <= 1e-6

    def test_adjoint_symmetry(self):
        for seed in range(3):
            t = random_tuple(2, 4, seed)
            for p in (1.5, 3.0):
                a = norms.schatten_hypo_norm(t, p, CFG).value
                b = norms.schatten_hypo_norm(adjoint_tuple(t), p, CFG).value
                assert abs(a - b) <= 2e-6


class TestSchattenNumericalRadius:
    def test_hermitian_single_gives_p_norm(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        t = tuple_from(a)
        for p in (1.0, 2.0, 4.0):
            assert norms.schatten_numerical_radius(t, p).value == pytest.approx(
                linalg.schatten_norm(a, p), abs=1e-8
            )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]))
    def test_chain_against_hypo_and_norm(self, seed, p):
        t = random_tuple(2, 3, seed)
        w = norms.schatten_numerical_radius(t, p, CFG).value
        h = norms.schatten_hypo_norm(t, p, CFG).value
        s = norms.schatten_spherical_norm(t, p)
        assert w <= h + 1e-6 * (1 + h)
        assert h <= s + 1e-8 * (1 + s)
        assert 0.5 * h <= w + 1e-6 * (1 + w)

    def test_adjoint_symmetry(self):
        t = random_tuple(2, 3, 41)
        for p in (2.0, 3.0):
            a = norms.schatten_numerical_radius(t, p, CFG).value
            b = norms.schatten_numerical_radius(adjoint_tuple(t), p, CFG).value
            assert abs(a - b) <= 2e-6

    def test_lower_bounds_by_p_regime(self):
        for seed, p in ((0, 1.5), (1, 3.0), (2, 2.0)):
            t = random_tuple(3, 4, seed)
            h = norms.schatten_hypo_norm(t, p, CFG).value
            s = norms.schatten_spherical_norm(t, p)
            if p < 2:
                assert s / t.d ** (1.0 / p) <= h + 1e-6
            else:
                assert s / np.sqrt(t.d) <= h + 1e-6
            if p == 2:
                w = norms.schatten_numerical_radius(t, 2.0, CFG).value
                assert h / np.sqrt(2.0) <= w + 1e-6
                assert s / np.sqrt(2.0 * t.d) <= w + 1e-6


INF = float("inf")


def _phase_screen_fixture():
    """A tuple on which the radius ascent needs its start phase screen:
    without it the p = 1 estimate stops near 3.0156798, short of
    3.0336850390469956."""
    rng = np.random.default_rng([42, 10])
    rng.integers(1, 4)
    rng.integers(2, 6)
    return random_tuple(3, 3, rng, "ginibre")


def _table_tuple(spec):
    return _phase_screen_fixture() if spec == "fixture" else random_tuple(*spec)


# Values of the theta-swept estimators these replaced, at 8 random starts.
SCHATTEN_RADIUS_TABLE = [
    ("fixture", 1.0, 3.0336850390469956),
    ("fixture", 3.0, 1.9174336706676214),
    ("fixture", INF, 1.8930764399709896),
    ((1, 4, 3, "ginibre"), 1.5, 2.0458593712136923),
    ((1, 6, 1, "contraction"), 1.5, 1.382582469940046),
    ((1, 4, 6, "ginibre"), 1.0, 2.694469946366741),
    ((2, 2, 1, "ginibre"), 1.0, 1.3366548738485295),
    ((2, 2, 1, "ginibre"), INF, 0.9592943948715401),
    ((2, 3, 5, "ginibre"), 1.5, 1.787033848515551),
    ((2, 3, 5, "ginibre"), 3.0, 1.3712674158759084),
    ((2, 3, 5, "ginibre"), INF, 1.2548910104896676),
    ((3, 4, 7, "ginibre"), 2.0, 1.6448553063301585),
    ((3, 4, 7, "ginibre"), 3.0, 1.53001227252589),
    ((3, 5, 11, "nilpotent"), 1.0, 4.860420682761353),
    ((3, 5, 11, "nilpotent"), 3.0, 2.148203536125942),
    ((4, 3, 13, "contraction"), 1.5, 1.0456432860203113),
    ((4, 3, 13, "contraction"), 3.0, 0.7836929162946703),
    ((2, 4, 17, "nilpotent"), 2.0, 1.6475810484302549),
    ((2, 5, 1, "nilpotent"), 1.5, 2.518276258951502),
    ((4, 3, 8, "nilpotent"), 3.0, 1.6975616749234308),
]
ROUTE_B_TABLE = [
    ("fixture", 1.8931004858214193),
    ((1, 3, 2, "ginibre"), 1.3458775086494832),
    ((2, 2, 1, "ginibre"), 0.95929439487154),
    ((2, 3, 5, "ginibre"), 1.2548910200238386),
    ((3, 4, 7, "ginibre"), 1.5053218595706903),
    ((3, 5, 11, "nilpotent"), 1.918811179532027),
    ((4, 3, 13, "contraction"), 0.7401383798264336),
    ((2, 5, 11, "nilpotent"), 1.5788510499279105),
]


def _re_norm_at(t, lam, theta, p):
    """||Re(e^{i theta} sum lam_k T_k)||_p, computed from scratch."""
    m = np.exp(1j * theta) * norms.combination(t, lam)
    return linalg.schatten_norm(linalg.real_part(m), p)


class TestRadiusAscent:
    @pytest.mark.parametrize("spec,p,before", SCHATTEN_RADIUS_TABLE)
    def test_schatten_radius_not_below_theta_sweep(self, spec, p, before):
        est = norms.schatten_numerical_radius(_table_tuple(spec), p, CFG)
        assert est.value >= before - 1e-9 * (1.0 + before)

    @pytest.mark.parametrize("spec,before", ROUTE_B_TABLE)
    def test_route_b_not_below_theta_sweep(self, spec, before):
        est = norms.joint_numerical_radius(_table_tuple(spec), CFG, route="b")
        assert est.value >= before - 1e-9 * (1.0 + before)

    @pytest.mark.parametrize("spec", [
        "fixture", (1, 4, 3, "ginibre"), (2, 3, 5, "ginibre"), (3, 5, 11, "nilpotent"),
    ])
    def test_value_is_exact_at_argmax_and_theta(self, spec):
        t = _table_tuple(spec)
        estimates = [(norms.schatten_numerical_radius(t, p, CFG), p) for p in (1.0, 3.0, INF)]
        estimates += [(norms.joint_numerical_radius(t, CFG, route=r), INF)
                      for r in ("a", "b", "both")]
        for est, p in estimates:
            lam = est.argmax.coeffs
            lead = lam[np.argmax(np.abs(lam) > 1e-12)]
            assert lead.imag == pytest.approx(0.0, abs=1e-12) and lead.real > 0
            assert 0.0 <= est.theta < 2.0 * np.pi
            assert _re_norm_at(t, lam, est.theta, p) == pytest.approx(est.value, rel=1e-12)

    def test_p_inf_matches_joint_radius_route_b(self):
        # the theta-swept p = inf radius gave 1.2548910104896676 here, 9.5e-9
        # short of route b's 1.2548910200238386
        for spec in ((2, 3, 5, "ginibre"), "fixture", (3, 5, 11, "nilpotent")):
            t = _table_tuple(spec)
            w = norms.schatten_numerical_radius(t, INF, CFG).value
            b = norms.joint_numerical_radius(t, CFG, route="b").value
            assert w == pytest.approx(b, abs=1e-10)

    def test_escalation_has_no_cost_cliff(self):
        t = random_tuple(3, 5, 11)
        for run in (
            lambda cfg: norms.schatten_numerical_radius(t, 3.0, cfg),
            lambda cfg: norms.joint_numerical_radius(t, cfg, route="b"),
        ):
            base = run(CFG).value
            start = time.perf_counter()
            escalated = run(CFG.escalated()).value
            assert time.perf_counter() - start < 30.0
            assert escalated >= base - 1e-12 * (1.0 + base)


# Values of the pattern-polished estimators the SQUAREM ascent replaced, at
# 8 random starts: (tuple, hypo_norm, schatten_hypo_norm at p = 1, 1.5, 3,
# route-a joint radius).  Route a stopped unconverged at its iteration cap
# on (4, 3, 8), (4, 3, 1086), (4, 6, 3) and (2, 3, 31), all nilpotent.
ASCENT_TABLE = [
    ((1, 4, 3, "ginibre"),
     1.906031386957401, 3.378959011400518, 2.507751553042143, 2.0264155739175145, 1.6597275156914182),
    ((1, 5, 2, "nilpotent"),
     2.0126075650642408, 4.0901275234816765, 2.8951371690351118, 2.1824098387414805, 1.283096112078747),
    ((2, 2, 1, "ginibre"),
     0.9893242703281824, 1.6202304775812246, 1.298535752358439, 1.0623877359909188, 0.9592943948715398),
    ((2, 2, 4, "nilpotent"),
     0.9961632885059022, 0.9961632885059023, 0.9961632885059023, 0.9961632885059023, 0.49808164425295154),
    ((2, 3, 5, "ginibre"),
     1.4585210330782619, 2.6450102816364436, 1.9628236917848152, 1.5683033514278448, 1.2548910200238383),
    ((2, 4, 17, "nilpotent"),
     2.178199538042297, 3.1685231115832737, 2.526674560159156, 2.2146229175420897, 1.3648471805279934),
    ((2, 5, 1, "nilpotent"),
     2.5549248514672547, 4.613360665769688, 3.301211733320742, 2.6589591183963246, 1.6175387734949027),
    ((2, 6, 9, "contraction"),
     0.8847364111136703, 2.2479124546032385, 1.3892878331527128, 0.9660368452303751, 0.6944087180074464),
    ((3, 3, 2, "contraction"),
     0.8923741853717596, 1.615860188255836, 1.1698217125767234, 0.9084363462243636, 0.7957089482837278),
    ((3, 4, 7, "ginibre"),
     1.6613155907514776, 3.380369050268761, 2.3102911180252153, 1.7672883289743957, 1.50532185957069),
    ((3, 5, 11, "nilpotent"),
     3.049225352415874, 5.813484353472253, 4.053112316949125, 3.1722541869309064, 1.9188111795320235),
    ((3, 5, 23, "ginibre"),
     2.1771016138745196, 5.237351308531771, 3.344363015775709, 2.3777786631382485, 1.8038630723084876),
    ((3, 6, 4, "nilpotent"),
     3.968236129830454, 9.45729320486605, 6.015101827216693, 4.168563629262067, 2.4860858918530098),
    ((4, 3, 13, "contraction"),
     0.7702863154922847, 1.5305951688408173, 1.112311975659996, 0.856937605695299, 0.7401383798264329),
    ((4, 3, 8, "nilpotent"),
     2.6563685237478367, 3.3540217369499796, 2.833796440444081, 2.658653556841558, 1.4849847238242762),
    ((4, 3, 1086, "nilpotent"),
     2.740057682161671, 3.3750286839207764, 2.828465617249748, 2.7404103677218727, 1.5337916145084227),
    ((4, 4, 6, "ginibre"),
     2.2250565270512257, 5.026657942892912, 3.2677362187063315, 2.3116682299997144, 1.825389917336301),
    ((4, 6, 3, "nilpotent"),
     4.6331066941796895, 10.297292923157313, 6.793049872619581, 4.956071148894905, 2.9036043851748357),
    ((2, 3, 31, "nilpotent"),
     1.7464843995826151, 2.3600039577323915, 1.9462406115344129, 1.7544311696932664, 1.0417230096621868),
    ((3, 2, 19, "nilpotent"),
     1.2615290300629238, 1.2615290300629243, 1.2615290300629238, 1.2615290300629238, 0.6307645150314622),
]


class TestAscentEngine:
    @pytest.mark.parametrize("spec,op,p1,p15,p3,route_a", ASCENT_TABLE)
    def test_not_below_pattern_polish(self, spec, op, p1, p15, p3, route_a):
        t = random_tuple(*spec)
        new = [
            norms.hypo_norm(t, CFG).value,
            *(norms.schatten_hypo_norm(t, p, CFG).value for p in (1.0, 1.5, 3.0)),
            norms.joint_numerical_radius(t, CFG, route="a").value,
        ]
        for value, before in zip(new, (op, p1, p15, p3, route_a)):
            assert value >= before - 1e-9 * (1.0 + before)

    def test_route_a_converges_on_nilpotent_tuple(self):
        # the old route a stopped at the cap here with 1.533791614508
        t = random_tuple(4, 3, np.random.default_rng(1086), "nilpotent")
        est = norms.joint_numerical_radius(t, CFG, route="a")
        assert est.converged
        assert est.value >= 1.533791614508

    def test_hypo_norm_is_schatten_p_inf(self):
        t = random_tuple(3, 4, 7)
        assert norms.hypo_norm(t, CFG).value == norms.schatten_hypo_norm(t, INF, CFG).value
