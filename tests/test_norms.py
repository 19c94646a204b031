import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphertrans import linalg, norms
from sphertrans.ensembles import random_tuple
from sphertrans.errors import InvalidParameterError, InvalidPError, SphertransError
from sphertrans.optimize import OptimizerConfig, grid_supremum, power_step, sphere_optimize
from sphertrans.suites import sharp_diag_pair
from sphertrans.tuples import (
    OperatorTuple,
    block_embedding,
    defect_operator,
    spherical_polar,
    tuple_from,
)

from conftest import (
    cmat,
    combination,
    grid_tuples,
    hypo_oracle,
    random_matrix,
    schatten_norm,
)


def _adjoint(t: OperatorTuple) -> OperatorTuple:
    """The tuple (T_1*, ..., T_d*)."""
    return OperatorTuple(matrices=linalg.adjoint(t.array))


CFG = OptimizerConfig(n_random_starts=8)


class TestSphericalNorm:
    def test_column_pair(self, sharp_column):
        assert norms.spherical_norm(sharp_column) == pytest.approx(np.sqrt(2.0))

    def test_identity_defect(self, diag_pair):
        assert norms.spherical_norm(diag_pair) == pytest.approx(1.0)

    def test_zero(self):
        zero = OperatorTuple(matrices=np.zeros((2, 2, 2)))
        assert norms.spherical_norm(zero) == 0.0

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
        assert norms.euclidean_norm(t) == pytest.approx(np.linalg.norm(t[0], 2))

    def test_diag_pair(self, diag_pair):
        assert norms.euclidean_norm(diag_pair) == pytest.approx(np.sqrt(2.0))

    def test_euclidean_can_exceed_spherical(self, diag_pair):
        # (diag(1,0), diag(0,1)): euclidean sqrt(2) strictly above spherical 1,
        # so no ordering between them holds in general
        assert norms.euclidean_norm(diag_pair) > norms.spherical_norm(diag_pair)

    def test_adjoint_symmetry(self):
        t = random_tuple(3, 4, 17)
        assert norms.euclidean_norm(t) == pytest.approx(
            norms.euclidean_norm(_adjoint(t)), rel=1e-12
        )

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
    def test_neither_underflows_nor_overflows(self, scale):
        t = random_tuple(3, 4, 1)
        assert norms.euclidean_norm(OperatorTuple(matrices=scale * t.array)) == pytest.approx(
            scale * norms.euclidean_norm(t), rel=1e-15)


class TestHypoNorm:
    def test_single_coordinate(self):
        t = random_tuple(1, 4, 7)
        assert norms.hypo_norm(t).value == pytest.approx(np.linalg.norm(t[0], 2))

    def test_diag_pair_is_one(self, diag_pair):
        assert norms.hypo_norm(diag_pair).value == pytest.approx(1.0, abs=1e-12)

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
            b = norms.hypo_norm(_adjoint(t), CFG).value
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
            np.linalg.norm(a, 2), abs=1e-10
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
        w = norms._radius_vector_route(t, CFG).value
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

    def test_reports_larger_route_with_summed_diagnostics(self):
        for seed in range(4):
            t = random_tuple(3, 4, seed)
            a, b = norms._radius_vector_route(t, CFG), norms._radius_coeff_route(t, CFG)
            est = norms.joint_numerical_radius(t, CFG)
            best = a if a.value >= b.value else b
            assert est.value == best.value and est.theta == best.theta
            assert np.array_equal(est.argmax.coeffs, best.argmax.coeffs)
            for field in ("starts", "iterations", "evaluations"):
                assert getattr(est, field) == getattr(a, field) + getattr(b, field)
            assert est.cross_gap == abs(a.value - b.value)

    def test_adjoint_symmetry(self):
        for seed in range(3):
            t = random_tuple(2, 3, seed)
            a = norms.joint_numerical_radius(t, CFG).value
            b = norms.joint_numerical_radius(_adjoint(t), CFG).value
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
                schatten_norm(t[0], p), rel=1e-12
            )

    def test_matches_defect_and_block_routes(self):
        t = random_tuple(3, 4, 23)
        polar = spherical_polar(t)
        blocks = block_embedding(t)
        for p in (1.0, 2.0, 3.5):
            fromcol = norms.schatten_spherical_norm(t, p)
            assert fromcol == pytest.approx(schatten_norm(polar.p, p), abs=1e-10)
            assert fromcol == pytest.approx(
                schatten_norm(blocks.t_block, p), abs=1e-10
            )

    def test_direct_sum_p_norm(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(3)]
        block = np.zeros((9, 9), dtype=complex)
        for i, m in enumerate(mats):
            block[3 * i:3 * i + 3, 3 * i:3 * i + 3] = m
        for p in (1.0, 2.0, 3.0):
            direct = sum(schatten_norm(m, p) ** p for m in mats) ** (1.0 / p)
            assert schatten_norm(block, p) == pytest.approx(direct, rel=1e-10)

    def test_coordinate_bound(self):
        t = random_tuple(3, 4, 29)
        for p in (1.0, 2.0, 5.0):
            s = norms.schatten_spherical_norm(t, p)
            for m in t:
                assert schatten_norm(m, p) <= s + 1e-10

    def test_adjoint_p2_exact_other_p_not(self, sharp_column):
        t = sharp_column
        adj = _adjoint(t)
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

    def test_a_p_error_is_a_parameter_error(self, diag_pair):
        # the command line maps every InvalidParameterError to exit 3
        with pytest.raises(InvalidParameterError):
            norms.schatten_spherical_norm(diag_pair, 0.5)


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
            assert grid_supremum(hypo_oracle(diag_pair, p), 2, n_points=10_000) == \
                pytest.approx(expected, abs=1e-6)

    def test_single_coordinate(self):
        t = random_tuple(1, 3, 31)
        for p in (1.0, 3.0):
            assert norms.schatten_hypo_norm(t, p).value == pytest.approx(
                schatten_norm(t[0], p), rel=1e-12
            )

    def test_gram_closed_form_p2(self):
        for seed in range(6):
            t = random_tuple(3, 5, seed)
            opt = norms.schatten_hypo_norm(t, 2.0, CFG).value
            closed = norms.schatten_hypo_norm_gram(t)
            assert abs(opt - closed) <= 1e-14 * closed

    def test_adjoint_symmetry(self):
        for seed in range(3):
            t = random_tuple(2, 4, seed)
            for p in (1.5, 3.0):
                a = norms.schatten_hypo_norm(t, p, CFG).value
                b = norms.schatten_hypo_norm(_adjoint(t), p, CFG).value
                assert abs(a - b) <= 2e-6


class TestSchattenNumericalRadius:
    def test_hermitian_single_gives_p_norm(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        t = tuple_from(a)
        for p in (1.0, 2.0, 4.0):
            assert norms.schatten_numerical_radius(t, p).value == pytest.approx(
                schatten_norm(a, p), abs=1e-8
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
            b = norms.schatten_numerical_radius(_adjoint(t), p, CFG).value
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


@pytest.fixture(scope="module")
def p2_grid():
    """(tuple, hypo-2-norm, its ascent, 2-radius, its ascent) on the grid,
    the ascents at the default 32 random starts."""
    cfg = OptimizerConfig()
    return [(t, norms.schatten_hypo_norm(t, 2.0), norms._hypo_p_norms((t,), 2.0, cfg)[0],
             norms.schatten_numerical_radius(t, 2.0), norms._real_part_sup(t, 2.0, cfg))
            for t in grid_tuples()]


class TestExactP2:
    def test_not_below_the_ascent(self, p2_grid):
        for _, hypo, hypo_ascent, radius, radius_ascent in p2_grid:
            assert hypo.value >= hypo_ascent.value * (1.0 - 2e-15)
            assert radius.value >= radius_ascent.value * (1.0 - 2e-15)

    def test_not_above_the_top_eigenvalue(self, p2_grid):
        # the quadratic forms, built from scratch: tr(T_k T_j*) and
        # tr(E_m E_l) over E = (Re T_k, Re(i T_k))
        for t, hypo, _, radius, _ in p2_grid:
            gram = np.array([[np.trace(a @ np.conj(b.T)) for a in t] for b in t])
            parts = [linalg.hermitian_part(c * m) for c in (1.0, 1j) for m in t]
            form = np.array([[np.trace(a @ b).real for a in parts] for b in parts])
            assert hypo.value <= np.sqrt(np.linalg.eigvalsh(gram)[-1]) * (1.0 + 2e-15)
            assert radius.value <= np.sqrt(np.linalg.eigvalsh(form)[-1]) * (1.0 + 2e-15)

    def test_value_is_the_objective_at_argmax(self, p2_grid):
        # the radius is valued at the ungauged argmax e^{i theta} argmax
        for t, hypo, _, radius, _ in p2_grid:
            m = norms._combine(t.array, hypo.argmax.coeffs[None, :])
            assert hypo.value == linalg.schatten_of_spectra(
                np.linalg.svd(m, compute_uv=False), 2.0)[0]
            lam = np.exp(1j * radius.theta) * radius.argmax.coeffs
            assert radius.value == pytest.approx(
                norms._real_part_norms(t.array, lam[None, :], 2.0)[0], rel=1e-15)

    @pytest.mark.parametrize("spec", [
        (1, 4, 3, "ginibre"), (3, 5, 11, "nilpotent"), (4, 3, 13, "contraction"),
    ])
    def test_ignores_the_optimizer_config(self, spec):
        t = random_tuple(*spec)
        crippled = OptimizerConfig(n_random_starts=0, max_iters=1)
        for estimator in (norms.schatten_hypo_norm, norms.schatten_numerical_radius):
            est = estimator(t, 2.0, CFG)
            assert (est.starts, est.converged, est.spread, est.iterations,
                    est.evaluations) == (0, True, 0.0, 0, 1)
            for other in (estimator(t, 2.0, crippled), estimator(t, 2.0, CFG.escalated())):
                assert _same_estimate(other, est)

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e160])
    def test_scale_far_from_one(self, scale):
        """The quadratic forms are built on the tuple divided by its
        largest entry: unscaled, the Gram matrix read 0.0 at 1e-170 and
        raised LinAlgError at 1e160."""
        base = random_tuple(3, 4, 7)
        t = OperatorTuple(tuple(scale * base.array))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (norms.schatten_hypo_norm_gram,
                          lambda t: norms.schatten_hypo_norm(t, 2.0).value,
                          lambda t: norms.schatten_numerical_radius(t, 2.0).value):
                expected = scale * value(base)
                assert abs(value(t) - expected) <= 1e-14 * expected


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
    m = np.exp(1j * theta) * combination(t, lam)
    return schatten_norm(linalg.hermitian_part(m), p)


class TestRadiusAscent:
    @pytest.mark.parametrize("spec,p,before", SCHATTEN_RADIUS_TABLE)
    def test_schatten_radius_not_below_theta_sweep(self, spec, p, before):
        est = norms.schatten_numerical_radius(_table_tuple(spec), p, CFG)
        assert est.value >= before - 1e-9 * (1.0 + before)

    @pytest.mark.parametrize("spec,before", ROUTE_B_TABLE)
    def test_route_b_not_below_theta_sweep(self, spec, before):
        est = norms._radius_coeff_route(_table_tuple(spec), CFG)
        assert est.value >= before - 1e-9 * (1.0 + before)

    @pytest.mark.parametrize("spec", [
        "fixture", (1, 4, 3, "ginibre"), (2, 3, 5, "ginibre"), (3, 5, 11, "nilpotent"),
    ])
    def test_value_is_exact_at_argmax_and_theta(self, spec):
        t = _table_tuple(spec)
        estimates = [(norms.schatten_numerical_radius(t, p, CFG), p)
                     for p in (1.0, 2.0, 3.0, INF)]
        estimates += [(route(t, CFG), INF) for route in (
            norms._radius_vector_route, norms._radius_coeff_route, norms.joint_numerical_radius)]
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
            b = norms._radius_coeff_route(t, CFG).value
            assert w == pytest.approx(b, abs=1e-10)

    def test_escalation_has_no_cost_cliff(self):
        t = random_tuple(3, 5, 11)
        for run in (
            lambda cfg: norms.schatten_numerical_radius(t, 3.0, cfg),
            lambda cfg: norms._radius_coeff_route(t, cfg),
            # n = 2: the 100k-point screen makes 100k LAPACK SVDs
            lambda cfg: norms.schatten_hypo_norm(sharp_diag_pair(), 1.0, cfg),
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
            norms._radius_vector_route(t, CFG).value,
        ]
        for value, before in zip(new, (op, p1, p15, p3, route_a)):
            assert value >= before - 1e-9 * (1.0 + before)

    def test_route_a_converges_on_nilpotent_tuple(self):
        # the old route a stopped at the cap here with 1.533791614508
        t = random_tuple(4, 3, np.random.default_rng(1086), "nilpotent")
        est = norms._radius_vector_route(t, CFG)
        assert est.converged
        assert est.value >= 1.533791614508

    def test_hypo_norm_is_schatten_p_inf(self):
        t = random_tuple(3, 4, 7)
        assert norms.hypo_norm(t, CFG).value == norms.schatten_hypo_norm(t, INF, CFG).value

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_suprema_scale_with_the_tuple(self, scale):
        # at these scales absolute step thresholds would freeze the rows
        # and squared vector norms would overflow
        t = random_tuple(3, 4, 1)
        scaled = OperatorTuple(matrices=scale * t.array)
        for estimate in (norms.hypo_norm, norms.joint_numerical_radius,
                         lambda u: norms.schatten_hypo_norm(u, 1.0),
                         lambda u: norms.schatten_numerical_radius(u, 1.0)):
            assert estimate(scaled).value == pytest.approx(scale * estimate(t).value, rel=2e-15)


def _same_estimate(a, b) -> bool:
    """Bit for bit equal in every field the estimators fill."""
    return (a.value == b.value and np.array_equal(a.argmax.coeffs, b.argmax.coeffs)
            and (a.starts, a.converged, a.spread, a.theta, a.iterations, a.evaluations)
            == (b.starts, b.converged, b.spread, b.theta, b.iterations, b.evaluations))


# one batch per shape (d, n), each mixing three ensembles
BATCH_SHAPES = [(1, 2), (1, 5), (2, 2), (2, 6), (3, 3), (3, 5), (4, 4), (4, 6)]
BATCH_ENSEMBLES = ("ginibre", "contraction", "nilpotent")


def _batch(d, n):
    return [random_tuple(d, n, np.random.default_rng([d, n, k]), ens)
            for k, ens in enumerate(BATCH_ENSEMBLES)]


class TestBatchedAscent:
    @pytest.mark.parametrize("d,n", BATCH_SHAPES)
    @pytest.mark.parametrize("p", [INF, 1.0, 1.5, 3.0])
    def test_hypo_norms_batched_equal_single(self, d, n, p):
        ts = _batch(d, n)
        single = norms.hypo_norm if p == INF else (
            lambda t, cfg: norms.schatten_hypo_norm(t, p, cfg))
        for t, est in zip(ts, norms._hypo_p_norms(ts, p, CFG)):
            assert _same_estimate(est, single(t, CFG))

    @pytest.mark.parametrize("d,n", BATCH_SHAPES)
    def test_route_a_batched_equals_single(self, d, n):
        ts = _batch(d, n)
        for t, est in zip(ts, norms._radius_vector_routes(ts, CFG)):
            assert _same_estimate(est, norms._radius_vector_route(t, CFG))

    def test_screens_stay_per_tuple(self):
        ts = _batch(3, 4)
        cfg = OptimizerConfig(n_random_starts=2, grid_points=500)
        for t, est in zip(ts, norms._hypo_p_norms(ts, 1.5, cfg)):
            assert _same_estimate(est, norms.schatten_hypo_norm(t, 1.5, cfg))

    def test_iteration_and_evaluation_counts(self):
        # d = 1 collapses to one evaluation; otherwise every start takes at
        # least one SQUAREM iteration of three evaluations, and the winner
        # is valued once more
        one = norms.hypo_norm(random_tuple(1, 3, 2), CFG)
        assert (one.iterations, one.evaluations) == (0, 1)
        est = norms.hypo_norm(random_tuple(3, 4, 7), CFG)
        assert 1 <= est.iterations <= CFG.max_iters
        assert est.evaluations >= 3 * est.starts + 1


def _full_svd_hypo_norm(t, cfg) -> float:
    """The operator hypo-norm ascended with a full SVD at every step: the
    dual element is the top singular pair of M(lam), and each step returns
    the exact norm.  The reference for the carried-vector step."""
    mats, scale = norms._binary_scaled(t.array)

    def objective(rows):
        return np.linalg.svd(norms._combine(mats, rows), compute_uv=False)[:, 0]

    def ascend(rows):
        u, s, vh = np.linalg.svd(norms._combine(mats, rows))
        a = np.einsum("si,kij,sj->sk", np.conj(u[:, :, 0]), mats, np.conj(vh[:, 0, :]))
        return s[:, 0], power_step(rows, a)

    return sphere_optimize(objective, t.d, cfg, ascend=ascend).value * scale


def _captured_maps(monkeypatch, optimizer, run):
    """The (objective, ascend) pair that run() hands norms.<optimizer>."""
    maps = {}
    real = getattr(norms, optimizer)

    def capture(objective, *args, ascend=None, **kwargs):
        maps.update(objective=objective, ascend=ascend)
        return real(objective, *args, ascend=ascend, **kwargs)

    monkeypatch.setattr(norms, optimizer, capture)
    run()
    return maps["objective"], maps["ascend"]


def _hypo_maps(monkeypatch, t, p=float("inf")):
    """The (objective, ascend) pair that the hypo-p-norm ascent of t hands
    sphere_optimize_batch; at p = inf, that of hypo_norm(t)."""
    return _captured_maps(monkeypatch, "sphere_optimize_batch",
                          lambda: norms._hypo_p_norms((t,), p, CFG))


def _real_part_maps(monkeypatch, t, p):
    """The (objective, ascend) pair that schatten_numerical_radius(t, p)
    hands sphere_optimize, in _hypo_maps's batched form."""
    objective, ascend = _captured_maps(monkeypatch, "sphere_optimize",
                                       lambda: norms.schatten_numerical_radius(t, p, CFG))
    return (lambda rows, blocks: objective(rows),
            lambda rows, blocks, state: (*ascend(rows), None))


# 40 fixed tuples over (d, n) in 2..4 x 2..6 and the three ensembles
CARRIED_TUPLES = [(2 + k % 3, 2 + k % 5, k, BATCH_ENSEMBLES[k // 15]) for k in range(40)]


def _check_bare_steps(objective, ascend, d, exact, rel=1e-15):
    """40 bare steps from 16 random rows: each value is at least the value
    one step before and at most the objective at its row, equal to it
    when exact, all to a relative rel."""
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((16, d)) + 1j * rng.standard_normal((16, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    blocks = ((0, slice(None)),)
    state, before = None, None
    for _ in range(40):
        vals, nxt, state = ascend(rows, blocks, state)
        at_rows = objective(rows, blocks)
        assert np.all(vals <= at_rows * (1.0 + rel))
        if exact:
            assert np.all(vals >= at_rows * (1.0 - rel))
        if before is not None:
            assert np.all(vals >= before * (1.0 - rel))
        before, rows = vals, nxt


# the dual-element steps value their rows by another factorization than
# the objective (svd with vectors against svd without, eigh against
# eigvalsh) and sum the norm in another order; over TestDualElementStep's
# tuples the gap and the falls stay under 7 eps
_DUAL_STEP_REL = 1e-14


class TestCarriedTopVector:
    """The p = inf step carries each row's top right singular vector and
    refines it by power steps, so it returns a minorant of ||M(lam)||."""

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (4, 6)])
    def test_tied_top_singular_value(self, d, n):
        # every singular value of M(lam) = <lam, conj c> U is the top one,
        # so the power vector has nothing to converge to
        rng = np.random.default_rng([d, n])
        u = np.linalg.qr(random_matrix(rng, n))[0]
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        t = OperatorTuple(matrices=c[:, None, None] * u)
        assert norms.hypo_norm(t, CFG).value == pytest.approx(np.linalg.norm(c), rel=1e-12)

    def test_zero_tuple_and_zero_coordinate(self):
        # RuntimeWarning is an error under this suite's settings, so a
        # division by a zero norm fails here
        assert norms.hypo_norm(OperatorTuple(matrices=np.zeros((3, 4, 4))), CFG).value == 0.0
        a = random_tuple(1, 4, 5)[0]
        t = tuple_from(a, np.zeros((4, 4)))
        assert norms.hypo_norm(t, CFG).value == pytest.approx(np.linalg.norm(a, 2),
                                                              rel=1e-12)

    @pytest.mark.parametrize("d,n,seed,ensemble", CARRIED_TUPLES)
    def test_not_below_full_svd_steps(self, d, n, seed, ensemble):
        t = random_tuple(d, n, seed, ensemble)
        reference = _full_svd_hypo_norm(t, CFG)
        assert norms.hypo_norm(t, CFG).value >= reference * (1.0 - 1e-12)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 5), (4, 6)])
    @pytest.mark.parametrize("ensemble", BATCH_ENSEMBLES)
    def test_minorant_never_falls(self, monkeypatch, d, n, ensemble):
        objective, ascend = _hypo_maps(monkeypatch, random_tuple(d, n, 7, ensemble))
        _check_bare_steps(objective, ascend, d, exact=False)


class TestDualElementStep:
    """The hypo-p-norm step at p < inf and the real-part step at every p
    move to lam' = conj(a)/|a| with a_k = tr(W* T_k), W from _dual_element:
    each returns the norm at its rows and never lowers it."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, INF])
    @pytest.mark.parametrize("hermitian", [False, True], ids=["svd", "eigh"])
    def test_dual_element_norms_the_matrix(self, hermitian, p):
        # tr(W* M) = ||M||_p and ||W||_q = 1, 1/p + 1/q = 1
        rng = np.random.default_rng(3)
        m = rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4))
        if hermitian:
            m = linalg.hermitian_part(m)
            h, q = np.linalg.eigh(m)
            vals, dual = norms._dual_element(q * np.sign(h)[:, None, :], np.abs(h),
                                             linalg.adjoint(q), p)
        else:
            vals, dual = norms._dual_element(*np.linalg.svd(m), p)
        assert np.allclose(vals, [schatten_norm(x, p) for x in m], rtol=1e-14)
        assert np.allclose(np.sum(dual * m, axis=(1, 2)), vals, rtol=1e-13, atol=0.0)
        conjugate = INF if p == 1.0 else 1.0 if p == INF else p / (p - 1.0)
        assert np.allclose([schatten_norm(np.conj(w), conjugate) for w in dual], 1.0,
                           rtol=1e-13)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 5), (4, 6)])
    @pytest.mark.parametrize("ensemble", BATCH_ENSEMBLES)
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_hypo_step_never_falls(self, monkeypatch, p, ensemble, d, n):
        objective, ascend = _hypo_maps(monkeypatch, random_tuple(d, n, 7, ensemble), p)
        _check_bare_steps(objective, ascend, d, exact=True, rel=_DUAL_STEP_REL)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 5), (4, 6)])
    @pytest.mark.parametrize("ensemble", BATCH_ENSEMBLES)
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, INF])
    def test_real_part_step_never_falls(self, monkeypatch, p, ensemble, d, n):
        objective, ascend = _real_part_maps(monkeypatch, random_tuple(d, n, 7, ensemble), p)
        _check_bare_steps(objective, ascend, d, exact=True, rel=_DUAL_STEP_REL)
