import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebpts1
from numpy.polynomial.polyutils import mapdomain
from scipy.integrate import solve_ivp

from nnlslab import scattering
from nnlslab.background import E_matrix, classify_ray, f_branch
from nnlslab.scattering import (InitialProfile, SpectralTable, jost_at_origin,
                                scattering_data, validate_assumptions,
                                winding_k_stop)


class TestInitialProfile:
    def test_support_invariant(self):
        with pytest.raises(ValueError):
            InitialProfile(0.5, 2.0, np.array([0.9, 0.5, 0.9]))

    def test_gaussian_edges(self, verif_profile):
        q = verif_profile.q0(np.array([-verif_profile.support_L,
                                       verif_profile.support_L, 100.0]))
        assert np.abs(q - 0.5).max() < 1e-12

    def test_json_round_trip(self):
        prof = InitialProfile.from_json(
            {"preset": "gaussian_bump", "A": 0.5, "amplitude": -0.2,
             "width": 1.0, "chirp": 0.3, "center": 0.8}
        )
        assert prof.A == 0.5
        assert abs(prof.q0(0.8) - (0.5 - 0.2)) < 1e-12

    def test_json_samples(self):
        n = 11
        xs = np.linspace(-1, 1, n)
        vals = 0.5 + 0.1 * np.exp(-25 * xs**2)
        vals[0] = vals[-1] = 0.5
        obj = {"A": 0.5, "L": 1.0, "dx": 0.2,
               "samples": [[v, 0.0] for v in vals]}
        prof = InitialProfile.from_json(obj)
        assert prof.samples.size == n

    def test_box_preset(self):
        prof = InitialProfile.box(1.0, 0.3, 2.0)
        assert abs(prof.q0(0.0) - 1.3) < 1e-12
        assert abs(prof.q0(5.0) - 1.0) == 0.0


class TestJost:
    def test_pure_background_is_E(self, bg_profile):
        # each cell step is the exact exponential of the constant background
        ks = np.array([0.5, -2.0, 1.3 + 0.8j, 3.0, 40.0])
        for side in (1, 2):
            psi = jost_at_origin(bg_profile, ks, side=side)
            assert np.abs(psi - E_matrix(ks, 1.0)).max() < 1e-13
        y = np.array([0.3, -0.9])
        psi = jost_at_origin(bg_profile, 1j * y, side=2)
        assert np.abs(psi - E_matrix(1j * y, 1.0)).max() < 1e-13

    def test_unit_determinant(self, verif_profile):
        ks = np.array([0.7, -1.3, 2.4])
        for side in (1, 2):
            psi = jost_at_origin(verif_profile, ks, side=side)
            det = psi[:, 0, 0] * psi[:, 1, 1] - psi[:, 0, 1] * psi[:, 1, 0]
            assert np.abs(det - 1).max() < 1e-10

    def test_unit_determinant_on_cut(self, verif_profile):
        psi = jost_at_origin(verif_profile, 1j * np.array([0.3, -0.2]),
                             side=2)
        det = psi[:, 0, 0] * psi[:, 1, 1] - psi[:, 0, 1] * psi[:, 1, 0]
        assert np.abs(det - 1).max() < 1e-10

    def test_large_k_column_structure(self, verif_profile):
        psi = jost_at_origin(verif_profile, np.array([1e3 + 0j]), side=1)[0]
        assert abs(psi[0, 0] - 1) < 5e-3
        assert abs(psi[1, 0]) < 5e-3


def _dop853_jost(profile, ks):
    """Oracle for Psi_1(0, 0, k) and Psi_2(0, 0, k): DOP853 (rtol 1e-13) from
    knot to knot of the sample grid, on which the interpolant of q0 is one
    polynomial of degree <= 3, fitted here through four q0 values per cell.
    Both sides are stepped together in x from -L to 0, side 2 at -x."""
    ks = np.asarray(ks, dtype=complex)
    ifs = 1j * f_branch(ks, profile.A)[:, None, None] * np.array([1.0, -1.0])
    E = E_matrix(ks, profile.A)
    k = ks[:, None]
    knots = np.linspace(-profile.support_L, profile.support_L,
                        profile.samples.size)
    edges = np.append(knots[knots < -1e-12], 0.0)
    t4 = np.linspace(0.0, 1.0, 4)
    vander = np.vander(t4, 4)
    y = np.concatenate([E.ravel(), E.ravel()])
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = lo + t4 * (hi - lo)
        cp = np.linalg.solve(vander, profile.q0(xs))  # q(x)
        cm = np.linalg.solve(vander, np.conj(profile.q0(-xs)))  # conj q(-x)

        def rhs(x, yy, cp=cp, cm=cm, lo=lo, w=hi - lo):
            t = (x - lo) / w
            qp = ((cp[0] * t + cp[1]) * t + cp[2]) * t + cp[3]
            qm = ((cm[0] * t + cm[1]) * t + cm[2]) * t + cm[3]
            Y = yy.reshape(2, -1, 2, 2)
            out = np.empty_like(Y)
            for P, d, q, cq, sign in ((Y[0], out[0], qp, qm, 1.0),
                                      (Y[1], out[1], np.conj(qm), np.conj(qp), -1.0)):
                d[:, 0] = -1j * k * P[:, 0] + q * P[:, 1]
                d[:, 1] = 1j * k * P[:, 1] - cq * P[:, 0]
                d += ifs * P
                d *= sign
            return out.ravel()

        y = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13,
                      atol=1e-15).y[:, -1]
    return y.reshape(2, ks.size, 2, 2)


def _determinants(psi1, psi2):
    """(a1, a2, b1, b2) from Jost matrices, as det[Psi_i col c | Psi_j col d]."""
    def det(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    return (det(psi1[:, :, 0], psi2[:, :, 1]), det(psi2[:, :, 0], psi1[:, :, 1]),
            det(psi2[:, :, 0], psi1[:, :, 0]), det(psi2[:, :, 1], psi1[:, :, 1]))


class TestAgainstOracle:
    """Sixth-order Magnus on the sample cells against a DOP853 oracle."""

    TOL = 1e-10

    def _check_all(self, profile, ks):
        oracle = _determinants(*_dop853_jost(profile, ks))
        for got, ref in zip(scattering_data(profile, ks), oracle):
            assert np.abs(got - ref).max() < self.TOL

    def test_verification_profile(self, verif_profile):
        # real points, k = 200 (cells split to |k| h <= 0.5), and a1 at two
        # upper-half-plane points, one the far corner of validate's contour
        real = np.array([-1.3, 0.7, 200.0])
        upper = np.array([12 + 12j, -0.3 + 0.51j])
        psi = _dop853_jost(verif_profile, np.concatenate([real, upper]))
        oracle = _determinants(*psi)
        got = scattering_data(verif_profile, real)
        for g, ref in zip(got, oracle):
            assert np.abs(g - ref[:3]).max() < self.TOL
        a1 = scattering_data(verif_profile, upper, only="a1")
        assert np.abs(a1 - oracle[0][3:]).max() < self.TOL

    def test_cut_sides_near_branch_points(self, verif_profile):
        # one solve from E and f on the minus side, no offset extrapolation
        self._check_all(verif_profile, np.array([0.4999j, -0.4999j]))

    def test_box(self):
        self._check_all(InitialProfile.box(1.0, 0.3, 2.0), np.array([0.5, -1.5]))

    def test_bump_on_unit_background(self):
        prof = InitialProfile.gaussian_bump(1.0, 0.8, 1.0, center=0.5)
        self._check_all(prof, np.array([0.3, 8.0]))

    def test_coarse_high_amplitude(self):
        # max|q| dx = 0.23: at k = 4 the cells are cut in two only because
        # of the |q| term of the cut rule (the cell exponential is a Taylor
        # series that needs (|k| + |q|) h <= 1/2); uncut, they are 1.2e-9
        # off.  On so coarse a grid, cells just below the cut are less
        # accurate than this bound: 1.5e-10 at |k| = 2, 2.9e-10 at 2.5
        prof = InitialProfile.gaussian_bump(2.0, 0.3, 1.5, center=0.5, dx=0.1)
        assert np.abs(prof.samples).max() * prof.dx >= 0.2
        self._check_all(prof, np.array([0.3, 4.0]))


def _omega_direct(profile, side, edges, z):
    """The sixth-order Magnus exponent of Blanes, Casas & Ros of every cell at
    one z = i k, from full 2x2 matrices: (cells, 2, 2)."""
    sign = 1.0 if side == 1 else -1.0
    h = sign * np.diff(edges)
    x = sign * (edges[:-1, None] + scattering._GAUSS3 * np.diff(edges)[:, None])
    M = np.empty(x.shape + (2, 2), dtype=complex)
    M[..., 0, 0], M[..., 1, 1] = -z, z
    M[..., 0, 1], M[..., 1, 0] = profile.q0(x), -np.conj(profile.q0(-x))
    M *= h[:, None, None, None]
    a1 = M[:, 1]
    a2 = np.sqrt(15.0) / 3.0 * (M[:, 2] - M[:, 0])
    a3 = 10.0 / 3.0 * (M[:, 2] - 2.0 * M[:, 1] + M[:, 0])

    def comm(X, Y):
        return X @ Y - Y @ X

    c1 = comm(a1, a2)
    c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
    return a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _side1_edges(profile, pad):
    """The sample cells from -L to 0, as _propagate cuts them with split 1,
    and ``pad`` padding cells of length 0."""
    n = profile.samples.size
    knots = profile._x[: (n + 1) // 2]
    knots = np.append(knots[:-1], 0.0) if n % 2 else np.append(knots, 0.0)
    return np.append(knots, np.zeros(pad))


class TestMagnusExponents:
    """The cubic in z that _magnus_exponents reads off four samples is the
    exponent itself: at a fifth z it matches a direct evaluation, so no
    degree above 3 aliases into the coefficients."""

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("partial_cell", [False, True])
    def test_fifth_point(self, verif_profile, side, partial_cell):
        profile = verif_profile
        if partial_cell:
            # an even sample count: the last cell, up to 0, is partial
            profile = InitialProfile(0.5, 8.0, 0.5 + 0.3j * np.exp(
                -(np.linspace(-8.0, 8.0, 200) - 0.4) ** 2 / 0.5))
        edges = _side1_edges(profile, pad=5)
        omega, h = scattering._magnus_exponents(profile, side, edges)
        r = 1.0 / np.abs(h).max()
        for z in (0.5 * r * np.exp(1j), 0.3j * r):
            want = _omega_direct(profile, side, edges, z)
            a, b, c = (scattering._horner(coef, np.array([z]))[:, 0]
                       for coef in omega)
            got = np.stack([a, b, c, -a], axis=-1).reshape(-1, 2, 2)
            assert np.abs(got - want).max() < 2e-15 * np.abs(want).max()
        # padding cells step by the identity
        assert not np.any([coef[:, -5:] for coef in omega])


class TestBatchIndependence:
    # fixed cell blocks: a k-point's values do not depend on its batch

    def test_line_table_batch(self, verif_table):
        grid = np.concatenate([
            mapdomain(chebpts1(scattering._LINE_NODES), [-1, 1], p.domain)
            for p in verif_table.line])
        profile = verif_table.profile
        batch = np.array(scattering_data(profile, grid))
        for i in range(0, grid.size, 25):
            alone = np.array(scattering_data(profile, grid[i]))
            assert np.array_equal(batch[:, i], alone)

    def test_validate_contour_batch(self):
        # a1 on validate's upper contour, a far point, and one whose cells
        # are cut in four (four segments), on a support of 8001 samples
        profile = InitialProfile.gaussian_bump(0.5, -0.2, 1.0, chirp=0.3,
                                               center=0.8, L=40.0)
        ks = np.append(_validate_upper_contour(profile.A, per_edge=3),
                       [0.3 + 45j, 150.0 + 1j])
        batch = scattering_data(profile, ks, only="a1")
        for i in [*range(0, ks.size, 4), -2, -1]:
            assert batch[i] == scattering_data(profile, ks[i], only="a1")


class TestSpectralFunctions:
    def test_pure_background_identity(self, bg_profile):
        ks = np.linspace(-4, 4, 21)
        ks = ks[np.abs(ks) > 1e-9]
        a1, a2, b1, b2 = scattering_data(bg_profile, ks)
        assert np.abs(a1 - 1).max() < 1e-10
        assert np.abs(a2 - 1).max() < 1e-10
        assert max(np.abs(b1).max(), np.abs(b2).max()) < 1e-10

    def test_unimodularity(self, verif_profile):
        ks = np.linspace(-6, 6, 100)
        ks = ks[np.abs(ks) > 1e-9]
        a1, a2, b1, b2 = scattering_data(verif_profile, ks)
        assert np.abs(a1 * a2 + b1 * b2 - 1).max() < 1e-8

    def test_b_symmetry(self, verif_profile):
        ks = np.linspace(0.1, 5, 40)
        b2 = scattering_data(verif_profile, ks)[3]
        b1m = scattering_data(verif_profile, -ks)[2]
        assert np.abs(b2 - np.conj(b1m)).max() < 1e-8

    def test_a_symmetry_complex(self, verif_profile, rng):
        ks = rng.uniform(-2, 2, 10) + 1j * rng.uniform(0.1, 1.5, 10)
        a1 = scattering_data(verif_profile, ks)[0]
        a1m = scattering_data(verif_profile, -np.conj(ks))[0]
        assert np.abs(np.conj(a1m) - a1).max() < 1e-8
        a2 = scattering_data(verif_profile, np.conj(ks))[1]
        a2m = scattering_data(verif_profile, -ks)[1]
        assert np.abs(np.conj(a2m) - a2).max() < 1e-8

    def test_unimodularity_on_cut(self, verif_profile):
        y = np.linspace(-0.45, 0.45, 13)
        a1, a2, b1, b2 = scattering_data(verif_profile, 1j * y)
        assert np.abs(a1 * a2 + b1 * b2 - 1).max() < 1e-8

    def test_endpoint_growth_bounded(self, verif_profile):
        # (k - iA)^(1/2) * a_j stays bounded approaching iA along the cut
        A = verif_profile.A
        y = A * (1 - np.geomspace(1e-6, 1e-2, 10))
        a1 = scattering_data(verif_profile, 1j * y)[0]
        scaled = np.abs(np.sqrt(np.abs(1j * y - 1j * A)) * a1)
        assert scaled.max() < 10 * scaled.min() + 1.0

    def test_cauchy_reconstruction(self, verif_profile):
        # a1 - 1 is analytic and O(1/k) in the upper half plane away from
        # the cut sleeve: reconstruct interior values from boundary samples
        # via piecewise Gauss-Legendre along the closed contour
        A = verif_profile.A
        K, eps, s = 12.0, 1e-3, 1e-3
        verts = [-K + 1j * eps, -s + 1j * eps, -s + 1j * (A + s),
                 s + 1j * (A + s), s + 1j * eps, K + 1j * eps, K + 1j * K,
                 -K + 1j * K, -K + 1j * eps]
        x16, w16 = np.polynomial.legendre.leggauss(16)
        nodes, weights = [], []

        def add_piece(lo, hi):
            nodes.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x16)
            weights.append(0.5 * (hi - lo) * w16)

        for a, b in zip(verts[:-1], verts[1:]):
            # the sqrt-type growth of a1 at iA sits a distance ~s from the
            # sleeve top: grade the subdivisions toward that corner
            near_a = abs(a - 1j * A) < 0.1
            near_b = abs(b - 1j * A) < 0.1
            if near_a or near_b:
                ts = np.concatenate(([0.0], 0.5 ** np.arange(12, -1, -1)))
                if near_b:
                    edges = a + (b - a) * (1 - ts[::-1])
                else:
                    edges = a + (b - a) * ts
                for lo, hi in zip(edges[:-1], edges[1:]):
                    add_piece(lo, hi)
            else:
                npieces = max(1, int(np.ceil(abs(b - a) / 0.75)))
                for j in range(npieces):
                    add_piece(a + (b - a) * j / npieces,
                              a + (b - a) * (j + 1) / npieces)
        nodes = np.concatenate(nodes)
        weights = np.concatenate(weights)
        # boundary values from the two-column path, interior ones from the
        # full Jost matrices: the reconstruction also cross-checks the two
        vals = scattering_data(verif_profile, nodes, only="a1") - 1
        targets = np.array([0.4 + 0.9j, -1.1 + 1.4j, 0.8 + 2.2j])
        direct = scattering_data(verif_profile, targets)[0] - 1
        for k, ref in zip(targets, direct):
            cauchy = np.sum(weights * vals / (nodes - k)) / (2j * np.pi)
            assert abs(cauchy - ref) < 1e-6


def _validate_upper_contour(A, K=12.0, eps=1e-3, s=1e-3, per_edge=6):
    """validate_assumptions' upper contour, vertices included: the sleeve
    around (0, iA] and the corner K + iK."""
    verts = [-K + 1j * eps, -s + 1j * eps, -s + 1j * (A + s), s + 1j * (A + s),
             s + 1j * eps, K + 1j * eps, K + 1j * K, -K + 1j * K, -K + 1j * eps]
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    return np.concatenate([a + t * (b - a) for a, b in zip(verts[:-1], verts[1:])])


class TestSingleDeterminant:
    # the kept columns solve the same ODE as in the full matrix: only the
    # columns integrated beside them differ between the paths

    def test_a1_matches_full_path_upper(self, verif_profile):
        ks = _validate_upper_contour(verif_profile.A)
        one = scattering_data(verif_profile, ks, only="a1")
        full = scattering_data(verif_profile, ks)[0]
        assert np.max(np.abs(one - full) / np.abs(full)) < 1e-10

    def test_a2_matches_full_path_lower(self, verif_profile):
        ks = np.conj(_validate_upper_contour(verif_profile.A))
        one = scattering_data(verif_profile, ks, only="a2")
        full = scattering_data(verif_profile, ks)[1]
        assert np.max(np.abs(one - full) / np.abs(full)) < 1e-10

    def test_pure_background_far_off_axis(self, bg_profile):
        ks = np.array([12j, 12 + 12j])
        assert np.abs(scattering_data(bg_profile, ks, only="a1") - 1).max() < 1e-10
        assert np.abs(scattering_data(bg_profile, np.conj(ks), only="a2")
                      - 1).max() < 1e-10

    def test_scalar_input(self, verif_profile):
        k = 0.7 + 0.4j
        a1 = scattering_data(verif_profile, k, only="a1")
        assert isinstance(a1, complex)
        assert abs(a1 - scattering_data(verif_profile, k)[0]) < 1e-10

    def test_unknown_name(self, verif_profile):
        with pytest.raises(ValueError):
            scattering_data(verif_profile, 0.5, only="r1")


class TestReflection:
    def test_pure_background_zero(self, bg_profile):
        r1, r2 = SpectralTable(bg_profile).reflection_at(np.array([0.9, -2.2]))
        assert max(np.abs(r1).max(), np.abs(r2).max()) < 1e-10

    def test_bounded_near_endpoints(self, verif_profile):
        A = verif_profile.A
        y = A * (1 - np.geomspace(1e-5, 1e-1, 10))
        r1, r2 = SpectralTable(verif_profile).reflection_at(1j * y)
        assert np.abs(r1).max() < 50
        assert np.abs(r2).max() < 50

    def test_decay_on_real_axis(self, verif_profile):
        r1, r2 = SpectralTable(verif_profile).reflection_at(np.array([1e3]))
        assert abs(1e3 * r1[0]) < 10
        assert abs(1e3 * r2[0]) < 10


def _count_kpoints(monkeypatch):
    """A list that receives the number of k-points of every
    scattering_data call."""
    counted = []
    plain = scattering.scattering_data

    def counting(profile, k, *args, **kwargs):
        counted.append(np.size(k))
        return plain(profile, k, *args, **kwargs)

    monkeypatch.setattr(scattering, "scattering_data", counting)
    return counted


@pytest.fixture(scope="module")
def box_table():
    """The box profile's line table and the k-points its construction took."""
    with pytest.MonkeyPatch.context() as mp:
        counted = _count_kpoints(mp)
        table = SpectralTable(InitialProfile.box(0.5, -0.1, 1.0))
        table.k_tail
    return table, sum(counted)


class TestSpectralTable:
    def test_log_rr_matches_direct(self, verif_table):
        ks = np.random.default_rng(3).uniform(-verif_table.k_tail, -0.5e-4, 64)
        direct = np.log(verif_table.rr(ks))
        assert np.abs(verif_table.log_rr(ks) - direct).max() < 1e-13

    def test_line_table_kpoints(self, verif_profile, monkeypatch):
        # the tail search and one batch of first-kind nodes
        counted = _count_kpoints(monkeypatch)
        table = SpectralTable(verif_profile)
        table.k_tail
        assert sum(counted) <= 256
        assert table.line_resolution <= scattering._LINE_TOL

    def test_box_tail_resolution(self, box_table):
        # r1 r2 oscillates with period about pi out to k_tail ~ 3900: the
        # table either resolves it or records a resolution no smaller than
        # its error at random points, and stays within 2 592 k-points
        table, kpoints = box_table
        assert kpoints <= 2592
        ks = np.random.default_rng(5).uniform(
            -table.k_tail, table.line[-1].domain[1], 200)
        err = np.abs(table.log_rr(ks) - np.log(table.rr(ks))).max()
        assert (table.line_resolution <= scattering._LINE_TOL
                or err <= table.line_resolution)

    def test_box_tail_below_target_over_a_period(self, box_table):
        # a probe at a near-zero of the oscillating r1 r2 (k = -2627.4, where
        # it peaks at 2.5e-12 within 2 to the left) does not end the table
        table, _ = box_table
        ks = np.linspace(-table.k_tail - 2.0, -table.k_tail, 41)
        r1, r2 = table.reflection_at(ks)
        assert np.abs(r1 * r2).max() < scattering._TAIL_TARGET

    def test_slope_matches_difference(self, verif_table):
        h = 1e-4
        k = -0.9
        diff = (verif_table.log_rr(k + h) - verif_table.log_rr(k - h)) / (2 * h)
        assert abs(verif_table.log_rr(k, 1) - diff) < 1e-8

    def test_tail_is_zero_extended(self, verif_table):
        assert verif_table.log_rr(-verif_table.k_tail * 3) == 0.0

    def test_winding_small_for_verif_profile(self, verif_table):
        assert verif_table.max_abs_winding(-1e-4) < 0.2

    @pytest.mark.parametrize("k_stop", [-0.5 / np.sqrt(2.0), -0.5e-4, -1.0])
    def test_winding_is_sup_of_series(self, verif_table, k_stop):
        dense = np.linspace(-verif_table.k_tail, k_stop, 20001)
        sup = np.abs(verif_table.log_rr(dense).imag).max()
        got = verif_table.max_abs_winding(k_stop)
        assert sup - 1e-15 <= got <= sup + 1e-9


class TestValidateAssumptions:
    def test_verification_profile_clean(self, verif_table):
        ray = classify_ray(1.2, 0.5)
        [rep] = validate_assumptions(verif_table, [ray])
        assert rep.zero_count_upper == 0
        assert rep.zero_count_lower == 0
        assert rep.winding_ok
        assert rep.max_abs_winding < np.pi

    def test_zeros_counted_once_for_all_rays(self, verif_table, monkeypatch):
        calls = []
        winding = scattering._winding_on_polyline

        def counting(eval_fn, verts):
            calls.append(verts)
            return winding(eval_fn, verts)

        monkeypatch.setattr(scattering, "_winding_on_polyline", counting)
        rays = [classify_ray(xi, 0.5) for xi in (1.2, 0.35, 0.7)]
        reports = validate_assumptions(verif_table, rays)
        # one contour in each half plane, whatever the number of rays
        assert len(calls) == 2
        assert [rep.region_checked for rep in reports] == rays
        for ray, rep in zip(rays, reports):
            assert rep.max_abs_winding == verif_table.max_abs_winding(
                winding_k_stop(ray, 0.5))

    def test_winding_refines_wide_phase_gaps(self):
        # z^60 turns 15 times along each edge of the square with corners
        # +-1 +-i: 48 samples per edge leave phase gaps of 1.96, so the
        # polyline is refined before it counts
        calls = []

        def power(z):
            calls.append(z.size)
            return z**60

        verts = [1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
        assert scattering._winding_on_polyline(power, verts) == 60
        assert calls[0] == 4 * 48 + 1 and len(calls) > 1

    def test_k_stop_by_region(self):
        assert winding_k_stop(classify_ray(1.2, 0.5), 0.5) == -0.5 / np.sqrt(2.0)
        assert winding_k_stop(classify_ray(0.35, 0.5), 0.5) == -0.5e-4

    def test_pure_background(self, bg_profile):
        [rep] = validate_assumptions(SpectralTable(bg_profile),
                                     [classify_ray(2.0, 1.0)])
        assert rep.zero_count_upper == 0
        assert rep.zero_count_lower == 0
        assert rep.max_abs_winding < 1e-10

    @pytest.mark.slow
    def test_engineered_zero_detected(self):
        # a raised centered bump carries a discrete zero just above iA
        prof = InitialProfile.gaussian_bump(0.5, 0.2, 1.0, chirp=0.3,
                                            center=0.0)
        tab = SpectralTable(prof)
        [rep] = validate_assumptions(tab, [classify_ray(1.2, 0.5)])
        assert rep.zero_count_upper >= 1
        # an even profile couples like the local equation: a2(k) is
        # conj(a1(conj k)), so the lower contour sees the mirrored zeros
        assert rep.zero_count_lower == rep.zero_count_upper
        # oracle: locate the zero by a dense 2-d scan of |a1| (it sits on the
        # imaginary axis just above iA, so mask only up to the cut endpoint)
        xs = np.linspace(-0.4, 0.4, 17)
        ys = np.linspace(0.45, 0.75, 17)
        KK = (xs[None, :] + 1j * ys[:, None]).ravel()
        KK = KK[~((np.abs(KK.real) < 0.03) & (KK.imag <= 0.505))]
        a1 = scattering_data(prof, KK)[0]
        k_min = KK[np.argmin(np.abs(a1))]
        for it in range(3):
            loc = k_min + 0.5**it * 0.02 * (
                np.linspace(-1, 1, 9)[None, :] + 1j * np.linspace(-1, 1, 9)[:, None]
            ).ravel()
            loc = loc[loc.imag > 0.505]
            a1l = scattering_data(prof, loc)[0]
            k_min = loc[np.argmin(np.abs(a1l))]
        assert np.abs(a1l).min() < 0.01
        # downstream ops refuse through the harness path
        from nnlslab.harness import RunConfig, run
        from nnlslab.simulator import SimGrid

        cfg = RunConfig(profile=prof, A=0.5, rays=[1.2], t_list=[2.0],
                        grid=SimGrid(L_box=32.0, N=1024, dt=0.004, t_max=2.0))
        rep2 = run(cfg)
        assert rep2.rays[0].skipped
        assert "zeros" in rep2.rays[0].reason
