"""Tests for Gaussian Wigner samples held as a band matrix, and their solve.

A Gaussian Wigner sample on the leading coordinates holds the band matrix
``T`` of a block Householder reduction of GOE.  These tests check its law
against dense GOE, its lazily built dense matrices, and the certified solve
of its extreme values and pairs against dense ``eigvalsh``/``eigh`` of the
sample's own ``perturbed`` matrix.
"""

import hashlib
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meso_spectra import (
    EntryLaw,
    Model,
    ModelError,
    ModelKind,
    PerturbationSpec,
    RngStream,
    partial,
    perturb_additive,
    sample_wigner,
)
from meso_spectra import band as band_algebra
from meso_spectra.ensembles import Band, Dense, Diagonal, eigensolve, sample_ensemble
from meso_spectra.partial import FILTER_TOLERANCE
from meso_spectra.experiments import harness, run_experiment
from meso_spectra.experiments.config import ExperimentConfig

# The size rule and the count as shipped, before any test patches them.
ROWS_PER_PAIR = partial.FILTER_ROWS_PER_PAIR
BAND_INERTIA = band_algebra.inertia


def wigner_sample(n, thetas, seed=0, stream=0):
    return sample_ensemble(Model.wigner(), PerturbationSpec.from_values(thetas), n,
                           RngStream(seed, stream))


def band_sample(band, thetas, stream_id=0):
    """A Wigner sample on an explicit band."""
    pert = PerturbationSpec.from_values(thetas)
    return Band(
        frame=None, thetas=pert.thetas, kind=ModelKind.WIGNER, n=band.rows,
        m=pert.m, master_seed=0, stream_id=stream_id, law=EntryLaw.GAUSSIAN,
        band=band,
    )


def extreme_indices(sample):
    """Where the values of a band solve sit in the full spectrum."""
    n, m = sample.n, sample.m
    upper = int(np.count_nonzero(sample.thetas > 0.0))
    return np.r_[np.arange(upper), np.arange(n - (m - upper), n)]


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    both = np.sort(np.concatenate((a, b)))
    fa = np.searchsorted(np.sort(a), both, side="right") / a.size
    fb = np.searchsorted(np.sort(b), both, side="right") / b.size
    return float(np.abs(fa - fb).max())


class TestBandLaw:
    def test_matches_dense_goe(self):
        # The top eigenvalue and its eigenvector's squared projection on the
        # strengths' coordinates, band model against dense GOE, 1000 draws
        # each; the 5% two-sample critical value is 1.358 sqrt(2 / 1000).
        n, draws = 120, 1000
        pert = PerturbationSpec.from_values([3.0, 2.0, 1.5, 0.5])

        def top(matrices):
            vals, vecs = np.linalg.eigh(np.stack(matrices))
            lead = vecs[:, : pert.m, -1]
            return vals[:, -1], np.sum(lead * lead, axis=1)

        band = top([sample_ensemble(Model.wigner(), pert, n, RngStream(61, i)).perturbed
                    for i in range(draws)])
        dense = top([perturb_additive(sample_wigner(n, EntryLaw.GAUSSIAN, RngStream(62, i)),
                                      pert) for i in range(draws)])
        critical = 1.358 * np.sqrt(2.0 / draws)
        assert ks_distance(band[0], dense[0]) < critical
        assert ks_distance(band[1], dense[1]) < critical

    def test_entry_moments(self):
        # n T[i, j]^2 has mean 2 on the diagonal, 1 inside the band and
        # n - w - i (chi-square degrees of freedom) at T[i + w, i], the
        # diagonals of the blocks below; each sample mean of the stacks'
        # entries must lie within 5 standard errors.
        n, width, draws = 12, 4, 4000
        count = n // width
        stacks = [wigner_sample(n, [2.0] * width, seed=74, stream=i).band
                  for i in range(draws)]
        squares = n * np.stack([np.concatenate((t.diag, t.below)) for t in stacks]) ** 2
        dof = np.arange(n - width, 0, -1).reshape(count - 1, width)
        # Var(g^2) = 2 for g ~ N(0, 1) and Var(chi_k^2) = 2k.
        expected, variance = np.zeros((2, 2 * count - 1, width, width))
        expected[:count], variance[:count] = 1.0, 2.0
        inside = np.arange(width)
        expected[:count, inside, inside], variance[:count, inside, inside] = 2.0, 8.0
        rows, cols = np.triu_indices(width, 1)  # a Bartlett triangle's normals
        expected[count:, rows, cols], variance[count:, rows, cols] = 1.0, 2.0
        expected[count:, inside, inside], variance[count:, inside, inside] = dof, 2.0 * dof
        error = np.abs(squares.mean(axis=0) - expected)
        assert np.all(error <= 5.0 * np.sqrt(variance / draws))

    @pytest.mark.parametrize("n,m", [(50, 4), (53, 4), (30, 1), (12, 0), (7, 7)])
    def test_band_shape_and_entries(self, n, m):
        sample = wigner_sample(n, np.linspace(3.0, 1.0, m), seed=63)
        width, t = max(m, 1), sample.band
        count = -(-n // width)
        assert isinstance(sample, Band) and t.rows == n
        assert t.diag.shape == (count, width, width)
        assert t.below.shape == (count - 1, width, width)
        base = sample.base
        rows, cols = np.indices((n, n))
        assert not base[np.abs(rows - cols) > width].any()
        # The stacks hold T's blocks, zero past its last row.
        padded = np.zeros((count * width, count * width))
        padded[:n, :n] = base
        blocks = padded.reshape(count, width, count, width)
        for k in range(count):
            assert np.array_equal(blocks[k, :, k], t.diag[k])
            if k:
                assert np.array_equal(blocks[k, :, k - 1], t.below[k - 1])
        # chi of n - width - i degrees of freedom on the outermost diagonal.
        assert (np.diagonal(base, -width) > 0.0).all()

    # sha256 of the stacks' bytes (diag, below) of band.goe at stream (0, 0),
    # as recorded when goe drew into (w + 1) x n lower band storage and the
    # stacks were cut from it; 1003 = 143 * 7 + 2 pads its last block.
    GOLDEN_STACKS = {
        (2000, 10): ("5ff0ffdb70343fe1d25f52778069ec3b9896e4526bf3ab93fa468f7ebb0e48f1",
                     "3869bcf0e458c473dacfed6f55fc43fd5034b316a63705b0721fabcd86a50395"),
        (1003, 7): ("3593bf439a6f284de87010b392c1b88a13957f6a1cf7ed1451ef1116b26782d6",
                    "aa54dd754953f4b65a0a55bb60886273d0a10dc27d8b20e206492d166b89e878"),
        (300, 1): ("91df257cd070c5d64b7fd43507aa1ff20dd5098e0a9ac60a7b7751574e8c38b8",
                   "be1e441bfc7019c52dbb34fbd73995019ea03c3bafcad0cf6be487b0cd1f8de7"),
    }

    @pytest.mark.parametrize("n,width", sorted(GOLDEN_STACKS))
    def test_stacks_bits_pinned(self, n, width):
        t = band_algebra.goe(n, width, RngStream(0, 0).generator())
        assert t.rows == n
        assert (hashlib.sha256(t.diag.tobytes()).hexdigest(),
                hashlib.sha256(t.below.tobytes()).hexdigest()) == self.GOLDEN_STACKS[n, width]

    def test_only_gaussian_unframed_wigner_is_banded(self):
        pert = PerturbationSpec.from_values([2.0])
        rademacher = sample_ensemble(Model.wigner(), pert, 30, RngStream(64, 0),
                                     EntryLaw.RADEMACHER)
        framed = sample_ensemble(Model.wigner(), pert.with_frame(np.eye(30)[:, 1:2]),
                                 30, RngStream(64, 0))
        wishart = sample_ensemble(Model.wishart(0.5), pert, 30, RngStream(64, 0))
        for sample in (rademacher, framed, wishart):
            assert isinstance(sample, Dense)

    def test_rank_above_size(self):
        with pytest.raises(ModelError, match="exceeds matrix size"):
            wigner_sample(3, [2.0] * 4)


class TestBandStructuredSample:
    """A band sample builds its dense matrices on first read and keeps them."""

    @pytest.mark.parametrize("thetas", [[2.0, -0.5, 1.2], []], ids=["rank-3", "rank-0"])
    def test_dense_matrices_lazy_cached_read_only(self, thetas):
        sample = wigner_sample(61, thetas, seed=65)
        assert not {"base", "perturbed"} & vars(sample).keys()
        base = sample.base
        assert {"base", "perturbed"} & vars(sample).keys() == {"base"}
        perturbed = sample.perturbed
        assert np.array_equal(base, base.T) and np.array_equal(perturbed, perturbed.T)
        # They differ exactly by the strengths on the leading diagonal.
        pert = PerturbationSpec.from_values(thetas)
        assert np.array_equal(perturbed, perturb_additive(base, pert))
        for name in ("base", "perturbed"):
            first = getattr(sample, name)
            assert getattr(sample, name) is first
            with pytest.raises(ValueError):
                first[0, 0] = 9.9
        for stack in (sample.band.diag, sample.band.below):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 9.9

    def test_sample_holds_one_structure(self):
        provenance = dict(frame=None, thetas=np.empty(0), n=2, m=0,
                          master_seed=0, stream_id=0, law=None)
        band = band_algebra.Blocks(np.zeros((2, 1, 1)), np.zeros((1, 1, 1)), 2)
        with pytest.raises(ModelError, match="its band or its dense matrices alone"):
            Diagonal(kind=ModelKind.WIGNER, d=np.ones(2), **provenance)
        with pytest.raises(ModelError, match="its dense matrices alone"):
            Band(kind=ModelKind.WISHART, band=band, **provenance)
        with pytest.raises(ModelError, match="its diagonal alone"):
            Band(kind=ModelKind.ORTH_INVARIANT_ADDITIVE, band=band, **provenance)

    def test_reproducible(self):
        a = wigner_sample(40, [2.0, -1.5], seed=66, stream=3)
        b = wigner_sample(40, [2.0, -1.5], seed=66, stream=3)
        other = wigner_sample(40, [2.0, -1.5], seed=66).band
        for name in ("diag", "below"):
            assert np.array_equal(getattr(a.band, name), getattr(b.band, name))
            assert not np.array_equal(getattr(a.band, name), getattr(other, name))


class TestBandBlocks:
    """The block stacks of T, and T x through them."""

    @pytest.mark.parametrize("n,width", [
        (50, 4),    # a padded last block
        (48, 4),    # whole blocks
        (30, 1),    # T tridiagonal
        (7, 7),     # one block
        (503, 10),  # a padded last block, bench-wide
    ])
    def test_apply_matches_dense(self, n, width):
        # Within a few ulps of |T| |x| of the dense product, per column.
        gen = RngStream(77, n).generator()
        stacks = band_algebra.with_strengths(band_algebra.goe(n, width, gen),
                                             np.linspace(3.0, -2.0, width))
        x = gen.standard_normal((n, 5))
        dense = band_algebra.window(stacks, n)
        y = stacks.apply(x)
        assert y.shape == (n, 5)
        bound = 4.0 * np.finfo(float).eps * np.linalg.norm(dense, 2) * np.linalg.norm(x, axis=0)
        assert (np.abs(y - dense @ x).max(axis=0) <= bound).all()

    @pytest.mark.parametrize("n,width,occupied", [
        (2000, 10, 36),  # bench-shaped: vectors on 360 of 2000 rows
        (503, 10, 7),    # a padded last block
        (60, 1, 20),     # T tridiagonal
    ])
    def test_working_rows_product_is_exact(self, n, width, occupied):
        # Vectors on T's leading ``occupied`` blocks: their product on those
        # blocks and one zero block below is the product on all n rows, bit
        # for bit, and the full product is exactly zero below.  Without the
        # zero block the product would miss the nonzero rows just below the
        # vectors, where B_k x_k lands.
        gen = RngStream(79, n).generator()
        stacks = band_algebra.with_strengths(band_algebra.goe(n, width, gen),
                                             np.linspace(2.4, 1.5, width))
        rows = occupied * width
        x = np.zeros((n, 4))
        x[:rows] = gen.standard_normal((rows, 4))
        full = stacks.apply(x)
        working = rows + width
        assert np.array_equal(stacks.apply(x[:working]), full[:working])
        assert not full[working:].any()
        assert (np.abs(full[rows:working]).max(axis=0) > 0.0).all()
        assert (np.linalg.norm(stacks.apply(x[:rows]), axis=0)
                < np.linalg.norm(full, axis=0)).all()

    def test_leading_at_the_full_block_count_is_all_of_t(self):
        # n = 2005, w = 10: 201 blocks, the last padded.  From 201 blocks on
        # the leading stacks are T's own, with T's 2005 rows, so a product
        # takes a 2005-row block and the count stays T's.
        n, width = 2005, 10
        gen = RngStream(80, n).generator()
        stacks = band_algebra.with_strengths(band_algebra.goe(n, width, gen),
                                             np.linspace(2.4, 1.5, width))
        x = gen.standard_normal((n, 3))
        for count in (201, 202, 400):
            leading = stacks.leading(count)
            assert leading.rows == n
            assert np.array_equal(leading.apply(x), stacks.apply(x))
            below, _ = BAND_INERTIA(leading, np.array([2.5]))
            dense = np.linalg.eigvalsh(band_algebra.window(stacks, n))
            assert below.tolist() == [np.count_nonzero(dense < 2.5)]
        assert stacks.leading(200).rows == 2000


def counted_inertia(monkeypatch):
    """Each count of the band solve: the shapes ``np.linalg.eigh`` was
    called on during it, its block stacks, its shifts and its result."""
    shapes, counts = [], []
    real = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    def inertia(blocks, shifts):
        shapes.clear()
        found = BAND_INERTIA(blocks, shifts)
        counts.append((list(shapes), blocks, shifts.copy(), found))
        return found

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(band_algebra, "inertia", inertia)
    return counts


def eigh_path_inertia(blocks, shifts):
    """``band.inertia`` with every level diagonalized by ``eigh``, as when
    each level's Cholesky raises."""
    def not_definite(*args, **kwargs):
        raise np.linalg.LinAlgError("not definite")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", not_definite)
        return BAND_INERTIA(blocks, shifts)


class TestBandInertia:
    """Sylvester's inertia of T - c I by block cyclic reduction, its
    eliminated pivots proved definite by Cholesky."""

    @given(st.integers(1, 12), st.integers(2, 40), st.booleans(),
           st.lists(st.sampled_from(["above", "below", "inside"]), min_size=1, max_size=3),
           st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=80, deadline=None)
    def test_counts_match_dense(self, width, count, padded, places, seed):
        # Shifts beyond the bulk's edges at +-2, where the solve's cuts lie,
        # and inside the spectrum, mixed in one batch.  A definite level's
        # row-sum norms lie between the 2-norms and sqrt(w) times them.
        gen = RngStream(78, seed).generator()
        n = count * width - (int(gen.integers(1, width)) if padded and width > 1 else 0)
        blocks = band_algebra.with_strengths(band_algebra.goe(n, width, gen),
                                             gen.uniform(-3.0, 3.0, width))
        dense = np.linalg.eigvalsh(band_algebra.window(blocks, n))
        place = {"above": lambda: gen.uniform(2.1, 3.5),
                 "below": lambda: gen.uniform(-3.5, -2.1),
                 "inside": lambda: gen.uniform(dense[0], dense[-1])}
        shifts = np.array([place[where]() for where in places])
        below, delta = band_algebra.inertia(blocks, shifts)
        assert below.tolist() == [np.count_nonzero(dense < c) for c in shifts]
        eigh_below, eigh_delta = eigh_path_inertia(blocks, shifts)
        assert np.array_equal(below, eigh_below)
        assert (eigh_delta * (1.0 - 1e-6) <= delta).all()
        assert (delta <= math.sqrt(width) * eigh_delta * (1.0 + 1e-6)).all()

    def test_bench_shaped_count_diagonalizes_the_leading_block_alone(self, monkeypatch):
        # n = 2000, M = 10: every eliminated pivot of the count at the
        # solve's cut is definite, so eigh runs once, on the last level's
        # leading block, and delta is within 1.5 times the eigh path's.
        n, m = 2000, 10
        counts = counted_inertia(monkeypatch)
        for stream in range(3):
            sample = wigner_sample(n, np.linspace(2.4, 1.5, m), seed=75, stream=stream)
            assert eigensolve(sample, vectors=False).shape == (m,)
        assert len(counts) == 3
        for shapes, blocks, shifts, (below, delta) in counts:
            assert shapes == [(1, m, m)]
            eigh_below, eigh_delta = eigh_path_inertia(blocks, shifts)
            assert np.array_equal(below, eigh_below)
            assert (eigh_delta <= delta).all() and (delta <= 1.5 * eigh_delta).all()


def assert_matches_dense(sample):
    """Values and pairs of ``eigensolve(sample)`` against dense
    ``eigvalsh``/``eigh`` of ``sample.perturbed``; returns whether the band
    solve answered both (a fallback must return the dense bits)."""
    values = eigensolve(sample, vectors=False)
    vals, vecs = eigensolve(sample)
    dense_values = np.linalg.eigvalsh(sample.perturbed)[::-1]
    dense_vals, dense_vecs = eigensolve(sample.perturbed)
    n, m = sample.n, sample.m
    scale = FILTER_TOLERANCE * max(1.0, float(np.max(np.abs(dense_values))))
    idx = extreme_indices(sample)
    answered = []
    if values.size == n:
        assert np.array_equal(values, dense_values)
    else:
        assert values.shape == (m,)
        assert np.max(np.abs(values - dense_values[idx]), initial=0.0) <= scale
    answered.append(values.size == m)
    if vals.size == n:
        assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)
    else:
        assert vals.shape == (m,) and vecs.shape == (n, m)
        assert np.max(np.abs(vals - dense_vals[idx]), initial=0.0) <= scale
        for j, i in enumerate(idx):
            ours = harness._cluster_bounds(vals, j)
            theirs = harness._cluster_bounds(dense_vals, i)
            assert (ours[1] - ours[0] > 1) == (theirs[1] - theirs[0] > 1)
            # Within angle FILTER_TOLERANCE of the eigenvector, so the
            # squared projection is within twice that.
            assert abs(np.sum(vecs[:m, j] ** 2) - np.sum(dense_vecs[:m, i] ** 2)) <= 1e-11
    answered.append(vals.size == m)
    return answered


@st.composite
def band_configs(draw):
    """Strong strengths of both signs, and at times one near the threshold
    or below it (M = 0 is a case of its own below)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(60, 500))
    thetas = [draw(st.floats(2.5, 5.0)) for _ in range(m)]
    if draw(st.booleans()):
        thetas[0] = draw(st.one_of(st.floats(1.0, 1.3), st.floats(0.02, 0.9)))
    return n, [theta * draw(st.sampled_from([1.0, -1.0])) for theta in thetas]


@st.composite
def sweep_configs(draw):
    """Strengths whose outliers sweeps must tell apart: repeated, 10^-k
    apart, of both signs, and at times one near the threshold or below."""
    theta = draw(st.floats(1.5, 3.0))
    apart = theta * (1.0 + 10.0 ** -draw(st.integers(1, 12)))
    thetas = draw(st.sampled_from([
        [theta] * 3, [theta, apart], [theta, -theta, apart, -apart]]))
    if draw(st.integers(0, 3)) == 0:
        thetas = thetas + [draw(st.one_of(st.floats(0.9, 1.1), st.floats(0.02, 0.9)))]
    sign = draw(st.sampled_from([1.0, -1.0]))
    return draw(st.integers(250, 600)), [sign * t for t in thetas]


FALLBACK_REASONS = ("step cap reached", "near-singular pivot block", "count disagrees",
                    "certificate failed")


# A bench-shaped band solve (n = 2000, M = 10, strengths linspace(2.4, 1.5),
# seed 75, stream 0) as float.hex, recorded while the solve held every Ritz
# vector on all n rows.
GOLDEN_BAND_SOLVE = {
    "values": ["0x1.6fdcb7a86a845p+1", "0x1.6203b1e2f8e0ep+1", "0x1.57f84075285f5p+1", "0x1.49181ea136096p+1", "0x1.411b75663214ap+1", "0x1.32022a434589ep+1", "0x1.2f7eb43fab50ep+1", "0x1.25aa9827fe354p+1", "0x1.17ebb32a2e1ccp+1", "0x1.0acc781e99f6dp+1"],
    "pairs": ["0x1.6fdcb7a86a83ep+1", "0x1.6203b1e2f8e08p+1", "0x1.57f84075285f0p+1", "0x1.49181ea13608ep+1", "0x1.411b756632151p+1", "0x1.32022a434589ap+1", "0x1.2f7eb43fab509p+1", "0x1.25aa9827fe355p+1", "0x1.17ebb32a2e1cap+1", "0x1.0acc781e99fb8p+1"],
    "first row": ["-0x1.aded1c3d99b02p-1", "0x1.52e716e8fc8ecp-2", "0x1.231e9c849b9adp-3", "0x1.5b17126d5ddb2p-7", "-0x1.a7626b024d19bp-6", "0x1.3ebd7b2cd4fcfp-7", "0x1.e4df0d36119b1p-7", "-0x1.a45540f23ef93p-10", "-0x1.312abf34a1ac8p-5", "-0x1.e925ade1b629dp-8"],
}


class TestBandEigensolve:
    """The certified extreme values and pairs of a band sample."""

    @pytest.fixture(autouse=True)
    def band_solve_at_every_size(self, monkeypatch):
        # Small samples keep these properties fast; at the default rows per
        # pair they would take the dense path.
        monkeypatch.setattr(partial, "FILTER_ROWS_PER_PAIR", 0)

    @given(band_configs(), st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_matches_dense(self, config, seed):
        n, thetas = config
        assert_matches_dense(wigner_sample(n, thetas, seed=seed))

    @given(sweep_configs(), st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sweeps_beside_close_outliers(self, caplog, config, seed):
        # Shifts next to other outliers, or onto an eigenvalue once a
        # residual nears its tolerance: a sweep that is singular, warns or
        # is not finite must stay inside the solve, which certifies or falls
        # back with one logged reason per solve.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        caplog.clear()
        n, thetas = config
        sample = wigner_sample(n, thetas, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            answered = assert_matches_dense(sample)  # NaN fails its bounds
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == answered.count(False)
        assert set(messages) <= {f"dense eigensolve fallback: stream 0, n={n}: {reason}"
                                 for reason in FALLBACK_REASONS}

    @pytest.mark.parametrize("n,thetas", [
        (403, [3.0, 2.5, -3.5]),     # n not a multiple of M
        (300, [2.5]),                # M = 1: T is tridiagonal
        (200, []),                   # M = 0: the dense path answers
        (402, [-2.5, -4.0, -3.0]),   # lower side alone
        (500, [3.0, 3.0, 2.8, -3.0]),  # repeated strengths
    ])
    def test_band_solve_answers(self, caplog, n, thetas):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        sample = wigner_sample(n, thetas, seed=67)
        assert assert_matches_dense(sample) == [sample.m > 0] * 2
        assert caplog.records == []

    @pytest.mark.parametrize("n,thetas,vectors", [
        (2000, list(np.linspace(2.4, 1.5, 10)), False),  # sweeps, bench-shaped
        (2000, list(np.linspace(2.4, 1.5, 10)), True),
        (1000, [8.0, -8.0], False),  # certified from the grown block alone
        (600, [3.0, 2.0, -2.0, -3.0], True),
    ])
    def test_every_product_is_that_of_all_of_t(self, caplog, monkeypatch, n, thetas,
                                                vectors):
        # Each product the solve takes, on its vectors' working rows, is T's
        # product on all n rows there, bit for bit, and T's product is zero
        # below them: residuals, Rayleigh-Ritz steps and certificates are
        # those of all of T.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        products = []
        real = band_algebra.Blocks.apply

        def apply(blocks, x):
            y = real(blocks, x)
            padded = np.zeros((blocks.rows, x.shape[1]))
            padded[: x.shape[0]] = x
            full = real(blocks, padded)
            products.append((x.shape[0], np.array_equal(y, full[: x.shape[0]])
                             and not full[x.shape[0]:].any()))
            return y

        monkeypatch.setattr(band_algebra.Blocks, "apply", apply)
        found = eigensolve(wigner_sample(n, thetas, seed=81), vectors=vectors)
        assert (found[0] if vectors else found).size == len(thetas)
        assert caplog.records == []
        assert products and all(rows < n and exact for rows, exact in products)

    def test_bench_shaped_solves_are_bit_for_bit(self, caplog):
        # n = 2000, M = 10 at seed 75: the certified values, pair values and
        # the vectors' first row, as recorded when the solve still held its
        # vectors on all n rows.  Holding them on their working rows changes
        # no bit, and the returned vectors are zero below those rows.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        sample = wigner_sample(2000, np.linspace(2.4, 1.5, 10), seed=75)
        values = eigensolve(sample, vectors=False)
        vals, vecs = eigensolve(sample)
        assert caplog.records == []
        assert [float(v).hex() for v in values] == GOLDEN_BAND_SOLVE["values"]
        assert [float(v).hex() for v in vals] == GOLDEN_BAND_SOLVE["pairs"]
        assert [float(v).hex() for v in vecs[0]] == GOLDEN_BAND_SOLVE["first row"]
        assert vecs.shape == (2000, 10) and not vecs[1000:].any()

    @pytest.mark.parametrize("seed", [11, 60221])
    def test_bench_shaped_values_certificate_adds_no_eigh(self, caplog, monkeypatch,
                                                           seed):
        # n = 2000, M = 10, strengths 2.4 .. 1.5: one eigh per leading
        # window, one per Rayleigh-Ritz step and one for the count's last
        # level, its Cholesky levels all definite.  The values certificate
        # reads the last step as it stands and adds none.
        caplog.set_level(logging.DEBUG, logger="meso_spectra")
        events = []

        def spy(name, owner, attribute):
            real = getattr(owner, attribute)

            def call(*args, **kwargs):
                events.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, call)

        spy("eigh", np.linalg, "eigh")
        spy("window", band_algebra, "window")
        spy("rayleigh-ritz", partial, "_rayleigh_ritz")
        spy("count", band_algebra, "inertia")
        sample = wigner_sample(2000, np.linspace(2.4, 1.5, 10), seed=seed)
        assert eigensolve(sample, vectors=False).shape == (10,)
        assert caplog.records == []
        stages = events[0::2]
        assert events[1::2] == ["eigh"] * len(stages)
        assert "rayleigh-ritz" in stages and stages[-1] == "count"
        assert stages.count("count") == 1

    def test_draws_no_random_numbers_and_builds_no_dense_matrix(self, monkeypatch):
        sample = wigner_sample(300, [3.0, -3.0], seed=68)

        def no_generator(*args, **kwargs):
            raise AssertionError("the eigensolve must draw no random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        vals, vecs = eigensolve(sample)
        assert vals.size == 2 and vecs.shape == (300, 2)
        assert eigensolve(sample, vectors=False).size == 2
        assert not {"base", "perturbed"} & vars(sample).keys()


class TestBandFallbacks:
    """Every case the band solve cannot certify takes the logged dense path."""

    @pytest.fixture(autouse=True)
    def debug_log(self, caplog):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")

    @staticmethod
    def leading_sizes(monkeypatch):
        sizes = []
        real = band_algebra.window

        def window(band, size):
            sizes.append(size)
            return real(band, size)

        monkeypatch.setattr(band_algebra, "window", window)
        return sizes

    def fallback_reason(self, caplog, sample, vectors):
        found = eigensolve(sample, vectors=vectors)
        values = found[0] if vectors else found
        assert values.size == sample.n
        dense = (np.linalg.eigh(sample.perturbed)[0] if vectors
                 else np.linalg.eigvalsh(sample.perturbed))
        assert np.array_equal(values, dense[::-1])
        messages = [r.getMessage() for r in caplog.records]
        caplog.clear()
        assert len(messages) == 1
        return messages[0]

    @pytest.mark.parametrize("vectors", [False, True])
    def test_subcritical_strength_gives_up_early(self, caplog, monkeypatch, vectors):
        # The second value is an eigenvalue at the bulk's edge, whose
        # residual falls too slowly: the solve gives up on small leading
        # blocks, then reads the dense matrix.
        sample = wigner_sample(600, [3.0, 0.5], seed=69)
        sizes = self.leading_sizes(monkeypatch)
        assert self.fallback_reason(caplog, sample, vectors) == (
            "dense eigensolve fallback: stream 0, n=600: step cap reached")
        assert max(sizes[:-1]) < 60 and sizes[-1] == 600

    def test_m_near_sqrt_n_gives_up_after_two_blocks(self, caplog, monkeypatch):
        n, m = 2000, 45
        thetas = RngStream(70, 1).generator().uniform(1.5, 2.5, m)
        sample = wigner_sample(n, thetas, seed=70)
        monkeypatch.setattr(partial, "FILTER_ROWS_PER_PAIR", ROWS_PER_PAIR)
        assert n > ROWS_PER_PAIR * (m + 1)
        sizes = self.leading_sizes(monkeypatch)
        assert self.fallback_reason(caplog, sample, False) == (
            "dense eigensolve fallback: stream 0, n=2000: step cap reached")
        assert sizes == [5 * m, 9 * m, n]

    def test_cut_waits_for_the_edge_to_settle(self, caplog, monkeypatch):
        # The second leading block (32 rows) meets these values' targets,
        # but its next Ritz value, 1.81, lies far inside the bulk's edge,
        # 2.0016: a cut halfway from the innermost outlier, 2.18, to 1.81
        # would fall inside the bulk and the count would disagree.  The
        # block grows until the cut clears the edge's last move.
        sample = wigner_sample(2000, [2.2, 2.2, 2.2, 1.6], seed=77, stream=7)
        sizes = self.leading_sizes(monkeypatch)
        values = eigensolve(sample, vectors=False)
        assert values.shape == (4,) and caplog.records == []
        assert sizes[:2] == [20, 36] and len(sizes) > 2
        dense = np.linalg.eigvalsh(sample.perturbed)[::-1]
        assert np.max(np.abs(values - dense[:4])) <= FILTER_TOLERANCE * dense[0]

    @staticmethod
    def decoupled_band(n, width, at, value, seed):
        """A GOE band with entry ``at`` of the diagonal set to ``value`` and
        cut off from the rest of the matrix: row and column ``c`` of its
        diagonal block ``k`` zeroed, then row ``c`` of the block below block
        ``k - 1`` and column ``c`` of the one below block ``k``."""
        t = band_algebra.goe(n, width, RngStream(seed, 0).generator())
        k, c = divmod(at, width)
        t.diag[k, c, :] = t.diag[k, :, c] = 0.0
        t.diag[k, c, c] = value
        if k:
            t.below[k - 1, c, :] = 0.0
        if k < t.below.shape[0]:
            t.below[k, :, c] = 0.0
        return t

    def test_hidden_eigenvalue_fails_the_count(self, caplog):
        # An eigenvalue far down the band, which the leading blocks never
        # see, lies above the upper cut.
        band = self.decoupled_band(500, 2, 450, 5.0, seed=71)
        sample = band_sample(band, [3.0, -3.0])
        for vectors in (False, True):
            assert self.fallback_reason(caplog, sample, vectors) == (
                "dense eigensolve fallback: stream 0, n=500: count disagrees")

    def test_hidden_eigenvalue_count_takes_the_eigh_path(self, caplog, monkeypatch):
        # The hidden eigenvalue makes the pivot that holds it indefinite, so
        # the Cholesky of that level raises and the level falls back to
        # eigh; the count still sees the eigenvalue.
        band = self.decoupled_band(500, 2, 450, 5.0, seed=71)
        counts = counted_inertia(monkeypatch)
        assert self.fallback_reason(caplog, band_sample(band, [3.0, -3.0]), False) == (
            "dense eigensolve fallback: stream 0, n=500: count disagrees")
        (shapes, *_), = counts
        assert any(len(shape) == 4 for shape in shapes)

    def test_singular_pivot_block(self, caplog, monkeypatch):
        # First record the upper cut, then place a decoupled eigenvalue
        # exactly on it, beyond the leading blocks, so that one pivot block
        # of T - c I is singular.
        clean = self.decoupled_band(500, 2, 450, 0.0, seed=72)
        cuts = []
        real = band_algebra.inertia

        def inertia(band, shifts):
            cuts.append(shifts.copy())
            return real(band, shifts)

        monkeypatch.setattr(band_algebra, "inertia", inertia)
        assert eigensolve(band_sample(clean, [3.0, -3.0]), vectors=False).size == 2
        band = self.decoupled_band(500, 2, 450, cuts[0][0], seed=72)
        assert self.fallback_reason(caplog, band_sample(band, [3.0, -3.0]), False) == (
            "dense eigensolve fallback: stream 0, n=500: near-singular pivot block")


class TestBandSweeps:
    """Shift-and-invert sweeps on T's predicted leading rows finish the band
    solve in place of its last leading blocks, and give way to those blocks
    when they cannot."""

    @pytest.fixture(autouse=True)
    def debug_log(self, caplog):
        caplog.set_level(logging.DEBUG, logger="meso_spectra")

    @staticmethod
    def sweeps(monkeypatch):
        """Each sweep's shifts, how many rows it solved on, and whether its
        solve returned; a solve that raises is recorded, then raises."""
        done = []
        real = band_algebra.solve

        def solve(blocks, shifts, rhs):
            try:
                found = real(blocks, shifts, rhs)
            except np.linalg.LinAlgError:
                done.append((shifts.copy(), rhs.shape[1], False))
                raise
            done.append((shifts.copy(), rhs.shape[1], True))
            return found

        monkeypatch.setattr(band_algebra, "solve", solve)
        return done

    def test_singular_sweep_gives_way(self, caplog, monkeypatch):
        # First record the shifts of the first sweep, then place a decoupled
        # eigenvalue exactly on the first shift, at a row beyond the leading
        # blocks but among those the sweep solves on: T_k - sigma I is
        # singular, the sweep gives way and the leading block grows.  No
        # block sees the new eigenvalue, so the count disagrees.
        decoupled = TestBandFallbacks.decoupled_band
        sizes = TestBandFallbacks.leading_sizes(monkeypatch)
        sweeps = self.sweeps(monkeypatch)
        at = 40
        clean = band_sample(decoupled(500, 2, at, 0.0, seed=72), [2.0, -2.0])
        assert eigensolve(clean, vectors=False).size == 2
        (shifts, rows, solved), *_ = sweeps
        assert solved and max(sizes) <= at < rows < 500
        sweeps.clear()
        sizes.clear()
        sample = band_sample(decoupled(500, 2, at, shifts[0], seed=72), [2.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = eigensolve(sample, vectors=False)
        (again, again_rows, solved), *_ = sweeps
        assert np.array_equal(again, shifts) and again_rows == rows and not solved
        assert max(sizes[:-1]) <= at  # the last window is the dense fallback's
        assert np.array_equal(values, np.linalg.eigvalsh(sample.perturbed)[::-1])
        assert [r.getMessage() for r in caplog.records] == [
            "dense eigensolve fallback: stream 0, n=500: count disagrees"]

    def test_bench_shaped_first_sweep_is_shorter_and_certificate_reuses_its_basis(
            self, caplog, monkeypatch):
        # n = 2000, M = 10: the first sweep solves on the rows its own
        # predicted residual needs, no more than a later sweep's (one sweep
        # meets the values' second-order targets here), and a values solve
        # applies T once per sweep, on its vectors' working rows, fewer than
        # n, the certificate taking the last sweep's basis and its image
        # instead of applying T again.
        n, m = 2000, 10
        sweeps = self.sweeps(monkeypatch)
        applied = []
        real = band_algebra.Blocks.apply

        def apply(blocks, x):
            applied.append((blocks.rows, x.shape[0]))
            return real(blocks, x)

        monkeypatch.setattr(band_algebra.Blocks, "apply", apply)
        for stream in range(3):
            sample = wigner_sample(n, np.linspace(2.4, 1.5, m), seed=75, stream=stream)
            sweeps.clear()
            applied.clear()
            assert eigensolve(sample, vectors=False).shape == (m,)
            assert len(sweeps) >= 1 and all(solved for _, _, solved in sweeps)
            assert sweeps[0][1] <= sweeps[-1][1]
            assert len(applied) == len(sweeps)
            assert all(stacks == n and rows < n for stacks, rows in applied)
        assert caplog.records == []

    def test_bench_shaped_solve_sweeps_on_leading_rows_after_a_16_block_window(
            self, caplog, monkeypatch):
        # n = 2000, M = 10: the leading blocks grow to 16 blocks of w rows,
        # where two sweeps are predicted to finish the values, and one to
        # three sweeps do, each on the leading rows of T the prediction
        # asks for, not on all n.
        n, m = 2000, 10
        sizes = TestBandFallbacks.leading_sizes(monkeypatch)
        sweeps = self.sweeps(monkeypatch)
        for stream in range(3):
            sample = wigner_sample(n, np.linspace(2.4, 1.5, m), seed=75, stream=stream)
            sizes.clear()
            sweeps.clear()
            assert eigensolve(sample, vectors=False).shape == (m,)
            assert max(sizes) <= 16 * m + m
            assert 1 <= len(sweeps) <= 3
            assert all(solved and rows < n for _, rows, solved in sweeps)
        assert caplog.records == []

    @pytest.mark.parametrize("n,thetas", [
        (2000, [3.0, 2.2, 1.6, 1.05, -1.05, -2.5]),  # near the threshold, both signs
        (2000, [1.05, 1.05, 1.5, -3.0]),             # repeated at the threshold
        (3000, [2.4, 2.4, 1.7, 1.7, -1.05]),         # repeated, both signs
        (3000, [-2.2, -2.2, -2.2, 1.1]),             # repeated on the lower side
    ])
    def test_truncated_sweeps_answer_or_fall_back(self, caplog, monkeypatch, n, thetas):
        # Each values and pairs solve matches dense or falls back with one
        # logged reason: first with the sweeps on the leading rows the
        # prediction asks for, then on half as many blocks.  Half is too few
        # for these pairs: their residuals, taken on all of T, stay above
        # the tolerance, the sweeps stall and the leading block grows, so no
        # outcome changes.  Residuals taken on the truncated rows alone
        # would pass those sweeps, and their certificates would fail.
        sample = wigner_sample(n, thetas, seed=76, stream=1)
        m = sample.m
        sweeps = self.sweeps(monkeypatch)
        reasons = {f"dense eigensolve fallback: stream 1, n={n}: {reason}"
                   for reason in FALLBACK_REASONS}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            answered = assert_matches_dense(sample)
            values = eigensolve(sample, vectors=False)
            vals, vecs = eigensolve(sample)
            messages = [r.getMessage() for r in caplog.records]
            assert len(messages) == 2 * answered.count(False)
            assert set(messages) <= reasons
            assert sweeps and all(rows < n for _, rows, _ in sweeps)
            caplog.clear()
            sweeps.clear()
            leading = band_algebra.Blocks.leading
            monkeypatch.setattr(band_algebra.Blocks, "leading",
                                lambda blocks, count: leading(blocks, count // 2))
            short_values = eigensolve(sample, vectors=False)
            short_vals, short_vecs = eigensolve(sample)
        assert any(solved for _, _, solved in sweeps)  # truncated sweeps ran
        assert [short_values.size == m, short_vals.size == m] == answered
        assert [r.getMessage() for r in caplog.records] == messages[: answered.count(False)]
        # Both are within the tolerance of the same eigenpairs.
        scale = 2.0 * FILTER_TOLERANCE * max(1.0, float(np.max(np.abs(values))))
        assert np.max(np.abs(short_values - values)) <= scale
        assert np.max(np.abs(short_vals - vals)) <= scale
        assert np.max(np.abs(np.sum(short_vecs[:m] ** 2, axis=0)
                             - np.sum(vecs[:m] ** 2, axis=0))) <= 2e-11


def test_location_trial_peaks_below_one_dense_matrix(caplog):
    # A bench-shaped Wigner location trial at n = 2000 takes the band solve,
    # so it never holds an n x n array.
    caplog.set_level(logging.DEBUG, logger="meso_spectra")
    n = 2000
    cfg = ExperimentConfig.from_dict({
        "experiment": "location",
        "kind": "wigner",
        "n_values": [n],
        "theta_spec": {"values": [1.5, 1.6, 1.7, 1.8, 1.9,
                                  2.0, 2.1, 2.2, 2.3, 2.4]},
        "delta": 0.15,
        "epsilon": 0.15,
        "trials": 1,
        "seed": 73,
    })
    tracemalloc.start()
    try:
        rep = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(rec.failed for rec in rep.records)
    assert caplog.records == []
    assert peak < 8 * n * n
