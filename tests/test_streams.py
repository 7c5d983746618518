"""The array-backed Sobol streams of sievelab.quadrature against scipy's
unscrambled engine, scrambled in the test by each stream's own shift and
matrices, and the invariance of their sums under blocking."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from sievelab import quadrature
from sievelab.quadrature import BLOCK_ROWS, MAX_DIM, SOBOL_BITS, _directions, _Streams

# draw sizes: single points, small odd sizes, and powers of two and their
# neighbours, so that draws cross 2^k
SIZES = st.one_of(
    st.integers(1, 40),
    st.sampled_from([63, 64, 65, 127, 128, 129, 1000, 1023, 1024, 1025, 4095, 4097]),
)


@functools.cache
def reference_setup(dim, n, seed):
    """Shift and matrix columns of n streams, as documented: one draw of
    default_rng(seed), whose entry 0 per stream and dimension is the shift
    and whose entry k + 1, taken below 2^k, plus 2^k, is column k."""
    draw = np.random.default_rng(seed).integers(
        0, 1 << SOBOL_BITS, (n, dim, SOBOL_BITS + 1), dtype=np.uint32)
    columns = np.empty((n, dim, SOBOL_BITS), dtype=np.uint32)
    for k in range(SOBOL_BITS):
        columns[..., k] = draw[..., k + 1] % (1 << k) + (1 << k)
    return draw[..., 0], columns


def reference_points(dim, n, seed, q, sizes):
    """Successive draws of `sizes` points of stream q of n: scipy's
    unscrambled points as 30-bit integers, each coordinate multiplied by
    its scrambling matrix over GF(2) (the XOR of the columns of its set
    bits) and XORed with the shift."""
    shift, columns = reference_setup(dim, n, seed)
    engine = qmc.Sobol(dim, scramble=False)
    out = []
    for m in sizes:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = (engine.random(m) * (1 << SOBOL_BITS)).astype(np.uint32)
        bits = x[:, :, None] >> np.arange(SOBOL_BITS, dtype=np.uint32) & 1
        y = np.bitwise_xor.reduce(bits * columns[q], axis=2) ^ shift[q]
        out.append(y / (1 << SOBOL_BITS))
    return out


def test_setup_equals_generator_draws():
    # Seeds of one, two and three 32-bit words
    for seed in (0, 2**32 + 5, 2**64 + 5):
        for dim in range(1, MAX_DIM + 1):
            streams = _Streams(dim, 41, seed)
            shift, columns = reference_setup(dim, 41, seed)
            np.testing.assert_array_equal(streams.shift, shift)
            np.testing.assert_array_equal(streams.columns, columns)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _Streams(2, 1, -1)


@pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
def test_scrambles_are_unit_lower_triangular_and_prefix_stable(dim):
    for seed, n in ((0, 1), (3, 17), (2**40 + 1, 64)):
        streams = _Streams(dim, n + 5, seed)
        # column k holds bit k and no higher one
        assert (streams.columns >> np.arange(SOBOL_BITS, dtype=np.uint32) == 1).all()
        fewer = _Streams(dim, n, seed)
        np.testing.assert_array_equal(streams.shift[:n], fewer.shift)
        np.testing.assert_array_equal(streams.columns[:n], fewer.columns)


def test_first_points_are_a_dyadic_net():
    # LMS+shift keeps the (0, m, 1)-net property: the first 2^m points of a
    # one-dimensional stream lie one in each interval [i / 2^m, (i+1) / 2^m)
    streams = _Streams(1, 8, 99)
    pts = streams.points(np.arange(8), 1 << 12)[0]
    for m in range(13):
        cells = np.sort(np.floor(pts[:, : 1 << m] * (1 << m)), axis=1)
        np.testing.assert_array_equal(cells, np.broadcast_to(np.arange(1 << m), cells.shape))


def test_directions_equal_scipy_unscrambled_points():
    # The unscrambled point of index 2^(b+1) - 1 (Gray code 2^b) is v_b
    # alone; bits up to 22 are reached with at most 2^23 - 1 steps.
    for dim in range(1, MAX_DIM + 1):
        engine = qmc.Sobol(dim, scramble=False)
        v = _directions(dim)
        assert v.shape == (SOBOL_BITS, dim)
        drawn = 0
        for b in range(23):
            index = (1 << (b + 1)) - 1
            engine.fast_forward(index - drawn)
            np.testing.assert_array_equal(v[b], engine.random(1)[0] * (1 << SOBOL_BITS))
            drawn = index + 1


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, MAX_DIM),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.lists(SIZES, min_size=1, max_size=3), min_size=1, max_size=5),
)
def test_points_equal_scipy_engines(dim, seed, sizes):
    # Up to three streams, each with its own sequence of draw sizes, those
    # of one size in a round drawn together; every draw equals the
    # reference's, array for array.
    n = len(sizes[0])
    draws = [[row[j % len(row)] for row in sizes] for j in range(n)]
    streams = _Streams(dim, n, seed)
    want = [reference_points(dim, n, seed, q, d) for q, d in enumerate(draws)]
    for i in range(len(sizes)):
        count = np.array([d[i] for d in draws])
        for size in np.unique(count).tolist():
            sid = np.flatnonzero(count == size)
            got = streams.points(sid, size)
            assert got.shape == (dim, len(sid), size)
            for q, pts in zip(sid, got.transpose(1, 0, 2)):
                np.testing.assert_array_equal(pts, want[q][i].T)
        np.testing.assert_array_equal(streams.n, [sum(d[: i + 1]) for d in draws])


def test_long_draw_equals_scipy_engine():
    dim, n, q = 3, 10, 9
    sizes = [5, BLOCK_ROWS + 1000]
    streams = _Streams(dim, n, 7)
    want = reference_points(dim, n, 7, q, sizes)
    sid = np.array([q])
    np.testing.assert_array_equal(streams.points(sid, sizes[0])[:, 0], want[0].T)
    np.testing.assert_array_equal(streams.points(sid, sizes[1])[:, 0], want[1].T)


def row_streams(groups):
    """The stream of each point of a block, from the groups run passes."""
    return np.concatenate([np.repeat(sid, u.shape[2]) for sid, u in groups])


def integrand(x, sid):
    """Values and indicator of the points of a (dim, rows) x."""
    inside = x[0] < 0.6
    return np.where(inside, 1.0 / (x.sum(axis=0) + 0.1 * sid), 0.0), inside


def run_sums(dim, n, seed, rounds, block_rows, monkeypatch):
    monkeypatch.setattr(quadrature, "BLOCK_ROWS", block_rows)
    streams = _Streams(dim, n, seed)

    def sample(x, groups):
        return integrand(x, row_streams(groups))

    for count in rounds:
        streams.run(np.array(count), sample)
    return streams


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(1, 5),
    rounds=st.lists(
        st.lists(st.one_of(st.integers(0, 300), st.integers(300, 3000)), min_size=6, max_size=6),
        min_size=1,
        max_size=3,
    ),
    block_rows=st.integers(1, 4000),
)
def test_sums_do_not_depend_on_blocks(dim, rounds, block_rows):
    n, seed = 6, 11
    with pytest.MonkeyPatch.context() as mp:
        blocked = run_sums(dim, n, seed, rounds, block_rows, mp)
    with pytest.MonkeyPatch.context() as mp:
        whole = run_sums(dim, n, seed, rounds, 1 << 20, mp)
    for field in ("n", "total", "total_sq", "hits"):
        np.testing.assert_array_equal(getattr(blocked, field), getattr(whole, field))
    # and each stream's sums are its own values summed per round
    want = np.zeros(n)
    for q in range(n):
        drawn = [row[q] for row in rounds if row[q]]
        for u in reference_points(dim, n, seed, q, drawn):
            want[q] += integrand(u.T, q)[0].sum()
    np.testing.assert_array_equal(whole.total, want)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(1, 4),
    rounds=st.lists(
        st.lists(st.one_of(st.just(0), st.integers(1, 40), st.sampled_from([16, 32])),
                 min_size=7, max_size=7),
        min_size=1,
        max_size=3,
    ),
    long=st.integers(0, 6),
    extra=st.integers(1, 100),
)
def test_run_draws_and_sums_each_stream_in_its_own_order(dim, rounds, long, extra):
    # Streams that draw nothing in a round, groups of equal lengths, and in
    # every round one stream longer than a block, drawn in pieces: each
    # stream's points are the reference's, and its sums are those of its
    # own values, in its own order, round by round.
    block_rows = 64
    n, seed = 7, 5
    for row in rounds:
        row[long] = block_rows + extra
    got = []

    def sample(x, groups):
        for sid, u in groups:
            for q, pts in zip(sid.tolist(), u.transpose(1, 0, 2)):
                got[q].append(pts.copy())
        return integrand(x, row_streams(groups))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "BLOCK_ROWS", block_rows)
        streams = _Streams(dim, n, seed)
        drawn = []
        for row in rounds:
            got = [[] for _ in range(n)]
            streams.run(np.array(row), sample)
            drawn.append(got)
    total, total_sq, hits = np.zeros(n), np.zeros(n), np.zeros(n, int)
    for q in range(n):
        sizes = [row[q] for row in rounds if row[q]]
        want = iter(reference_points(dim, n, seed, q, sizes))
        for row, pieces in zip(rounds, drawn):
            if not row[q]:
                assert pieces[q] == []
                continue
            u = next(want).T
            np.testing.assert_array_equal(np.concatenate(pieces[q], axis=1), u)
            g, inside = integrand(u, q)
            total[q] += g.sum()
            total_sq[q] += (g * g).sum()
            hits[q] += np.count_nonzero(inside)
    np.testing.assert_array_equal(streams.n, np.sum(rounds, axis=0))
    np.testing.assert_array_equal(streams.total, total)
    np.testing.assert_array_equal(streams.total_sq, total_sq)
    np.testing.assert_array_equal(streams.hits, hits)


def test_integrate_builds_no_scrambled_engine(monkeypatch):
    # nor an unscrambled one: the direction numbers are computed here
    built = []
    init = qmc.Sobol.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("scramble", True))
        init(self, *args, **kwargs)

    monkeypatch.setattr(qmc.Sobol, "__init__", counting_init)
    _directions.cache_clear()
    cat = quadrature.default_catalog()
    res = quadrature.sampled(cat.integrals["cal3"], {}, budget=1 << 16, seed=12345)
    assert res.samples > 0 and built == []
