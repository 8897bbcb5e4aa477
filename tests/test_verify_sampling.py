"""The block-drawn samplers of verify against the loops that draw one trial at
a time: the same doubles, and the generator left in the same state."""

import numpy as np
import pytest

from emconf import oracle, verify
from emconf.cl13 import FourVector
from emconf.conformal13 import transform
from emconf.maps import Inversion, LorentzClass, QuantityKind, Translation

GUARD, FD_GUARD = verify.GUARD, verify.FD_GUARD
SEEDS = range(50)
TRIALS = (1, 2, 25, 500)


# -- the loops, one trial at a time ---------------------------------------------


def ref_sample_event(rng, guard=GUARD):
    while True:
        x = rng.uniform(-2.0, 2.0, 4)
        if abs(oracle.msq(x)) > guard:
            return x


def ref_sample_pair(rng, guard=GUARD, a_scale=1.0):
    while True:
        x = rng.uniform(-2.0, 2.0, 4)
        a = rng.uniform(-2.0 * a_scale, 2.0 * a_scale, 4)
        if abs(oracle.msq(x)) > guard and abs(oracle.sct_scale(x, a)) > guard:
            return x, a


def ref_sample_fd_pair(rng, guard=FD_GUARD):
    while True:
        x = rng.uniform(-2.0, 2.0, 4)
        a = rng.uniform(-1.0, 1.0, 4)
        x2 = oracle.msq(x)
        s = oracle.sct_scale(x, a)
        if abs(x2) > guard and abs(s) > guard and abs(s / x2) > guard:
            return x, a


def ref_sample_interval_sign(rng, sign, guard=GUARD):
    while True:
        x = rng.uniform(-2.0, 2.0, 4)
        if sign * oracle.msq(x) > guard:
            return x


def ref_event_and_field(rng):
    return ref_sample_event(rng), rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)


def ref_pair_and_field(rng):
    x, a = ref_sample_pair(rng)
    return x, a, rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)


def ref_pair_field_and_potential(rng):
    return (*ref_pair_and_field(rng), rng.uniform(-2.0, 2.0, 4))


def ref_draw(rng, trials, sample):
    """Each trial's parts drawn in turn, the parts side by side in one row."""
    rows = []
    for _ in range(trials):
        part = sample(rng)
        rows.append(np.concatenate(part if isinstance(part, tuple) else (part,)))
    return np.array(rows)


def ref_sct_chain(rng, trials):
    accepted = []
    attempts = 0
    while len(accepted) < trials and attempts < trials * 50:
        attempts += 1
        x, a = ref_sample_pair(rng)
        eps = 1 if len(accepted) % 2 == 0 else -1
        x1 = transform(Inversion(eps), QuantityKind.POSITION, FourVector.from_array(x))
        y = transform(Translation(FourVector(*(eps * a))), QuantityKind.POSITION, x1)
        if abs(y.minkowski_sq()) <= GUARD:
            continue
        E = rng.uniform(-2.0, 2.0, 3)
        B = rng.uniform(-2.0, 2.0, 3)
        A4 = rng.uniform(-2.0, 2.0, 4)
        accepted.append((x, a, y.as_array(), E, B, A4))
    return accepted


# -- comparisons -----------------------------------------------------------------


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_same_draws(draw, ref, seed):
    """draw and ref, each given a generator of the seed, return the same
    bytes and leave the generator in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_bytes(draw(rng), ref(ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


SHAPES = {
    "event": (
        lambda rng, n: verify._sample(rng, n, verify._off_cone, verify._EVENT),
        lambda rng, n: ref_draw(rng, n, ref_sample_event),
    ),
    "event_and_field": (
        lambda rng, n: verify._sample(rng, n, verify._off_cone, verify._EVENT, 6),
        lambda rng, n: ref_draw(rng, n, ref_event_and_field),
    ),
    "pair": (
        lambda rng, n: verify._sample(rng, n, verify._off_cones, verify._PAIR),
        lambda rng, n: ref_draw(rng, n, ref_sample_pair),
    ),
    "pair_and_field": (
        lambda rng, n: verify._sample(rng, n, verify._off_cones, verify._PAIR, 6),
        lambda rng, n: ref_draw(rng, n, ref_pair_and_field),
    ),
    "pair_field_and_potential": (
        lambda rng, n: verify._sample(rng, n, verify._off_cones, verify._PAIR, 10),
        lambda rng, n: ref_draw(rng, n, ref_pair_field_and_potential),
    ),
    "null_field_pair": (
        lambda rng, n: verify._sample(rng, n, verify._off_cones, verify._EVENT + (0.5,) * 4),
        lambda rng, n: ref_draw(rng, n, lambda r: ref_sample_pair(r, a_scale=0.25)),
    ),
    "fd_pair": (
        lambda rng, n: verify._sample(rng, n, verify._far_from_cones, verify._FD_PAIR),
        lambda rng, n: ref_draw(rng, n, ref_sample_fd_pair),
    ),
    # theta_signs: events of each interval sign, then pairs on the same generator
    "interval_signs_then_pairs": (
        lambda rng, n: np.concatenate([
            verify._sample(rng, n, verify._interval_sign(1), verify._EVENT),
            verify._sample(rng, n, verify._interval_sign(-1), verify._EVENT),
            verify._sample(rng, n, verify._off_cones, verify._PAIR)[:, :4],
        ]),
        lambda rng, n: np.concatenate([
            ref_draw(rng, n, lambda r: ref_sample_interval_sign(r, 1)),
            ref_draw(rng, n, lambda r: ref_sample_interval_sign(r, -1)),
            ref_draw(rng, n, ref_sample_pair)[:, :4],
        ]),
    ),
}


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("shape", SHAPES)
def test_block_draws_match_the_trial_loop(shape, trials):
    draw, ref = SHAPES[shape]
    for seed in SEEDS:
        assert_same_draws(lambda rng: draw(rng, trials), lambda rng: ref(rng, trials), seed)


@pytest.mark.parametrize("trials", TRIALS)
def test_sct_chain_walk_matches_the_trial_loop(trials, monkeypatch):
    """The rows the check draws, and the image y each was kept for.  The
    image under eps = -1 is exactly minus the one under +1, so eps does not
    change which pairs are kept; it shows in y, whose sign alternates with
    the number of rows kept."""
    drawn, sample = [], verify._sample
    monkeypatch.setattr(verify, "_sample", lambda *args: drawn.append(sample(*args)) or drawn[-1])
    for seed in SEEDS:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert verify.check_sct_chain_composition(rng, trials, verify.BASE_TOL).passed
        rows = drawn.pop()
        accepted = ref_sct_chain(ref_rng, trials)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        X, A, Y, E, B, A4 = (np.array(part) for part in zip(*accepted))
        assert_same_bytes(rows, np.concatenate([X, A, E, B, A4], axis=1))
        y = verify._chain_image(*verify._split(rows, 4, 4), verify._signs(len(rows)))
        assert_same_bytes(y.as_array(), Y)


def ref_lorentz_params(rng, per_class):
    """For each class in turn, per_class maps of it, each drawn boost first."""
    boosts, rotations, classes = [], [], []
    for cls in LorentzClass:
        for _ in range(per_class):
            boosts.append(rng.uniform(-1.0, 1.0, 3))
            rotations.append(rng.uniform(-1.0, 1.0, 3))
            classes.append(cls)
    return np.array(boosts), np.array(rotations), classes


def test_lorentz_params_match_the_pair_loop():
    for trials in TRIALS:
        per_class = max(1, trials // 4)
        for seed in SEEDS:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            p = verify._lorentz_params(rng, per_class)
            boost, rotation, classes = ref_lorentz_params(ref_rng, per_class)
            assert_same_bytes(p.boost, boost)
            assert_same_bytes(p.rotation, rotation)
            assert list(p.lorentz_class) == classes
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def ref_null_field(rng, trials):
    """The plane-wave samples, one trial at a time: x, a, E0, khat, phase."""
    rows = []
    for _ in range(trials):
        x, a = ref_sample_pair(rng, a_scale=0.25)
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        e = np.cross(k, rng.normal(size=3))
        while np.linalg.norm(e) < 1e-6:
            e = np.cross(k, rng.normal(size=3))
        e *= rng.uniform(0.5, 1.5) / np.linalg.norm(e)
        rows.append((x, a, e, k, float(rng.uniform(0, 2 * np.pi))))
    return tuple(np.array(part) for part in zip(*rows))


def assert_same_null_field_draws(rng, ref_rng, trials):
    got = verify._null_field_rows(rng, trials)
    want = ref_null_field(ref_rng, trials)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_bytes(g, w)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("trials", TRIALS)
def test_null_field_rows_match_the_trial_loop(trials):
    """Over SEEDS and TRIALS, 135 drafted heads fail the cones and are drawn
    again, so the redraw is compared with the loop's too."""
    for seed in SEEDS:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_null_field_draws(rng, ref_rng, trials)


class ScriptedNormals:
    """A generator whose first normal draws are given vectors; every other
    draw comes from the wrapped generator."""

    def __init__(self, rng, normals):
        self.rng, self.normals = rng, list(normals)
        self.bit_generator = rng.bit_generator

    def normal(self, size):
        return np.array(self.normals.pop(0)) if self.normals else self.rng.normal(size=size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_null_field_redraws_a_degenerate_amplitude_as_the_loop_does():
    """A second normal draw along khat gives a cross product below 1e-6,
    exactly zero or not: both loops draw it again."""
    normals = [(0.0, 0.0, 2.0), (0.0, 0.0, -1.5), (1e-7, 0.0, 3.0), (0.5, -0.2, 0.1)]
    for seed in range(5):
        rng = ScriptedNormals(np.random.default_rng(seed), normals)
        ref_rng = ScriptedNormals(np.random.default_rng(seed), normals)
        assert_same_null_field_draws(rng, ref_rng, 2)
        assert not rng.normals and not ref_rng.normals


def ref_walk(rng, trials, half, k, accept):
    """_walk's loop, one head at a time."""
    rows = []
    while len(rows) < trials:
        head = rng.uniform(-half[:k], half[:k])
        if accept(head[None, :])[0]:
            rows.append(np.concatenate([head, rng.uniform(-half[k:], half[k:])]))
    return np.array(rows).reshape(-1, half.size)


def _coin_judge(rate):
    """Accepts a share rate of heads: those whose first column, uniform in
    [-1, 1], is below 2 rate - 1."""
    return lambda h: h[:, 0] < 2.0 * rate - 1.0


@pytest.mark.parametrize("rate", [0.05, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("trials", [1, 2, 7, 40])
def test_walk_matches_the_loop_at_each_acceptance_rate(trials, rate):
    """Refused heads are drawn again, and the walk stops drawing where the
    loop stops, whether it keeps 5% of heads or all of them."""
    half = np.array([1.0, 2.0, 2.0, 0.5, 0.5])
    for seed in SEEDS:
        assert_same_draws(
            lambda rng: verify._walk(rng, trials, half, 2, _coin_judge(rate)),
            lambda rng: ref_walk(rng, trials, half, 2, _coin_judge(rate)),
            seed,
        )


def _sparse_coin_judge(h):
    """Accepts 5% of heads."""
    return h[:, 0] >= 0.9


class CountingBlocks:
    """A generator that counts its calls of random, the blocks of a walk."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, 0
        self.bit_generator = rng.bit_generator

    def random(self, size=None):
        self.blocks += 1
        return self.rng.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


# Walks that keep a few percent of their heads: the sparse coin, and events
# of positive interval clear of x^2 = 1 (6% of the box).
SPARSE_HALF = np.array([1.0, 2.0, 2.0, 0.5, 0.5])
SPARSE_WALKS = {
    "sparse_coin": (
        lambda rng, n: verify._walk(rng, n, SPARSE_HALF, 2, _sparse_coin_judge),
        lambda rng, n: ref_walk(rng, n, SPARSE_HALF, 2, _sparse_coin_judge),
    ),
    "timelike_events_and_field": (
        lambda rng, n: verify._sample(rng, n, verify._interval_sign(1), verify._EVENT, 6),
        lambda rng, n: ref_draw(
            rng, n, lambda r: (ref_sample_interval_sign(r, 1, 1.0), r.uniform(-2.0, 2.0, 6))
        ),
    ),
}
# A walk draws at most this many blocks.  Over SEEDS these walks draw at
# most 5; blocks of only the least the loop still consumes would number up
# to 89.
MAX_BLOCKS = 8


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("walk", SPARSE_WALKS)
def test_sparse_walks_match_the_loop_in_few_blocks(walk, trials, monkeypatch):
    """Later blocks are sized from the acceptance seen so far and their
    unread uniforms given back: the same rows, the same generator state and
    the same draws after the walk as the loop, from a few blocks."""
    monkeypatch.setattr(verify, "GUARD", 1.0)
    draw, ref = SPARSE_WALKS[walk]
    # The loop draws the coin's 10,000 heads of 500 rows one at a time, about
    # 0.3 s a seed, so that case runs on the first ten seeds.
    seeds = SEEDS[:10] if walk == "sparse_coin" and trials == 500 else SEEDS
    for seed in seeds:
        rng = CountingBlocks(np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed)
        assert_same_bytes(draw(rng, trials), ref(ref_rng, trials))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert_same_bytes(rng.normal(size=5), ref_rng.normal(size=5))
        assert rng.blocks <= MAX_BLOCKS


def test_walk_keeps_a_half_used_32_bit_output():
    """advance empties PCG64's buffer of a half-used 32-bit output; the walk
    puts it back, so the next 32-bit draw is the loop's."""
    for seed in range(10):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for r in (rng, ref_rng):
            r.integers(0, 2**32, dtype=np.uint32)
        assert_same_bytes(
            verify._walk(rng, 25, SPARSE_HALF, 2, _sparse_coin_judge),
            ref_walk(ref_rng, 25, SPARSE_HALF, 2, _sparse_coin_judge),
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.bit_generator.state["has_uint32"] == 1
        assert_same_bytes(rng.integers(0, 2**32, 3, dtype=np.uint32),
                          ref_rng.integers(0, 2**32, 3, dtype=np.uint32))
