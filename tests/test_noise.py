"""Tests for the seeded Laplace noise source."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dppm.noise as noise_module
from dppm.noise import UNIT_BOUND, NoiseSource, derive_seed, splitmix64

from conftest import draws

_U64 = st.integers(0, 2**64 - 1)


def reference_laplace(gen: np.random.Generator, b: float) -> float:
    """The one-uniform-at-a-time sampler the buffered stream must reproduce:
    a uniform on the boundary is clamped to the smallest positive one."""
    u = max(gen.random(), 2.0**-53) - 0.5
    sign = (u > 0.0) - (u < 0.0)
    return -b * sign * float(np.log1p(-2.0 * abs(u)))


class FakeGenerator:
    """PCG64 stream whose uniforms at chosen positions are replaced by 0.0
    (the boundary U = -1/2); records the size of each call (None for one
    uniform). ``bit_generator.advance`` jumps the stream as PCG64's does."""

    def __init__(self, seed: int, zeros=()):
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._zeros = set(zeros)
        self.position = 0
        self.sizes = []
        self.bit_generator = self

    def advance(self, delta):
        self._gen.bit_generator.advance(delta)
        self.position += delta

    def random(self, size=None):
        self.sizes.append(size)
        if size is None:
            return float(self._block(1)[0])
        return self._block(size)

    def _block(self, size):
        raw = self._gen.random(size)
        for p in range(self.position, self.position + size):
            if p in self._zeros:
                raw[p - self.position] = 0.0
        self.position += size
        return raw


def faked(seed: int, zeros=()) -> tuple[NoiseSource, FakeGenerator]:
    src = NoiseSource(seed)
    src._gen = FakeGenerator(seed, zeros)
    return src, src._gen


def mixed_scales(seed: int, count: int) -> list[float]:
    """Lap(2/eps) and Lap(4/eps) scales, eps log-uniform in [1e-3, 1e6]."""
    rng = np.random.default_rng(seed)
    eps = 10.0 ** rng.uniform(-3, 6, count)
    return [float(x) for x in rng.choice([2.0, 4.0], count) / eps]


def hexes(values) -> list:
    """Each value's exact hex form; None stays None (a draw never looked at)."""
    return [None if v is None else float(v).hex() for v in values]


def reference_stream(gen, scales, served) -> list:
    """The reference sampler's draws at ``scales``, with None wherever
    ``served`` has None: those draws are made but never looked at."""
    ref = [reference_laplace(gen, b) for b in scales]
    return [None if s is None else r for s, r in zip(served, ref)]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_lane_order_matters(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    def test_distinct_lanes_distinct_seeds(self):
        seeds = {derive_seed(0, lane) for lane in range(1000)}
        assert len(seeds) == 1000

    def test_pinned_values(self):
        # Frozen so that a library upgrade cannot silently reshuffle every
        # experiment; these must never change.
        assert splitmix64(0) == 16294208416658607535
        assert derive_seed(0) == 0
        assert derive_seed(0, 0) == 12035550249420947055
        assert derive_seed(12345, 6, 7) == 3387611404008632545

    @pytest.mark.parametrize("root", [-1, 2**64])
    def test_root_outside_64_bits_raises(self, root):
        # The root used to be masked, so 2**64 derived seed 0's sub-seeds
        # and drew seed 0's stream.
        for use in (lambda root: derive_seed(root, 0), NoiseSource):
            with pytest.raises(ValueError, match=rf"outside \[0, {2**64 - 1}\]"):
                use(root)

    @pytest.mark.parametrize("lane", [-1, 2**64])
    def test_lane_outside_64_bits_raises(self, lane):
        # Each lane used to be masked, so lane -1 derived lane 2**64 - 1's
        # seed and lane 2**64 lane 0's.
        for lanes in ((lane,), (0, lane), (lane, 0)):
            with pytest.raises(ValueError, match=rf"outside \[0, {2**64 - 1}\]"):
                derive_seed(7, *lanes)

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1, 2**63, 2**64 - 1])
    def test_numpy_integer_seeds_equal_python_ints(self, seed):
        # An np.int64 overflowed in the 64-bit mixing, and an np.uint64
        # warned there; each is now the Python int it equals.
        kinds = [np.uint64] + [np.int64] * (seed < 2**63)
        for kind in kinds:
            assert derive_seed(kind(seed), kind(1), 2) == derive_seed(seed, 1, 2)
            src = NoiseSource(kind(seed))
            assert type(src.seed) is int and src.seed == seed
            assert src.laplace(1.0) == NoiseSource(seed).laplace(1.0)

    def test_non_integer_seed_raises(self):
        for use in (derive_seed, NoiseSource):
            with pytest.raises(TypeError):
                use(1.5)

    @given(_U64, _U64, _U64)
    @example(0, 0, 0)
    @example(2**64 - 1, 2**64 - 1, 2**64 - 1)
    @example(2**64 - 1, 0, 2**64 - 1)
    def test_chained_lanes_compose(self, root, lane, trial):
        # The audit loops mix each lane in once and each trial into that.
        assert derive_seed(derive_seed(root, lane), trial) == derive_seed(
            root, lane, trial
        )


class TestNoiseSource:
    def test_same_seed_same_sequence(self):
        a = NoiseSource(42)
        b = NoiseSource(42)
        assert [a.laplace(1.0) for _ in range(64)] == [
            b.laplace(1.0) for _ in range(64)
        ]

    def test_different_seeds_differ(self):
        a = NoiseSource(1)
        b = NoiseSource(2)
        assert [a.laplace(1.0) for _ in range(4)] != [b.laplace(1.0) for _ in range(4)]

    def test_zero_mode(self):
        src = NoiseSource(0, mode="zero")
        assert [src.laplace(5.0) for _ in range(10)] == [0.0] * 10
        assert src._gen is None

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            NoiseSource(0, mode="loud")

    def test_moments(self):
        values = draws(NoiseSource(123), 1.0, 10**6)
        assert abs(float(values.mean())) < 0.01
        assert 1.9 < float(values.var()) < 2.1

    def test_symmetry(self):
        values = draws(NoiseSource(321), 1.0, 10**6)
        positive = float((values > 0).mean())
        assert 0.497 < positive < 0.503

    def test_scale_parameter(self):
        # Variance of Lap(b) is 2 b^2.
        values = draws(NoiseSource(77), 4.0, 10**6)
        assert 2 * 16 * 0.95 < float(values.var()) < 2 * 16 * 1.05


class TestBufferedStream:
    """The buffered stream equals the reference sampler bit for bit."""

    @pytest.mark.parametrize(
        "count", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 4096, 4097, 20_000]
    )
    def test_matches_reference(self, count):
        for seed in range(50):
            scales = mixed_scales(seed, count)
            src = NoiseSource(seed)
            gen = np.random.Generator(np.random.PCG64(seed))
            assert hexes(src.laplace(b) for b in scales) == hexes(
                reference_laplace(gen, b) for b in scales
            )

    @pytest.mark.parametrize(
        "zeros",
        [
            [3],  # early in the first block (positions 0..31)
            [20],  # late in the first block
            list(range(8, 16)),  # a run of eight inside the first block
            [3, 8, 9, 20, 40, 41],  # both blocks (the second is 32..63)
        ],
    )
    def test_boundary_uniforms_clamped_like_the_reference(self, zeros):
        src, _ = faked(11, zeros)
        ref = FakeGenerator(11, zeros)
        assert hexes(src.laplace(3.0) for _ in range(100)) == hexes(
            reference_laplace(ref, 3.0) for _ in range(100)
        )

    def test_fresh_source_fills_one_block_of_32(self):
        # The first refill is one block of 32 uniforms, not one per draw.
        src, gen = faked(5)
        for _ in range(32):
            src.laplace(1.0)
        assert len(gen.sizes) == 1
        assert gen.position == 32

    def test_vector_refills_double(self):
        src, gen = faked(5)
        for _ in range(5000):
            src.laplace(1.0)
        assert 1 <= len(gen.sizes) <= math.log2(5000 / 8) + 1


class TestCursor:
    """``units`` peeks and ``skip`` serves; mixed with ``laplace`` they serve
    the one plain stream bit for bit."""

    @staticmethod
    def interleaved(src, seed, total):
        """Serve ``total`` draws from ``src`` by a seeded mix of ``laplace``
        calls, peeks of 1 to 6000 units of which a prefix is served, and
        skips of 1 to 9000 draws never peeked at (many run past the buffer),
        each draw at its own scale; return the served draws, None for each
        skipped unpeeked, and their scales."""
        rng = np.random.default_rng([seed, 99])
        served, scales = [], []
        while len(served) < total:
            b = float(10.0 ** rng.uniform(-3, 3))
            op = rng.random()
            if op < 0.4:
                served.append(src.laplace(b))
                scales.append(b)
                continue
            count = int(rng.choice([1, 3, 8, 9, 40, 4096, 4097, 6000, 9000]))
            if op < 0.6:
                served.extend([None] * count)
                scales.extend([b] * count)
                src.skip(count)
                continue
            units = src.units(count)
            assert src.units(count).tolist() == units.tolist()  # a peek serves nothing
            take = int(rng.integers(0, count + 1))
            served.extend(b * float(unit) for unit in units[:take])
            scales.extend([b] * take)
            src.skip(take)
        return served, scales

    @pytest.mark.parametrize("seed", range(12))
    def test_interleaving_serves_the_plain_stream(self, seed):
        served, scales = self.interleaved(NoiseSource(seed), seed, 20_000)
        gen = np.random.Generator(np.random.PCG64(seed))
        assert hexes(served) == hexes(reference_stream(gen, scales, served))

    # Seed 5's mix of 20,000 draws jumps over uniforms 9,001 to 22,105 in
    # three unpeeked skips past the buffer, so the last case's boundary
    # uniforms lie inside skips that never draw them.
    @pytest.mark.parametrize(
        "zeros",
        [[3], [20], list(range(8, 16)), [4100, 4101], [9500, 9501, 15_000]],
    )
    def test_interleaving_clamps_boundaries_like_the_reference(self, zeros):
        src, _ = faked(11, zeros)
        served, scales = self.interleaved(src, 5, 20_000)
        ref = FakeGenerator(11, zeros)
        assert hexes(served) == hexes(reference_stream(ref, scales, served))

    @pytest.mark.parametrize("boundary", [False, True])
    def test_skip_past_the_buffer_transforms_nothing(self, boundary):
        # Three draws fill a buffer of 32; a skip of 5000 serves what is left
        # of it and jumps the generator over the rest, transforming none, so
        # the next 32 draws refill one block of 32. A boundary uniform in the
        # first block is clamped, as the reference clamps it; those inside
        # the skip are never drawn.
        zeros = [10, 100, 101, 4000] if boundary else []
        src, gen = faked(17, zeros)
        served = [src.laplace(2.0) for _ in range(3)]
        refills = []
        fill = src._refill
        src._refill = lambda short: (refills.append(short), fill(short))
        src.skip(5000)
        served += [None] * 5000 + [src.laplace(2.0) for _ in range(32)]
        assert len(refills) == 1 and src._drawn <= 2 * 32  # two blocks
        ref = FakeGenerator(17, zeros)
        scales = [2.0] * len(served)
        assert hexes(served) == hexes(reference_stream(ref, scales, served))

    # The skip below serves 31 + 3 * 4096 + 100 draws, all but 31 of them
    # past a buffer of 32, over boundary uniforms or none: whatever lies
    # inside it, it jumps the generator by exactly its shortfall and draws
    # nothing.
    @pytest.mark.parametrize(
        "zeros",
        [
            [],
            [32 + 4096 + 7],
            [32 + 3 * 4096 + 99],
            [32 + 4096, 32 + 3 * 4096 + 50],
        ],
    )
    def test_raw_skip_advances_by_its_shortfall(self, zeros):
        src, gen = faked(19, zeros)
        served = [src.laplace(1.0)]
        before = len(gen.sizes)
        src.skip(31 + 3 * 4096 + 100)
        assert gen.sizes[before:] == []
        assert gen.position == 32 + 3 * 4096 + 100
        served += [None] * (31 + 3 * 4096 + 100)
        served += [src.laplace(1.0) for _ in range(40)]
        ref = FakeGenerator(19, zeros)
        scales = [1.0] * len(served)
        assert hexes(served) == hexes(reference_stream(ref, scales, served))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_raw_skip_of_a_full_block(self, extra):
        # A fresh source skips _MAX_BLOCK (+ 1) draws, two of them boundary
        # uniforms, in one jump that draws nothing, then serves the plain
        # stream.
        count = noise_module._MAX_BLOCK + extra
        zeros = [7, count - 1]
        src, gen = faked(23, zeros)
        src.skip(count)
        assert gen.sizes == [] and gen.position == count
        served = [None] * count + [src.laplace(3.0) for _ in range(50)]
        ref = FakeGenerator(23, zeros)
        assert hexes(served) == hexes(reference_stream(ref, [3.0] * len(served), served))

    @pytest.mark.parametrize("delta", [0, 1, 4095, 4096, 30_001, 10**6])
    def test_pcg64_advance_jumps_one_output_per_uniform(self, delta):
        # skip rests on this numpy property: Generator.random consumes one
        # PCG64 output per double, so advance(delta) lands where
        # random(delta) does.
        jumped = np.random.Generator(np.random.PCG64(37))
        jumped.bit_generator.advance(delta)
        drawn = np.random.Generator(np.random.PCG64(37))
        drawn.random(delta)
        assert jumped.random(5).tolist() == drawn.random(5).tolist()

    def test_long_skip_holds_one_block(self):
        src = NoiseSource(29)
        src.laplace(1.0)
        tracemalloc.start()
        try:
            src.skip(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 1024  # one raw draw of it all took 8 MB
        ref = np.random.Generator(np.random.PCG64(29))
        assert ref.random(10**6 + 1).all()  # no boundary uniform at this seed
        assert src.laplace(1.0) == reference_laplace(ref, 1.0)

    @pytest.mark.parametrize("mode", ["standard", "zero"])
    def test_negative_count_raises(self, mode):
        # skip(-2) used to move the cursor back and serve two draws again.
        src = NoiseSource(31, mode)
        first = [src.laplace(1.0) for _ in range(5)]
        with pytest.raises(ValueError, match=r"count=-2 outside \[0, "):
            src.skip(-2)
        with pytest.raises(ValueError, match=r"count=-1 outside \[0, "):
            src.units(-1)
        after = [src.laplace(1.0) for _ in range(5)]
        plain = NoiseSource(31, mode)
        assert first + after == [plain.laplace(1.0) for _ in range(10)]

    @pytest.mark.parametrize("mode", ["standard", "zero"])
    def test_count_must_be_an_integer(self, mode):
        # skip(1.5) inside the buffer used to leave the cursor at 1.5, and
        # the next laplace raised TypeError far from the cause; units(2.5)
        # raised an opaque slice error.
        src = NoiseSource(31, mode)
        first = src.laplace(1.0)
        for bad in (1.5, 2.0, "2", None):
            with pytest.raises(TypeError):
                src.skip(bad)
            with pytest.raises(TypeError):
                src.units(bad)
        src.skip(np.int64(2))
        assert len(src.units(np.uint8(3))) == 3
        plain = NoiseSource(31, mode)
        assert [first, src.laplace(1.0)] == [plain.laplace(1.0) for _ in range(4)][::3]

    def test_first_peek_crosses_the_scalar_head(self):
        # A fresh source's peek of 40 units, longer than the first block of
        # 32, fills the buffer from its first uniform on and equals 40 plain
        # draws.
        gen = np.random.Generator(np.random.PCG64(21))
        assert hexes(NoiseSource(21).units(40)) == hexes(
            reference_laplace(gen, 1.0) for _ in range(40)
        )

    @pytest.mark.parametrize("plain", [0, 5])
    def test_long_peek_refills_once(self, plain):
        # A peek past the buffer draws its whole shortfall in one block,
        # rather than 4096 units at a time with the unserved buffer copied
        # on each refill, and serves the same stream.
        src, gen = faked(8)
        served = [src.laplace(1.0) for _ in range(plain)]
        calls = len(gen.sizes)
        units = src.units(20_000)
        assert len(gen.sizes) == calls + 1
        served += units.tolist()
        src.skip(20_000)
        served.append(src.laplace(1.0))
        ref = np.random.Generator(np.random.PCG64(8))
        assert hexes(served) == hexes(
            reference_laplace(ref, 1.0) for _ in range(plain + 20_001)
        )

    @pytest.mark.parametrize("boundary", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 40])
    def test_head_draws_around_a_peek(self, count, boundary):
        # j plain draws, a peek of which a prefix is served, then laplace on
        # to 60 draws: every draw comes from the one buffer, whichever call
        # filled it, so the served draws are the plain stream.
        for j in range(10):
            zeros = [j + count // 2] if boundary else []  # inside the peek
            for take in sorted({0, 1, count // 2, count}):
                scales = mixed_scales(100 * j + count, 60)
                src, _ = faked(13, zeros)
                served = [src.laplace(b) for b in scales[:j]]
                units = src.units(count)
                served += [
                    b * float(u) for b, u in zip(scales[j : j + take], units)
                ]
                src.skip(take)
                served += [src.laplace(b) for b in scales[j + take :]]
                ref = FakeGenerator(13, zeros)
                assert hexes(served) == hexes(
                    reference_laplace(ref, b) for b in scales
                ), (j, take)

    def test_zero_mode_returns_zeros_and_consumes_nothing(self):
        src = NoiseSource(0, mode="zero")
        assert src.units(7).tolist() == [0.0] * 7
        src.skip(7)
        assert src.laplace(3.0) == 0.0
        assert src._gen is None and src._next == 0 and src._drawn == 0


class TestUnitBound:
    def test_extreme_uniforms_stay_within_the_bound(self):
        # The smallest uniform a source serves, 2**-53, and the largest,
        # 1 - 2**-53, give the units of largest magnitude, -/+ 52 ln 2.
        # UNIT_BOUND holds both with less than 0.01 to spare.
        class Extremes:
            def random(self, size):
                return np.resize([2.0**-53, 1.0 - 2.0**-53], size)

        src = NoiseSource(0)
        src._gen = Extremes()
        units = [src.laplace(1.0) for _ in range(4)] + src.units(100).tolist()
        assert units[:2] == pytest.approx([-52 * math.log(2), 52 * math.log(2)])
        assert max(map(abs, units)) <= UNIT_BOUND < max(map(abs, units)) + 0.01

    def test_boundary_uniform_is_served_as_the_smallest(self):
        # A raw 0.0 (U = -1/2) inside a refill block is served as the unit of
        # 2**-53, -52 ln 2, within the bound; the units around it are the
        # plain stream's.
        src, gen = faked(41, [5])
        units = src.units(40).tolist()
        assert gen.sizes == [40]
        assert units[5] == float(np.log1p(-2.0 * (0.5 - 2.0**-53)))
        assert units[5] == pytest.approx(-52 * math.log(2))
        assert abs(units[5]) <= UNIT_BOUND
        plain = NoiseSource(41).units(40).tolist()
        assert units[:5] + units[6:] == plain[:5] + plain[6:]


class TestSampleLaplace:
    def test_draws_are_finite(self):
        src = NoiseSource(99)
        assert all(math.isfinite(src.laplace(10.0)) for _ in range(10000))


class TestLaplaceTail:
    def test_matches_empirical_tail(self):
        # P(|Lap(b)| > t) = exp(-t/b).
        b = 2.0
        magnitudes = np.abs(draws(NoiseSource(17), b, 10**6))
        for t in (0.5, 2.0, 5.0):
            empirical = float((magnitudes > t).mean())
            assert empirical == pytest.approx(math.exp(-t / b), abs=0.005)
