import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuseg import prng as prng_module
from nuseg.prng import Prng, mix64

from oracles import normal_whole_array

# reference splitmix64 outputs for seed 0 (published test vector)
SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


class TestRawStream:
    def test_seed0_reference_vector(self):
        p = Prng(0)
        assert tuple(p.next_u64() for _ in range(3)) == SEED0_FIRST3

    def test_same_seed_same_sequence(self):
        a, b = Prng(123), Prng(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_differ(self):
        assert Prng(1).next_u64() != Prng(2).next_u64()

    def test_vector_path_matches_scalar_path(self):
        """next_u64_array(n) must be bit-identical to n next_u64 calls."""
        a, b = Prng(777), Prng(777)
        vec = a.next_u64_array(33)
        scalar = [b.next_u64() for _ in range(33)]
        assert vec.tolist() == scalar
        # and the stream continues from the same point afterwards
        assert a.next_u64() == b.next_u64()

    def test_seed_wraps_to_u64(self):
        assert Prng(2 ** 64 + 5).next_u64() == Prng(5).next_u64()

    def test_mix64_is_a_bijection_sample(self):
        seen = {mix64(i) for i in range(4096)}
        assert len(seen) == 4096


class TestFloatDraws:
    def test_range_and_grid(self):
        """f32 draws live in [0,1) on the 2^-24 grid (top 24 bits)."""
        p = Prng(9)
        for _ in range(1000):
            v = p.next_f32()
            assert 0.0 <= v < 1.0
            assert float(v * 2 ** 24).is_integer()

    def test_uniform_array_matches_scalar(self):
        a, b = Prng(5), Prng(5)
        vec = a.uniform_array(64)
        assert vec.dtype == np.float32
        np.testing.assert_array_equal(vec, [b.next_f32() for _ in range(64)])

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_uniform_bounds_any_seed(self, seed):
        vec = Prng(seed).uniform_array(16)
        assert np.all(vec >= 0.0) and np.all(vec < 1.0)


class TestNormal:
    def test_shape_and_dtype(self):
        arr = Prng(3).normal((4, 5), std=0.5)
        assert arr.shape == (4, 5)
        assert arr.dtype == np.float32

    def test_deterministic(self):
        np.testing.assert_array_equal(Prng(11).normal((100,)), Prng(11).normal((100,)))

    def test_moments(self):
        arr = Prng(17).normal((200, 200), std=2.0).astype(np.float64)
        assert abs(arr.mean()) < 0.02
        assert abs(arr.std() - 2.0) < 0.02

    def test_std_scales_linearly(self):
        base = Prng(23).normal((64,))
        scaled = Prng(23).normal((64,), std=3.0)
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-6)

    def test_odd_count_consumes_same_draws(self):
        """Odd sizes truncate the generated pair, not the stream position."""
        a, b = Prng(8), Prng(8)
        first = a.normal((5,))
        np.testing.assert_array_equal(first, b.normal((5,)))

    @pytest.mark.parametrize("shape", [(), (1,), (0,), (5,), (7, 3),
                                       (2 * (1 << 16) - 1,), (2 * (1 << 16),),
                                       (2 * (1 << 16) + 1,), (3, 1 << 16, 3),
                                       (512, 1024, 3, 3)])
    def test_chunks_match_the_whole_array_draw(self, shape):
        """Drawn a chunk of pairs at a time, the array and the end state are
        bit-identical to one whole-tensor draw, across the chunk boundary and
        at odd sizes."""
        assert prng_module._NORMAL_CHUNK == 1 << 16
        got, ref = Prng(29), Prng(29)
        a = got.normal(shape, std=0.7)
        b = normal_whole_array(ref, shape, std=0.7)
        assert a.shape == b.shape and a.dtype == b.dtype == np.float32
        assert a.tobytes() == b.tobytes()
        assert got.state == ref.state

    def test_small_chunks_match_the_whole_array_draw(self, monkeypatch):
        monkeypatch.setattr(prng_module, "_NORMAL_CHUNK", 3)
        for n in range(0, 16):
            got, ref = Prng(31 + n), Prng(31 + n)
            assert got.normal((n,)).tobytes() == normal_whole_array(ref, (n,)).tobytes()
            assert got.state == ref.state


class TestShuffle:
    def test_is_permutation(self):
        items = list(range(40))
        Prng(1).shuffle(items)
        assert sorted(items) == list(range(40))
        assert items != list(range(40))  # seed 1 does move something

    def test_deterministic(self):
        a = list(range(25))
        b = list(range(25))
        Prng(99).shuffle(a)
        Prng(99).shuffle(b)
        assert a == b

    def test_single_and_empty(self):
        for items in ([], [7]):
            copy = list(items)
            Prng(0).shuffle(copy)
            assert copy == items


class TestStreamIndependence:
    def test_child_streams_do_not_collide(self):
        """Consecutive raw outputs used as child seeds give distinct streams."""
        master = Prng(0)
        children = [Prng(master.next_u64()) for _ in range(8)]
        firsts = [c.next_u64() for c in children]
        assert len(set(firsts)) == len(firsts)
