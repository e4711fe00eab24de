"""Scene synthesis and PGM I/O: spec validation, mask geometry against the
closed-form disk, dataset reproducibility, and byte-exact image files.
"""

import math
import os

import numpy as np
import pytest

from nuseg.data import (MASK_LEVEL, Background, DatasetTemplate, SceneSpec,
                        TargetSpec, gen_dataset, gen_scene, load_dataset,
                        load_pgm, save_pgm)
from nuseg.prng import Prng


def flat_spec(targets, seed=0, size=32, noise=0.0, level=0.1):
    return SceneSpec(width=size, height=size,
                     background=Background("flat", level=level),
                     targets=tuple(targets), noise_std=noise, seed=seed)


ONE_TARGET = (TargetSpec(cx=16.3, cy=15.7, sigma=2.5, amplitude=0.9),)


class TestSpecValidation:
    def test_mask_level_is_two_sigma(self):
        assert MASK_LEVEL == math.exp(-2.0)

    def test_amplitude_bounds(self):
        bad = (TargetSpec(cx=16, cy=16, sigma=2.0, amplitude=0.0),)
        with pytest.raises(ValueError, match="target 0: amplitude"):
            flat_spec(bad)

    def test_sigma_positive(self):
        bad = (TargetSpec(cx=16, cy=16, sigma=0.0, amplitude=0.5),)
        with pytest.raises(ValueError, match="target 0: sigma"):
            flat_spec(bad)

    def test_footprint_cap(self):
        bad = (TargetSpec(cx=32, cy=32, sigma=5.0, amplitude=0.5),)
        with pytest.raises(ValueError, match="under 30x30"):
            flat_spec(bad, size=64)

    def test_target_must_fit_inside(self):
        bad = (TargetSpec(cx=2.0, cy=16.0, sigma=2.0, amplitude=0.5),)
        with pytest.raises(ValueError, match="leaves the image"):
            flat_spec(bad)

    def test_second_bad_target_is_named(self):
        bad = ONE_TARGET + (TargetSpec(cx=16, cy=16, sigma=-1.0, amplitude=0.5),)
        with pytest.raises(ValueError, match="target 1"):
            flat_spec(bad)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_std"):
            flat_spec(ONE_TARGET, noise=-0.1)

    def test_background_kind_checked(self):
        with pytest.raises(ValueError, match="background kind"):
            Background("perlin")

    def test_flat_level_range(self):
        with pytest.raises(ValueError, match="flat level"):
            Background("flat", level=1.5)

    def test_lowpass_ranges(self):
        with pytest.raises(ValueError, match="cutoff"):
            Background("lowpass_noise", cutoff=0)
        with pytest.raises(ValueError, match="gain"):
            Background("lowpass_noise", gain=-0.1)

    def test_template_target_range(self):
        with pytest.raises(ValueError, match="target count range"):
            DatasetTemplate(min_targets=3, max_targets=2)

    def test_template_sigma_cap(self):
        with pytest.raises(ValueError, match="footprint cap"):
            DatasetTemplate(sigma_range=(1.0, 5.0))

    def test_template_too_small_for_its_targets(self):
        """The default sigma_range ends at 3.2: a 6-sigma box plus its centre
        pixel needs 20.2 px, so 21 px is the smallest size accepted."""
        for size in (0, 7, 20):
            with pytest.raises(ValueError, match=f"{size}x{size} is below the minimum of 21 px"):
                DatasetTemplate(width=size, height=size)
        with pytest.raises(ValueError, match="64x20 is below the minimum of 21 px"):
            DatasetTemplate(width=64, height=20)
        DatasetTemplate(width=21, height=21)
        DatasetTemplate(width=8, height=8, sigma_range=(1.0, 1.1))
        DatasetTemplate(width=7, height=7, min_targets=0, max_targets=0)

    def test_template_background_kinds(self):
        with pytest.raises(ValueError, match="unknown background"):
            DatasetTemplate(backgrounds=("flat", "perlin"))


class TestGenScene:
    def test_shapes_dtypes_and_range(self):
        sample = gen_scene(flat_spec(ONE_TARGET))
        assert sample.image.data.shape == (1, 3, 32, 32)
        assert sample.mask.data.shape == (1, 1, 32, 32)
        assert sample.image.data.dtype == np.float32
        assert sample.image.data.min() >= 0.0
        assert sample.image.data.max() <= 1.0
        assert set(np.unique(sample.mask.data)) <= {0.0, 1.0}

    def test_channels_are_replicated(self):
        img = gen_scene(flat_spec(ONE_TARGET, noise=0.005)).image.data
        np.testing.assert_array_equal(img[0, 0], img[0, 1])
        np.testing.assert_array_equal(img[0, 0], img[0, 2])

    def test_deterministic_in_the_spec(self):
        target = (TargetSpec(cx=12.0, cy=11.5, sigma=2.0, amplitude=0.9),)
        spec = SceneSpec(width=24, height=24,
                         background=Background("lowpass_noise", cutoff=2, gain=0.05),
                         targets=target, noise_std=0.01, seed=77)
        a = gen_scene(spec)
        b = gen_scene(spec)
        np.testing.assert_array_equal(a.image.data, b.image.data)
        np.testing.assert_array_equal(a.mask.data, b.mask.data)

    def test_flat_noiseless_scene_ignores_the_seed(self):
        """Flat background and zero noise never touch the stream, so the
        render is seed-independent."""
        a = gen_scene(flat_spec(ONE_TARGET, seed=1))
        b = gen_scene(flat_spec(ONE_TARGET, seed=2))
        np.testing.assert_array_equal(a.image.data, b.image.data)

    def test_mask_is_the_two_sigma_disk(self):
        """The mask must equal the closed-form disk d^2 <= (2 sigma)^2 around
        the center, independent of amplitude and background."""
        t = ONE_TARGET[0]
        mask = gen_scene(flat_spec(ONE_TARGET)).mask.data[0, 0]
        yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
        want = ((xx - t.cx) ** 2 + (yy - t.cy) ** 2) <= (2.0 * t.sigma) ** 2
        np.testing.assert_array_equal(mask, want.astype(np.float32))

    def test_mask_footprint_stays_under_30(self):
        big = (TargetSpec(cx=32.0, cy=32.0, sigma=4.9, amplitude=1.0),)
        mask = gen_scene(flat_spec(big, size=64)).mask.data[0, 0]
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        assert rows[-1] - rows[0] + 1 < 30
        assert cols[-1] - cols[0] + 1 < 30

    def test_no_targets_means_empty_mask(self):
        sample = gen_scene(flat_spec(()))
        assert not sample.mask.data.any()

    def test_overlapping_targets_union_masks(self):
        t2 = (TargetSpec(cx=14.0, cy=16.0, sigma=2.0, amplitude=0.8),
              TargetSpec(cx=18.0, cy=16.0, sigma=2.0, amplitude=0.8))
        merged = gen_scene(flat_spec(t2)).mask.data[0, 0]
        singles = [gen_scene(flat_spec((t,))).mask.data[0, 0] for t in t2]
        np.testing.assert_array_equal(merged, np.maximum(*singles))

    def test_bright_peak_clips_to_one(self):
        hot = (TargetSpec(cx=16.0, cy=16.0, sigma=2.0, amplitude=1.0),)
        img = gen_scene(flat_spec(hot, level=0.25)).image.data
        assert img.max() == 1.0

    def test_noise_changes_the_image_but_not_the_mask(self):
        clean = gen_scene(flat_spec(ONE_TARGET, noise=0.0, seed=3))
        noisy = gen_scene(flat_spec(ONE_TARGET, noise=0.01, seed=3))
        assert not np.array_equal(clean.image.data, noisy.image.data)
        np.testing.assert_array_equal(clean.mask.data, noisy.mask.data)


class TestGenDataset:
    def test_same_seed_same_bytes(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            gen_dataset(d, 3, DatasetTemplate(), seed=11)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_file_layout_and_manifest(self, tmp_path):
        specs = gen_dataset(tmp_path / "d", 4, DatasetTemplate(), seed=12)
        names = sorted(os.listdir(tmp_path / "d"))
        assert len(specs) == 4
        assert names == ["manifest.csv"] + sorted(
            f"sample_{i:04d}.{kind}.pgm" for i in range(4)
            for kind in ("img", "mask"))
        lines = (tmp_path / "d" / "manifest.csv").read_text().splitlines()
        assert lines[0] == "filename,n_targets,centers"
        assert len(lines) == 5
        for line, spec in zip(lines[1:], specs):
            fname, n_str, centers = line.split(",")
            assert fname.endswith(".img.pgm")
            assert int(n_str) == len(spec.targets)
            assert len([c for c in centers.split(";") if c]) == len(spec.targets)

    def test_manifest_centers_land_on_mask_pixels(self, tmp_path):
        specs = gen_dataset(tmp_path / "d", 5, DatasetTemplate(), seed=13)
        for i, spec in enumerate(specs):
            mask = load_pgm(tmp_path / "d" / f"sample_{i:04d}.mask.pgm")
            for t in spec.targets:
                assert mask[round(t.cy), round(t.cx)] == 1.0

    def test_prefix_is_independent_of_dataset_size(self, tmp_path):
        gen_dataset(tmp_path / "short", 2, DatasetTemplate(), seed=14)
        gen_dataset(tmp_path / "long", 5, DatasetTemplate(), seed=14)
        for i in range(2):
            for kind in ("img", "mask"):
                name = f"sample_{i:04d}.{kind}.pgm"
                assert (tmp_path / "short" / name).read_bytes() == \
                    (tmp_path / "long" / name).read_bytes()

    def test_sample_seeds_are_consecutive_stream_outputs(self, tmp_path):
        specs = gen_dataset(tmp_path / "d", 3, DatasetTemplate(), seed=15)
        master = Prng(15)
        for spec in specs:
            assert spec.seed == Prng(master.next_u64()).next_u64()

    def test_target_counts_cover_the_range(self, tmp_path):
        specs = gen_dataset(tmp_path / "d", 100, DatasetTemplate(), seed=16)
        counts = {len(s.targets) for s in specs}
        assert counts == {1, 2}

    def test_needs_at_least_one_sample(self, tmp_path):
        with pytest.raises(ValueError, match="n >= 1"):
            gen_dataset(tmp_path / "d", 0, DatasetTemplate(), seed=0)


class TestPgm:
    def test_known_bytes(self, tmp_path):
        arr = np.array([[0.0, 1.0], [1.0 / 3.0, 2.0 / 3.0]], dtype=np.float32)
        path = tmp_path / "t.pgm"
        save_pgm(path, arr)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 85, 170])

    def test_load_maps_255_to_one(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 85]))
        arr = load_pgm(path)
        assert arr.dtype == np.float32
        assert arr[0, 0] == 1.0
        assert arr[0, 1] == np.float32(85) / np.float32(255)

    def test_save_load_save_identity(self, tmp_path):
        raw = Prng(1).uniform_array(64).reshape(8, 8)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_pgm(p1, raw)
        save_pgm(p2, load_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_comment_lines_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n# another\n255\n" + bytes([7, 9]))
        arr = load_pgm(path)
        assert arr.shape == (1, 2)
        assert arr[0, 0] == np.float32(7) / np.float32(255)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2\n2 1\n255\n99")
        with pytest.raises(ValueError, match="not a binary PGM"):
            load_pgm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n999\n" + bytes([1, 2]))
        with pytest.raises(ValueError, match="maxval"):
            load_pgm(path)

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(ValueError, match="payload"):
            load_pgm(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2")
        with pytest.raises(ValueError, match="truncated PGM header") as err:
            load_pgm(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("header", [b"P5\n0 4\n255\n", b"P5\n4 0\n255\n"])
    def test_zero_size_header_rejected(self, tmp_path, header):
        path = tmp_path / "t.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="at least 1x1") as err:
            load_pgm(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("header,field", [(b"P5\nab 4\n255\n", "width"),
                                              (b"P5\n4 -4\n255\n", "height"),
                                              (b"P5\n1 1\n2_55\n\x00", "maxval")])
    def test_non_integer_header_token_names_the_file(self, tmp_path, header, field):
        path = tmp_path / "t.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=f"PGM {field} must be a decimal integer") as err:
            load_pgm(path)
        assert str(path) in str(err.value)

    def test_save_requires_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            save_pgm(tmp_path / "t.pgm", np.zeros((1, 2, 2)))


class TestLoadDataset:
    def test_round_trip_through_files(self, tmp_path):
        gen_dataset(tmp_path / "d", 3, DatasetTemplate(), seed=17)
        samples = load_dataset(tmp_path / "d")
        assert [s.name for s in samples] == [f"sample_{i:04d}" for i in range(3)]
        for s in samples:
            assert s.image.data.shape == (1, 3, 64, 64)
            assert s.mask.data.shape == (1, 1, 64, 64)
            np.testing.assert_array_equal(s.image.data[0, 0], s.image.data[0, 1])
            assert set(np.unique(s.mask.data)) <= {0.0, 1.0}

    def test_mask_binarizes_at_half(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "x.img.pgm").write_bytes(b"P5\n2 1\n255\n" + bytes([0, 0]))
        (d / "x.mask.pgm").write_bytes(b"P5\n2 1\n255\n" + bytes([127, 128]))
        sample = load_dataset(d)[0]
        np.testing.assert_array_equal(sample.mask.data[0, 0], [[0.0, 1.0]])

    def test_mixed_sizes_load(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        for stem, size in (("a", 2), ("b", 3)):
            body = bytes([10] * (size * size))
            (d / f"{stem}.img.pgm").write_bytes(
                f"P5\n{size} {size}\n255\n".encode() + body)
            (d / f"{stem}.mask.pgm").write_bytes(
                f"P5\n{size} {size}\n255\n".encode() + body)
        samples = load_dataset(d)
        assert [s.image.data.shape[2] for s in samples] == [2, 3]

    def test_unpaired_files_rejected(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "x.img.pgm").write_bytes(b"P5\n1 1\n255\n" + bytes([0]))
        with pytest.raises(ValueError, match="unpaired image file: x.img.pgm"):
            load_dataset(d)
        (d / "x.img.pgm").unlink()
        (d / "y.mask.pgm").write_bytes(b"P5\n1 1\n255\n" + bytes([0]))
        with pytest.raises(ValueError, match="unpaired mask file: y.mask.pgm"):
            load_dataset(d)

    def test_empty_directory_rejected(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        with pytest.raises(ValueError, match="no image/mask pairs"):
            load_dataset(d)

    def test_size_mismatch_within_pair_rejected(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "x.img.pgm").write_bytes(b"P5\n1 1\n255\n" + bytes([0]))
        (d / "x.mask.pgm").write_bytes(b"P5\n2 1\n255\n" + bytes([0, 0]))
        with pytest.raises(ValueError, match="differ"):
            load_dataset(d)
