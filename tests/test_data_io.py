import struct

import numpy as np
import pytest

from boltznet.core import DomainError, ShapeError, make_rng
from boltznet.data import (FormatError, make_batches, one_of_k, read_cifar10,
                           read_f32be_matrix, read_mnist_images, read_mnist_labels,
                           shuffle_paired)
from boltznet.synth import write_cifar_batch, write_idx_images, write_idx_labels


class TestMnistImages:
    def test_round_trip_two_images(self, tmp_path):
        pixels = np.arange(2 * 784, dtype=np.uint8).reshape(2, 784) % 251
        path = tmp_path / "imgs"
        write_idx_images(path, pixels, 28, 28)
        m = read_mnist_images(path)
        assert m.shape == (2, 784)
        np.testing.assert_array_equal(np.rint(m * 255).astype(np.uint8), pixels)
        # writing the matrix back reproduces the file byte for byte
        write_idx_images(tmp_path / "again", m, 28, 28)
        assert (tmp_path / "again").read_bytes() == path.read_bytes()

    def test_values_scaled_to_unit_interval(self, tmp_path):
        pixels = np.array([[0, 255, 128]], dtype=np.uint8)
        write_idx_images(tmp_path / "f", pixels, 1, 3)
        m = read_mnist_images(tmp_path / "f")
        assert m.min() == 0.0 and m.max() == 1.0

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad").write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_mnist_images(tmp_path / "bad")

    def test_truncated_body_rejected(self, tmp_path):
        (tmp_path / "short").write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(FormatError):
            read_mnist_images(tmp_path / "short")


class TestMnistLabels:
    def test_round_trip(self, tmp_path):
        labels = np.array([3, 1, 4, 1, 5, 9], dtype=np.uint8)
        write_idx_labels(tmp_path / "lab", labels)
        m = read_mnist_labels(tmp_path / "lab")
        assert m.shape == (6, 1)
        np.testing.assert_array_equal(m[:, 0], labels)

    def test_out_of_range_label_rejected(self, tmp_path):
        write_idx_labels(tmp_path / "lab", np.array([3, 12], dtype=np.uint8))
        with pytest.raises(FormatError):
            read_mnist_labels(tmp_path / "lab")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad").write_bytes(struct.pack(">II", 2051, 1) + b"\x01")
        with pytest.raises(FormatError):
            read_mnist_labels(tmp_path / "bad")


class TestCifar:
    def test_round_trip_shapes(self, tmp_path):
        rng = make_rng(0)
        paths = []
        for i in range(6):
            labels = rng.integers(0, 10, 4).astype(np.uint8)
            pixels = rng.integers(0, 256, (4, 3072)).astype(np.uint8)
            p = tmp_path / f"batch{i}.bin"
            write_cifar_batch(p, labels, pixels)
            paths.append(p)
        train_x, train_y, test_x, test_y = read_cifar10(paths)
        assert train_x.shape == (20, 3072) and train_y.shape == (20, 1)
        assert test_x.shape == (4, 3072) and test_y.shape == (4, 1)
        assert train_x.min() >= 0.0 and train_x.max() <= 1.0

    def test_record_stride(self, tmp_path):
        write_cifar_batch(tmp_path / "b", np.array([1], dtype=np.uint8),
                          np.zeros((1, 3072), dtype=np.uint8))
        assert (tmp_path / "b").stat().st_size == 3073

    def test_bad_length_rejected(self, tmp_path):
        (tmp_path / "b").write_bytes(b"\x00" * 3072)
        with pytest.raises(FormatError):
            read_cifar10([tmp_path / "b"] * 6)

    def test_out_of_range_label_rejected(self, tmp_path):
        write_cifar_batch(tmp_path / "b", np.array([3, 10], dtype=np.uint8),
                          np.zeros((2, 3072), dtype=np.uint8))
        with pytest.raises(FormatError):
            read_cifar10([tmp_path / "b"] * 6)

    def test_needs_six_files(self, tmp_path):
        with pytest.raises(FormatError):
            read_cifar10([tmp_path / "only-one"])


class TestF32Be:
    def test_known_bit_patterns(self, tmp_path):
        (tmp_path / "f").write_bytes(bytes([0x3F, 0x80, 0x00, 0x00,
                                            0x00, 0x00, 0x00, 0x00]))
        m = read_f32be_matrix(tmp_path / "f", 1, 2)
        np.testing.assert_array_equal(m, [[1.0, 0.0]])

    def test_round_trip(self, tmp_path):
        values = make_rng(1).normal(size=(3, 26)).astype(">f4")
        (tmp_path / "f").write_bytes(values.tobytes())
        m = read_f32be_matrix(tmp_path / "f", 3, 26)
        np.testing.assert_array_equal(m, values.astype(np.float64))

    def test_short_file_rejected(self, tmp_path):
        (tmp_path / "f").write_bytes(b"\x00" * 7)
        with pytest.raises(FormatError):
            read_f32be_matrix(tmp_path / "f", 1, 2)

    @pytest.mark.parametrize("rows, cols", [(-2, 2), (-1, 4)])
    def test_negative_dimensions_rejected(self, tmp_path, rows, cols):
        # 16 bytes would pass the size check, as 4 * rows * cols is negative
        (tmp_path / "f").write_bytes(b"\x00" * 16)
        with pytest.raises(DomainError, match="must not be negative"):
            read_f32be_matrix(tmp_path / "f", rows, cols)


class TestOneOfK:
    def test_fourth_of_five(self):
        np.testing.assert_array_equal(one_of_k(np.array([[3.0]]), 5),
                                      [[0, 0, 0, 1, 0]])

    def test_single_class(self):
        np.testing.assert_array_equal(one_of_k(np.array([[0.0], [0.0]]), 1),
                                      [[1.0], [1.0]])

    def test_rows_sum_to_one(self):
        labels = make_rng(2).integers(0, 7, (40, 1)).astype(float)
        np.testing.assert_array_equal(one_of_k(labels, 7).sum(axis=1), 1.0)

    def test_out_of_range_rejected(self):
        for label in (5.0, 2.5):  # k itself, and a fraction below it
            with pytest.raises(DomainError):
                one_of_k(np.array([[label]]), 5)


class TestShuffle:
    def test_multiset_preserved(self):
        rng = make_rng(3)
        data = rng.random((30, 4))
        labels = rng.random((30, 2))
        s_data, s_labels = shuffle_paired(data, labels, make_rng(4))
        assert sorted(map(tuple, data)) == sorted(map(tuple, s_data))

    def test_pairing_preserved(self):
        data = np.arange(20, dtype=float).reshape(10, 2)
        labels = data.sum(axis=1, keepdims=True)
        s_data, s_labels = shuffle_paired(data, labels, make_rng(5))
        np.testing.assert_array_equal(s_data.sum(axis=1, keepdims=True), s_labels)

    def test_same_seed_same_permutation(self):
        data = make_rng(6).random((15, 3))
        a, _ = shuffle_paired(data, data, make_rng(7))
        b, _ = shuffle_paired(data, data, make_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            shuffle_paired(np.zeros((3, 2)), np.zeros((4, 1)), make_rng(0))


class TestBatches:
    def test_even_split(self):
        batches = make_batches(np.zeros((10000, 3)), np.zeros((10000, 1)), 200)
        assert len(batches) == 200
        assert all(b[0].shape[0] == 50 for b in batches)

    def test_single_batch(self):
        batches = make_batches(np.zeros((7, 2)), None, 1)
        assert len(batches) == 1 and batches[0][0].shape[0] == 7

    def test_remainder_goes_to_last_batch(self):
        batches = make_batches(np.zeros((103, 2)), None, 10)
        sizes = [b[0].shape[0] for b in batches]
        assert sizes == [10] * 9 + [13]

    def test_too_many_batches_rejected(self):
        with pytest.raises(DomainError):
            make_batches(np.zeros((3, 2)), None, 4)


class TestReaderScaling:
    """Reader output on seeded random bytes, bitwise against converting the
    bytes to float64 and then dividing by 255."""

    @staticmethod
    def assert_bitwise(got, expect):
        assert got.dtype == np.float64 and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()

    def test_mnist_images(self, tmp_path):
        pixels = make_rng(20).integers(0, 256, (7, 12)).astype(np.uint8)
        write_idx_images(tmp_path / "imgs", pixels, 3, 4)
        self.assert_bitwise(read_mnist_images(tmp_path / "imgs"),
                            pixels.astype(np.float64) / 255.0)

    def test_cifar10(self, tmp_path):
        rng = make_rng(21)
        parts = []
        for i, n in enumerate([3, 1, 4, 2, 5, 3]):
            labels = rng.integers(0, 10, n).astype(np.uint8)
            pixels = rng.integers(0, 256, (n, 3072)).astype(np.uint8)
            write_cifar_batch(tmp_path / f"b{i}", labels, pixels)
            parts.append((pixels.astype(np.float64) / 255.0,
                          labels.astype(np.float64).reshape(-1, 1)))
        got = read_cifar10([tmp_path / f"b{i}" for i in range(6)])
        expect = (np.vstack([x for x, _ in parts[:5]]),
                  np.vstack([y for _, y in parts[:5]]), *parts[5])
        for g, e in zip(got, expect):
            self.assert_bitwise(g, e)
