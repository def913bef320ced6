"""Shared fixtures: seeded corpora and the MNIST-or-synthetic data
resolution used by the desk-scale acceptance runs.

Real MNIST is used when MDL_DATA_DIR points at the IDX files; otherwise a
deterministic synthetic corpus with the same shapes stands in, and every
test prints which source it ran on.
"""

import os
from pathlib import Path

import pytest

from boltznet.core import make_rng
from boltznet.data import make_batches, one_of_k, shuffle_paired
from boltznet.synth import make_digit_corpus


def _mnist_dir():
    d = os.environ.get("MDL_DATA_DIR", "")
    if d and (Path(d) / "train-images-idx3-ubyte").exists():
        return d
    return None


class DeskData:
    """Train/test split plus batch list for one desk-scale experiment."""

    def __init__(self, train_x, train_y, test_x, test_y, num_batches, seed=0):
        self.source = "mnist" if _mnist_dir() else "synthetic"
        onehot = one_of_k(train_y, 10)
        self.train_x, self.train_onehot = shuffle_paired(train_x, onehot,
                                                         make_rng(seed))
        self.batches = make_batches(self.train_x, self.train_onehot, num_batches)
        self.test_x, self.test_y = test_x, test_y


def _load_desk(n_train, n_test, num_batches):
    d = _mnist_dir()
    if d:
        from boltznet.cli import load_mnist

        train_x, train_y, test_x, test_y = load_mnist(d)
        train_x, train_y = train_x[:n_train], train_y[:n_train]
        test_x, test_y = test_x[:n_test], test_y[:n_test]
    else:
        train_x, train_y, test_x, test_y = make_digit_corpus(n_train, n_test,
                                                             seed=1)
    return DeskData(train_x, train_y, test_x, test_y, num_batches)


@pytest.fixture(scope="session")
def desk10k():
    """10,000/2,000 split in 200 batches (criteria 4, 5, 7)."""
    return _load_desk(10000, 2000, 200)


@pytest.fixture(scope="session")
def desk5k():
    """5,000/1,000 split in 100 batches (criterion 6)."""
    return _load_desk(5000, 1000, 100)


@pytest.fixture(scope="session")
def desk3k():
    """3,000/1,000 split in 100 batches (criterion 8)."""
    return _load_desk(3000, 1000, 100)


@pytest.fixture()
def rng():
    return make_rng(12345)
