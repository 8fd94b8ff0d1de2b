import os

import numpy as np
import pytest

import fiberspec as fs
from fiberspec.expr import parse

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs", "trig_rank3.json")


def curve1(w):
    return np.cos(np.pi * w / 2) ** 2


def curve2(w):
    return 0.5 * np.sin(np.pi * w) ** 2


def curve3(w):
    return w**2 / 3


def phi(n, t):
    return np.sqrt(2.0) * np.sin(n * np.pi * t)


def random_separable_kernel(rng, max_rank=5):
    """Random trigonometric separable kernel with 1..max_rank terms."""
    rank = int(rng.integers(1, max_rank + 1))
    terms = []
    for _ in range(rank):
        a, b, c = (repr(float(x)) for x in rng.uniform(-1.0, 1.0, 3))
        freq = int(rng.integers(1, 4))
        curve = f"{a}+{b}*cos({freq}*pi*omega)+{c}*sin(pi*omega)"
        u, v, z = (repr(float(x)) for x in rng.uniform(-1.0, 1.0, 3))
        k1, k2 = (int(x) for x in rng.integers(1, 7, 2))
        k3 = int(rng.integers(0, 4))
        basis = f"{u}*sin({k1}*pi*t)+{v}*sin({k2}*pi*t)+{z}*cos({k3}*pi*t)"
        terms.append((parse(curve), parse(basis)))
    return fs.SeparableKernel(tuple(terms))


def scalar_uniform(w, low, high):
    """The uniform in [low, high) of a 64-bit word w on Python ints: its top
    53 bits, as verify._uniforms takes them."""
    return low + (high - low) * ((w >> 11) * 2.0**-53)


def scalar_integer(w, low, high):
    """The integer in [low, high) of a 64-bit word w on Python ints: its top
    32 bits, as verify._integers takes them."""
    return low + ((w >> 32) * (high - low) >> 32)


def loop_random_node_partition(stream, d):
    """verify._random_node_partition one node and one word of the stream at
    a time: node i takes label 0 or one more than one of its retained curve
    ids.  The labels, one per node."""
    labels = []
    for i in range(d.n_fibers):
        options = [0] + [int(c) + 1 for c in d.labels[i, : d.ranks[i]]]
        pick = scalar_integer(int(stream._words(1)[0]), 0, len(options))
        labels.append(options[pick])
    return labels


def f_ref(w, t):
    # w column, t row
    return w * np.sin(np.pi * t) + np.sin(2 * np.pi * t)


def tf_ref(w, t):
    return w * curve1(w) * np.sin(np.pi * t) + curve2(w) * np.sin(2 * np.pi * t)


def t2f_ref(w, t):
    return w * curve1(w) ** 2 * np.sin(np.pi * t) + curve2(w) ** 2 * np.sin(
        2 * np.pi * t
    )


@pytest.fixture(scope="session")
def cfg():
    return fs.load_config(CONFIG_PATH)


@pytest.fixture(scope="session")
def decomposition(cfg):
    return fs.decompose(cfg)


@pytest.fixture()
def grids():
    return fs.build_omega_grid(16), fs.build_s_quadrature("gauss_legendre", 24)
