"""Seeded Monte Carlo integration over coordinate boxes.

Sampling uses the counter-based Philox generator keyed per fixed-size
chunk (key = [seed, chunk_index]), so estimates are bit-reproducible and
independent of how chunks would be scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

CHUNK = 1 << 19  # fixed; part of the reproducibility contract


@dataclass(frozen=True)
class MCConfig:
    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples <= 0:
            raise ParameterError("sample budget must be positive")


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int


def _chunk_generator(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed % 2**64, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_box(bounds: np.ndarray, cfg: MCConfig, index: int, count: int) -> np.ndarray:
    """Uniform points in the box for chunk `index`, shape (count, dim)."""
    bounds = np.asarray(bounds, dtype=float)
    u = _chunk_generator(cfg.seed, index).random((count, bounds.shape[0]))
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def mc_integrate_vector(integrand, bounds, cfg: MCConfig, width: int):
    """Estimate `width` integrals at once over a coordinate box.

    integrand(pts) receives an (m, dim) array and returns (m, width).
    Returns a list of MCEstimate sharing the same sample stream.
    """
    bounds = np.asarray(bounds, dtype=float)
    vol = float(np.prod(bounds[:, 1] - bounds[:, 0]))
    s1 = np.zeros(width)
    s2 = np.zeros(width)
    done = 0
    index = 0
    while done < cfg.samples:
        m = min(CHUNK, cfg.samples - done)
        pts = sample_box(bounds, cfg, index, m)
        vals = np.asarray(integrand(pts), dtype=float).reshape(m, width)
        s1 += vals.sum(axis=0)
        s2 += (vals * vals).sum(axis=0)
        done += m
        index += 1
    n = cfg.samples
    mean = s1 / n
    var = np.maximum(s2 - n * mean * mean, 0.0) / max(n - 1, 1)
    stderr = vol * np.sqrt(var / n)
    return [
        MCEstimate(float(vol * mean[k]), float(stderr[k]), n, cfg.seed)
        for k in range(width)
    ]


def mc_integrate(integrand, bounds, cfg: MCConfig) -> MCEstimate:
    """Scalar version of mc_integrate_vector."""

    def wrapped(pts):
        return np.asarray(integrand(pts), dtype=float)[:, None]

    return mc_integrate_vector(wrapped, bounds, cfg, 1)[0]
