"""Seeded input generation for the benchmark workloads.

Everything here uses numpy and the standard library only, so the inputs do
not depend on framekit.  Files are written with ``json`` (floats as
``repr``), which round-trips every double exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: The 12 x 6 frame behind the scaled copies is fixed, so the operations that
#: fail on it fail the same way on every seed.
FIXED_SMALL_SEED = 1606_04868
SCALES = {"small-12x6-e-90": 1e-90, "small-12x6-e+80": 1e80}


@dataclass(frozen=True)
class FrameInput:
    name: str
    points: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class ModelInput:
    name: str
    locations: np.ndarray
    masses: np.ndarray
    vectors: np.ndarray
    phat: np.ndarray | None  # complex profile at the atoms, or None
    x_points: np.ndarray | None  # quadrature grid of phi_x, or None
    x_weights: np.ndarray | None
    phi: np.ndarray | None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def random_frame(name: str, n: int, m: int, rng: np.random.Generator) -> FrameInput:
    """n Gaussian vectors on m distinct points with weights in [0.5, 2)."""
    points = np.arange(m, dtype=float) + rng.uniform(0.0, 0.5, m)
    weights = rng.uniform(0.5, 2.0, m)
    return FrameInput(name, points, weights, rng.standard_normal((n, m)))


def mercedes() -> FrameInput:
    h = math.sqrt(3.0) / 2.0
    return FrameInput(
        "mercedes",
        np.array([1.0, 2.0]),
        np.array([1.0, 1.0]),
        np.array([[1.0, 0.0], [-0.5, h], [-0.5, -h]]),
    )


def monomial(n: int, m: int) -> FrameInput:
    """t^k, k < n, on the m-point midpoint grid of (0, 1): a Hilbert-type Gramian."""
    x = (np.arange(m) + 0.5) / m
    return FrameInput(
        f"monomial-{n}x{m}", x, np.full(m, 1.0 / m), x[None, :] ** np.arange(n)[:, None]
    )


def duplicated(n: int, m: int, rng: np.random.Generator) -> FrameInput:
    """n random vectors on m points, each listed twice: rank n, 2n vectors."""
    base = random_frame("duplicated", n, m, rng)
    return FrameInput(
        f"duplicated-{2 * n}x{m}",
        base.points,
        base.weights,
        np.vstack([base.vectors, base.vectors]),
    )


def frame_cli_inputs(seed: int) -> list[FrameInput]:
    small = random_frame("small-12x6", 12, 6, _rng(FIXED_SMALL_SEED, 0))
    frames = [
        mercedes(),
        monomial(12, 64),
        random_frame("random-60x30", 60, 30, _rng(seed, 1)),
        random_frame("random-30x60", 30, 60, _rng(seed, 2)),
        duplicated(8, 16, _rng(seed, 3)),
        small,
    ]
    for name, scale in SCALES.items():
        frames.append(FrameInput(name, small.points, small.weights, small.vectors * scale))
    return frames


def kl_inputs(seed: int) -> list[ModelInput]:
    """Two models of 50 vectors on 40 atoms: one with phat, one with phi_x."""
    models = []
    for stream, kind in ((1, "phat"), (2, "phi_x")):
        rng = _rng(seed, stream)
        atoms, n_vectors = 40, 50
        locations = np.sort(rng.uniform(-3.0, 3.0, atoms))
        while np.unique(locations).size != atoms:  # distinct atoms, as required
            locations = np.sort(rng.uniform(-3.0, 3.0, atoms))
        masses = rng.uniform(0.2, 1.5, atoms)
        vectors = rng.standard_normal((n_vectors, atoms))
        if kind == "phat":
            phat = rng.standard_normal(atoms) + 1j * rng.standard_normal(atoms)
            models.append(
                ModelInput("model-phat", locations, masses, vectors, phat, None, None, None)
            )
        else:
            x = np.linspace(-4.0, 4.0, 64)
            xw = np.full(64, 8.0 / 64)
            phi = np.exp(-0.5 * x**2) * (1.0 + 0.3 * rng.standard_normal(64))
            models.append(
                ModelInput("model-phi_x", locations, masses, vectors, None, x, xw, phi)
            )
    return models


def _floats(a) -> list:
    return [float(v) for v in np.asarray(a).ravel()]


def _rows(a) -> list:
    return [_floats(r) for r in np.asarray(a)]


def write_frame(path: str, f: FrameInput) -> None:
    payload = {
        "grid": {"points": _floats(f.points), "weights": _floats(f.weights)},
        "vectors": _rows(f.vectors),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def write_model(path: str, m: ModelInput) -> None:
    payload = {
        "atoms": [{"u": float(u), "mass": float(w)} for u, w in zip(m.locations, m.masses)],
        "frame": _rows(m.vectors),
    }
    if m.phat is not None:
        payload["phat"] = {"re": _floats(m.phat.real), "im": _floats(m.phat.imag)}
    else:
        payload["phi_x"] = {
            "grid": {"points": _floats(m.x_points), "weights": _floats(m.x_weights)},
            "values": _floats(m.phi),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
