"""Velocity-field oracles.

Deterministic synthetic stand-ins for an expensive learned velocity model,
mapping (state, time, condition) to a velocity vector on t in [0, 1] with
t=1 the noise end and t=0 the data end. Four families are provided, each
isolating one aspect of the dynamics the rest of the pipeline must handle:

* ``constant``         zero acceleration everywhere,
* ``magnitude-decay``  exponential magnitude change along a fixed direction,
  v(x, t) = exp(rate * (1 - t)) * target, so the orthogonal residual of the
  discrete acceleration is identically zero,
* ``rotation``         constant-speed turning of a fixed vector in a 2-plane,
  v(x, t) = R(rate * (1 - t)) * target, so the parallel component vanishes
  as the grid refines,
* ``gaussian-mixture`` the exact marginal velocity transporting a standard
  normal onto an isotropic Gaussian mixture along straight interpolation
  paths (coupled magnitude and direction dynamics).

Evaluation is a pure function of its arguments; the only mutable observable
is a thread-safe call counter used for evaluation accounting.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .ioutil import _json_value, _known_keys

KIND_CONSTANT = "constant"
KIND_MAGNITUDE_DECAY = "magnitude-decay"
KIND_ROTATION = "rotation"
KIND_GAUSSIAN_MIXTURE = "gaussian-mixture"
FIELD_KINDS = (KIND_CONSTANT, KIND_MAGNITUDE_DECAY, KIND_ROTATION, KIND_GAUSSIAN_MIXTURE)

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Condition:
    """Conditioning information for one sample.

    The seed drives the per-sample noise initialization; ``params`` is a flat
    list of real hooks reserved for conditional field variants. Identical
    (seed, params) pairs produce bitwise-identical behavior everywhere.
    """

    seed: int
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidArgumentError(f"condition seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mean: tuple[float, ...]
    scale: float


@dataclass(frozen=True)
class FieldSpec:
    """Declarative description of one synthetic velocity field."""

    kind: str
    dimension: int
    target: tuple[float, ...] | None = None
    rate: float = 0.0
    plane: tuple[int, int] = (0, 1)
    components: tuple[MixtureComponent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in FIELD_KINDS:
            raise InvalidArgumentError(f"unknown field kind {self.kind!r}")
        if self.dimension < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {self.dimension}")
        if self.kind in (KIND_CONSTANT, KIND_MAGNITUDE_DECAY, KIND_ROTATION):
            if self.target is None or len(self.target) != self.dimension:
                raise InvalidArgumentError(f"{self.kind} field needs a target vector of length {self.dimension}")
        if self.kind == KIND_ROTATION:
            i, j = self.plane
            if self.dimension < 2 or i == j or not (0 <= i < self.dimension and 0 <= j < self.dimension):
                raise InvalidArgumentError(f"rotation plane {self.plane} invalid for dimension {self.dimension}")
        if self.kind == KIND_GAUSSIAN_MIXTURE:
            if not self.components:
                raise InvalidArgumentError("a gaussian-mixture field needs a non-empty components list")
            total = math.fsum(c.weight for c in self.components)
            if any(c.weight <= 0 for c in self.components):
                raise InvalidArgumentError("mixture weights must be positive")
            if abs(total - 1.0) > _WEIGHT_SUM_TOL:
                raise InvalidArgumentError(f"mixture weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")
            if any(c.scale <= 0 for c in self.components):
                raise InvalidArgumentError("mixture component scales must be positive")
            if any(len(c.mean) != self.dimension for c in self.components):
                raise InvalidArgumentError("mixture component means must match the field dimension")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "dimension": self.dimension}
        if self.kind in (KIND_CONSTANT, KIND_MAGNITUDE_DECAY, KIND_ROTATION):
            out["target"] = [float(v) for v in self.target]  # type: ignore[union-attr]
        if self.kind in (KIND_MAGNITUDE_DECAY, KIND_ROTATION):
            out["rate"] = float(self.rate)
        if self.kind == KIND_ROTATION:
            out["plane"] = [int(self.plane[0]), int(self.plane[1])]
        if self.kind == KIND_GAUSSIAN_MIXTURE:
            out["components"] = [
                {"weight": float(c.weight), "mean": [float(m) for m in c.mean], "scale": float(c.scale)}
                for c in self.components
            ]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FieldSpec":
        """A spec from the config's ``field`` object; a bad value names its key."""

        def error(prefix: str = ""):
            return lambda key, reason: _spec_error(prefix + key, reason)

        def value(key: str, kind: str, source: dict = data, prefix: str = ""):
            return _json_value(source, key, kind, error=error(prefix))

        _known_keys(data, ("kind", "dimension", "target", "rate", "plane", "components"), error())
        kind, dimension = value("kind", "str"), value("dimension", "int")
        kwargs: dict = {}
        if "target" in data:
            kwargs["target"] = value("target", "floats")
        if "rate" in data:
            kwargs["rate"] = value("rate", "float")
        if "plane" in data:
            plane = value("plane", "ints")
            if len(plane) != 2:
                raise _spec_error("plane", f"expected two axis indices, got {list(plane)!r}")
            kwargs["plane"] = plane
        if "components" in data:
            components = []
            for i, entry in enumerate(value("components", "list")):
                prefix = f"components[{i}]."
                if not isinstance(entry, dict):
                    raise _spec_error(prefix[:-1], f"expected a JSON object, got {entry!r}")
                _known_keys(entry, ("weight", "mean", "scale"), error(prefix))
                components.append(
                    MixtureComponent(
                        value("weight", "float", entry, prefix),
                        value("mean", "floats", entry, prefix),
                        value("scale", "float", entry, prefix),
                    )
                )
            kwargs["components"] = tuple(components)
        return cls(kind=kind, dimension=dimension, **kwargs)


def _spec_error(key: str, reason: str) -> InvalidArgumentError:
    return InvalidArgumentError(f"config key 'field.{key}': {reason}")


def field_digest(spec: FieldSpec) -> str:
    """Stable content hash of a field spec, used as bundle provenance."""
    canon = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def initial_state(condition: Condition, dimension: int) -> np.ndarray:
    """Standard-normal noise initialization derived from the condition seed."""
    rng = np.random.default_rng(condition.seed)
    return rng.standard_normal(dimension)


def gaussian_mixture_velocity(
    x: np.ndarray,
    t: float,
    components: list[tuple[float, np.ndarray, float]],
) -> np.ndarray:
    """Exact marginal velocity for straight-path transport onto a Gaussian mixture.

    For the interpolation X_t = t * X1 + (1 - t) * X0 with X1 standard normal
    (noise) and X0 drawn from the mixture (data), the marginal velocity is the
    conditional expectation E[X1 - X0 | X_t = x]. Per component i with mean
    mu_i and isotropic variance sigma_i^2, the marginal of X_t is normal with
    mean (1 - t) * mu_i and variance s_i^2(t) = t^2 + (1 - t)^2 * sigma_i^2,
    and the component velocity follows from Gaussian conditioning:

        E[X1 | x, i] = t * z_i / s_i^2
        E[X0 | x, i] = mu_i + (1 - t) * sigma_i^2 * z_i / s_i^2
        z_i = x - (1 - t) * mu_i

    weighted by posterior responsibilities proportional to
    w_i * N(x; (1 - t) * mu_i, s_i^2 I). Responsibilities are evaluated in
    log space so extreme states never underflow to an all-zero posterior.
    At t = 0 the formula is its own analytic limit since s_i^2(0) = sigma_i^2.
    """
    x = np.asarray(x, dtype=float)
    weights = np.array([w for w, _, _ in components], dtype=float)
    means = np.stack([np.asarray(m, dtype=float) for _, m, _ in components])
    scales = np.array([s for _, _, s in components], dtype=float)
    if np.any(weights <= 0) or abs(math.fsum(weights.tolist()) - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidArgumentError("mixture weights must be positive and sum to 1")
    if np.any(scales <= 0):
        raise InvalidArgumentError("mixture scales must be positive")
    if means.shape[1] != x.shape[0]:
        raise InvalidArgumentError(f"state dimension {x.shape[0]} does not match component means {means.shape[1]}")
    return _mixture_velocity(x, t, np.log(weights), means, scales**2)


def _mixture_velocity(
    x: np.ndarray, t: float, log_weights: np.ndarray, means: np.ndarray, scales_sq: np.ndarray
) -> np.ndarray:
    """The arithmetic of ``gaussian_mixture_velocity`` on validated arrays.

    ``log_weights`` and ``scales_sq`` have shape (C,), ``means`` (C, D), and
    ``x`` shape (D,) or (B, D); the result has the shape of ``x``. Each row of
    a (B, D) result equals the (D,) result for that row bit for bit: the row
    reductions keep their order. No argument is modified.
    """
    one_t = 1.0 - t
    s2 = t * t + one_t * one_t * scales_sq
    coef = (t - one_t * scales_sq) / s2
    if x.ndim == 2:
        z = x[:, None, :] - one_t * means
        log_resp = log_weights - 0.5 * np.einsum("bcd,bcd->bc", z, z) / s2 - 0.5 * x.shape[1] * np.log(s2)
        log_resp -= log_resp.max(axis=1, keepdims=True)
        resp = np.exp(log_resp)
        resp /= resp.sum(axis=1, keepdims=True)
        # in place: at large B * C * D a fresh temporary costs more in page faults than in arithmetic
        z *= coef[:, None]
        z -= means
        return np.matmul(resp[:, None, :], z)[:, 0]
    z = x[None, :] - one_t * means
    sq = np.einsum("cd,cd->c", z, z)
    log_resp = log_weights - 0.5 * sq / s2 - 0.5 * x.shape[0] * np.log(s2)
    log_resp -= log_resp.max()
    resp = np.exp(log_resp)
    resp /= resp.sum()

    component_vel = coef[:, None] * z - means
    return resp @ component_vel


class VelocityField:
    """A synthetic velocity oracle with evaluation accounting.

    The counter equals exactly the number of ``evaluate`` calls since
    construction or the last ``reset_evaluations`` (a batched call counts
    once), and is safe under concurrent increments. All other state is
    immutable: the spec is converted to arrays once, here, so each call runs
    only the velocity math.
    """

    def __init__(self, spec: FieldSpec):
        self._spec = spec
        self._velocity = _velocity_function(spec)
        self._evaluations = 0
        self._lock = threading.Lock()

    @property
    def spec(self) -> FieldSpec:
        return self._spec

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def evaluations(self) -> int:
        return self._evaluations

    def reset_evaluations(self) -> None:
        with self._lock:
            self._evaluations = 0

    def evaluate(self, state: np.ndarray, t: float, condition: Condition | Sequence[Condition]) -> np.ndarray:
        """Velocity at (state, t). Increments the evaluation counter by one.

        ``state`` is one (D,) state with one ``condition``, or a (B, D) batch
        with a sequence of B conditions; the result has the shape of
        ``state``, each row equal bit for bit to the (D,) call on it. A batched
        call is one forward pass and counts once, as NFE counts oracle
        evaluations. The condition is part of the evaluation contract
        (determinism is over the full argument tuple); the built-in families
        are unconditional, so it does not enter the arithmetic. The result is
        always a fresh array.
        """
        state = np.asarray(state, dtype=float)
        if state.shape != (self._spec.dimension,):
            if state.ndim != 2 or state.shape[0] < 1 or state.shape[1] != self._spec.dimension:
                raise InvalidArgumentError(
                    f"state shape {state.shape} does not match field dimension {self._spec.dimension}"
                )
            if not isinstance(condition, Sequence) or len(condition) != state.shape[0]:
                raise InvalidArgumentError(f"a batch of {state.shape[0]} states needs one condition per row")
        if not 0.0 <= t <= 1.0:
            raise InvalidArgumentError(f"time must lie in [0, 1], got {t}")
        with self._lock:
            self._evaluations += 1
        return self._velocity(state, t)


def _velocity_function(spec: FieldSpec) -> Callable[[np.ndarray, float], np.ndarray]:
    """Convert ``spec`` to arrays once; return ``(state, t) -> velocity``.

    The arrays stay private to the returned function: every call returns a
    fresh array, so no caller can alias or modify them.
    """
    if spec.kind == KIND_GAUSSIAN_MIXTURE:
        log_weights = np.log(np.array([c.weight for c in spec.components], dtype=float))
        means = np.array([c.mean for c in spec.components], dtype=float)
        scales_sq = np.array([c.scale for c in spec.components], dtype=float) ** 2
        return lambda state, t: _mixture_velocity(state, t, log_weights, means, scales_sq)
    target = np.array(spec.target, dtype=float)
    if spec.kind == KIND_CONSTANT:
        return lambda state, t: np.broadcast_to(target, state.shape).copy()
    if spec.kind == KIND_MAGNITUDE_DECAY:
        return lambda state, t: math.exp(spec.rate * (1.0 - t)) * np.broadcast_to(target, state.shape)
    i, j = spec.plane
    ti, tj = float(target[i]), float(target[j])

    def rotation(state: np.ndarray, t: float) -> np.ndarray:
        v = np.broadcast_to(target, state.shape).copy()
        angle = spec.rate * (1.0 - t)
        c, s = math.cos(angle), math.sin(angle)
        v[..., i] = c * ti - s * tj
        v[..., j] = s * ti + c * tj
        return v

    return rotation
