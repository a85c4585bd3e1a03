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
is a thread-safe call counter used for evaluation accounting. The mixture
oracle is two matrix-vector products against the component means per state
plus O(components) work; its time-only constants are built once per distinct
time, for all of a sampler walk's times in one pass, and kept, which changes
no result.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FieldError, InvalidArgumentError
from .ioutil import _defaults, _is_int, _json_value, _read_json, _write_json

KIND_CONSTANT = "constant"
KIND_MAGNITUDE_DECAY = "magnitude-decay"
KIND_ROTATION = "rotation"
KIND_GAUSSIAN_MIXTURE = "gaussian-mixture"
FIELD_KINDS = (KIND_CONSTANT, KIND_MAGNITUDE_DECAY, KIND_ROTATION, KIND_GAUSSIAN_MIXTURE)
# The keys each kind reads and writes besides ``kind`` and ``dimension``, in ``FIELD_KINDS`` order.
_KIND_KEYS = dict(zip(FIELD_KINDS, (("target",), ("target", "rate"), ("target", "rate", "plane"), ("components",))))
# The field spec document's keys in write order, each with its JSON kind, and a mixture component's.
FIELD_KEYS = {
    "kind": "str", "dimension": "int", "target": "floats", "rate": "float", "plane": "ints", "components": "list",
}
COMPONENT_KEYS = {"weight": "float", "mean": "floats", "scale": "float"}

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Condition:
    """Conditioning information for one sample.

    The seed drives the per-sample noise initialization; identical seeds
    produce bitwise-identical behavior everywhere.
    """

    seed: int

    def __post_init__(self) -> None:
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise InvalidArgumentError(f"condition seed must be a 64-bit unsigned integer, got {self.seed!r}")


def _check_seeds(key: str, seeds: Iterable[int], error: Callable) -> None:
    """``Condition``'s rule on each of ``seeds``; the first breach raises ``error(key, "entry i: ...")``."""
    for i, seed in enumerate(seeds):
        try:
            Condition(seed)
        except InvalidArgumentError as exc:
            raise error(key, f"entry {i}: {exc}") from None


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
    components: tuple[MixtureComponent, ...] = ()

    def __post_init__(self) -> None:
        """Raise ``FieldError`` naming the bad field, as ``from_dict``'s key below ``field``."""
        if self.kind not in FIELD_KINDS:
            raise FieldError("kind", f"unknown field kind {self.kind!r}; expected one of {', '.join(FIELD_KINDS)}")
        if not _is_int(self.dimension):
            raise FieldError("dimension", f"must be an integer, got {self.dimension!r}")
        if self.dimension < 1:
            raise FieldError("dimension", f"must be >= 1, got {self.dimension}")
        for spec_field in dataclass_fields(self)[2:]:  # the per-kind fields; to_dict and field_digest drop the rest
            key, default = spec_field.name, spec_field.default
            if key not in _KIND_KEYS[self.kind] and not np.array_equal(getattr(self, key), default):
                raise FieldError(key, f"a {self.kind} field does not read {key}; leave it at {default!r}")
        if self.kind in (KIND_CONSTANT, KIND_MAGNITUDE_DECAY, KIND_ROTATION):
            if self.target is None or len(self.target) != self.dimension:
                raise FieldError("target", f"a {self.kind} field needs a target vector of length {self.dimension}")
        if self.kind == KIND_ROTATION:
            if len(self.plane) != 2:
                raise FieldError("plane", f"expected two axis indices, got {list(self.plane)!r}")
            if len(set(self.plane)) < 2 or not all(_is_int(axis) and 0 <= axis < self.dimension for axis in self.plane):
                raise FieldError("plane", f"rotation plane {self.plane} invalid for dimension {self.dimension}")
        if self.kind == KIND_GAUSSIAN_MIXTURE:
            if not self.components:
                raise FieldError("components", "a gaussian-mixture field needs a non-empty components list")
            for i, c in enumerate(self.components):
                for key, value in (("weight", c.weight), ("scale", c.scale)):
                    if not 0 < value < math.inf:
                        raise FieldError(f"components[{i}].{key}", f"must be positive and finite, got {value!r}")
                if len(c.mean) != self.dimension:
                    reason = f"needs {self.dimension} entries, the field dimension, got {len(c.mean)}"
                    raise FieldError(f"components[{i}].mean", reason)
            total = math.fsum(c.weight for c in self.components)
            if abs(total - 1.0) > _WEIGHT_SUM_TOL:
                raise FieldError("components", f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")

    def to_dict(self) -> dict:
        values = {key: getattr(self, key) for key in ("kind", "dimension", *_KIND_KEYS[self.kind])}
        if "components" in values:
            values["components"] = [_write_json(COMPONENT_KEYS, vars(c)) for c in self.components]
        return _write_json(FIELD_KEYS, values)

    @classmethod
    def from_dict(cls, data: dict) -> "FieldSpec":
        """A spec from the config's ``field`` object; a bad value names its key."""

        def error(prefix: str = ""):
            return lambda key, reason: _spec_error(prefix + key, reason)

        # a known kind reads only its own keys; an unknown one reads any field key, and the spec's own rule names it
        keys = ("kind", "dimension", *_KIND_KEYS.get(_json_value(data, "kind", "str", error=error()), FIELD_KEYS))
        values = _read_json(data, {key: FIELD_KEYS[key] for key in keys}, error(), _defaults(cls))
        components = []
        for i, entry in enumerate(values.get("components", ())):
            if not isinstance(entry, dict):
                raise _spec_error(f"components[{i}]", f"expected a JSON object, got {entry!r}")
            read = _read_json(entry, COMPONENT_KEYS, error(f"components[{i}]."), _defaults(MixtureComponent))
            components.append(MixtureComponent(**read))
        try:
            return cls(**dict(values, components=tuple(components)))
        except FieldError as exc:
            raise _spec_error(exc.field, exc.reason) from None


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


# Distinct times whose constants one ``_Mixture`` keeps; a full dict is cleared.
_TIMES_KEPT = 1024


class _Mixture:
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

    The arrays come from a spec that ``FieldSpec`` has validated.
    ``log_weights`` and ``scales_sq`` have shape (C,) and ``means`` (C, D).
    A call takes ``x`` of shape (D,) or (B, D) and returns a fresh array of
    that shape; a (D,) state is the one-row case of the one row-batched path.
    States and means are taken relative to m, the weights' mean of the means:
    with a = 1 - t, y = x - a m and n_i = mu_i - m, no call forms
    z_i = y - a n_i. The squared distance is |y|^2 - 2a y.n_i + a^2 |n_i|^2,
    and the velocity is (sum_i r_i coef_i) y - sum_i r_i (t / s_i^2) n_i - m
    for responsibilities r_i and coef_i = (t - a sigma_i^2) / s_i^2. So a
    call is two stacked ``np.matmul``s against the means (one (1, D) row
    product per state) plus O(C) work, and each row of a (B, D) result
    equals the (D,) call on that row bit for bit.

    The expansion's rounding puts an absolute error of about
    eps |y|^2 / s_i^2 on the log-responsibilities, where the direct form has
    eps |x| |z_i| / s_i^2. Taking states relative to m keeps |y| near |z_i|
    while the components that share the posterior lie close to m; narrow
    components (s_i << |y|) far from m that share it lose digits.

    The (C,) constants that depend only on t are built for all the times
    ``prepare`` announces in one pass, or for an unseen t by the call that
    meets it, and kept in a private dict of at most ``_TIMES_KEPT``
    entries; a kept entry is the same arithmetic as a fresh one, so the
    dict changes no result. Concurrent calls need no lock: whichever builds
    an entry builds the same one, and the cap is passed by at most one
    pass per concurrent call. No argument is modified.
    """

    def __init__(self, log_weights: np.ndarray, means: np.ndarray, scales_sq: np.ndarray):
        self._log_weights = log_weights
        self._center = np.exp(log_weights) @ means
        self._means = means - self._center
        self._means_t = np.ascontiguousarray(self._means.T)
        self._means_sq = np.matmul(self._means[:, None, :], self._means[:, :, None])[:, 0, 0]
        self._scales_sq = scales_sq
        self._half_dim = 0.5 * means.shape[1]
        self._by_time: dict[float, tuple[np.ndarray, ...]] = {}

    def prepare(self, times: Sequence[float]) -> None:
        """Build and keep the constants of each of ``times`` not yet kept, in one pass."""
        new = list(dict.fromkeys(t for t in map(float, times) if t not in self._by_time))[:_TIMES_KEPT]
        if new:
            self._build(new)

    def _build(self, times: list[float]) -> list[tuple[np.ndarray, ...]]:
        """Build, keep and return ``(a / s^2, 0.5 / s^2, bias, coef, t / s^2)`` at ``times``, clearing a full dict.

        Every step is elementwise float64 arithmetic on a (T, 1) column, so an entry is bit for bit its time's alone.
        """
        t = np.array(times)[:, None]
        one_t = 1.0 - t
        s2 = t * t + one_t * one_t * self._scales_sq
        half_inv = 0.5 / s2
        bias = self._log_weights - (one_t * one_t) * half_inv * self._means_sq - self._half_dim * np.log(s2)
        coef = (t - one_t * self._scales_sq) / s2
        entries = list(zip(one_t / s2, half_inv, bias, coef[:, :, None], t / s2))
        if len(self._by_time) + len(times) > _TIMES_KEPT:
            self._by_time.clear()
        self._by_time.update(zip(times, entries))
        return entries

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        t = float(t)
        # a miss takes the entry it builds, not a second lookup, which a concurrent clear could miss
        shift, half_inv, bias, coef, mean_coef = self._by_time.get(t) or self._build([t])[0]
        rows = x.reshape(-1, 1, x.shape[-1]) - (1.0 - t) * self._center
        log_resp = np.matmul(rows, self._means_t)
        log_resp *= shift
        log_resp += bias
        log_resp -= np.matmul(rows, rows.transpose(0, 2, 1)) * half_inv
        log_resp -= log_resp.max(axis=-1, keepdims=True)
        resp = np.exp(log_resp)
        resp /= resp.sum(axis=-1, keepdims=True)
        v = np.matmul(resp, coef) * rows
        v -= np.matmul(resp * mean_coef, self._means)
        v -= self._center
        return v.reshape(x.shape)


class VelocityField:
    """A synthetic velocity oracle with evaluation accounting.

    The counter equals exactly the number of ``evaluate`` calls since
    construction or the last ``reset_evaluations`` (a batched call counts
    once), and is safe under concurrent increments. The spec is converted to
    arrays once, here, so each call runs only the velocity math. The one
    other mutable state is the mixture oracle's private dict of per-time
    constants, which ``prepare`` fills ahead of a sampler walk: it is
    unobservable, as a kept entry is bit for bit what a fresh field
    computes.
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

    def prepare(self, times: Sequence[float]) -> None:
        """Announce the times ``evaluate`` is about to be called at.

        The mixture oracle builds its per-time constants for all of them in
        one pass rather than one time per call. No result or count changes;
        the other kinds ignore the call.
        """
        if isinstance(self._velocity, _Mixture):
            self._velocity.prepare(times)

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
        return _Mixture(log_weights, means, scales_sq)
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
