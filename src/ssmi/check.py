"""Randomized equivalence suites for the beam information paths.

Two suites, both against independent references: the dense forward pass
versus the outcome-tree enumeration oracle, and the run-length form versus
the dense form on the expanded ray. Failing instances serialize to JSON with
hex floats so a breach replays bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import mi as mi_mod
from .logodds import SensorParams

DENSE_TOL = 1e-10
SRLE_TOL = 1e-10


def _random_params(rng: np.random.Generator, num_classes: int) -> SensorParams:
    def vec(lo, hi):
        v = rng.uniform(lo, hi, num_classes + 1)
        v[0] = 0.0
        return v

    return SensorParams(
        phi_plus=vec(-2.0, 2.0),
        phi_minus=vec(-2.0, 2.0),
        psi_plus=vec(-2.0, 2.0),
        clamp_lo=np.concatenate([[0.0], np.full(num_classes, -6.0)]),
        clamp_hi=np.concatenate([[0.0], np.full(num_classes, 6.0)]),
        alpha=0.5,
    )


def _random_logodds(rng: np.random.Generator, n: int, num_classes: int) -> np.ndarray:
    h = np.zeros((n, num_classes + 1))
    h[:, 1:] = rng.uniform(-6.0, 6.0, (n, num_classes))
    saturate = rng.random((n, num_classes)) < 0.1
    h[:, 1:] = np.where(saturate, np.sign(h[:, 1:]) * 6.0, h[:, 1:])
    return h


def _chi_for_pi0(pi0: float, num_classes: int) -> np.ndarray:
    """Log-odds whose free-class probability equals pi0, split evenly."""
    hk = np.log((1.0 - pi0) / pi0 / num_classes)
    chi = np.full(num_classes + 1, hk)
    chi[0] = 0.0
    return chi


def sample_dense_instance(rng: np.random.Generator):
    k = int(rng.integers(1, mi_mod.ORACLE_MAX_CLASSES + 1))
    n = int(rng.integers(1, mi_mod.ORACLE_MAX_CELLS + 1))
    return _random_logodds(rng, n, k), _random_logodds(rng, n, k), _random_params(rng, k)


def sample_srle_instance(rng: np.random.Generator, max_runs: int = 6, max_width: int = 16):
    k = int(rng.integers(1, 4))
    q = int(rng.integers(1, max_runs + 1))
    widths = rng.integers(1, max_width + 1, q)
    chi_t = _random_logodds(rng, q, k)
    chi_0 = _random_logodds(rng, q, k)
    for i in range(q):
        roll = rng.random()
        if roll < 0.08:
            chi_t[i] = _chi_for_pi0(0.5, k)
        elif roll < 0.16:
            chi_t[i] = _chi_for_pi0(1.0 - 1e-13, k)  # exercises the singular branch
    ray = mi_mod.SrleRay(widths=widths, chi_t=chi_t, chi_0=chi_0)
    return ray, _random_params(rng, k)


# -- instance serialization (bit-exact via hex floats) -------------------------


def _arr_to_hex(a: np.ndarray) -> list:
    return [[v.hex() for v in row] for row in np.atleast_2d(np.asarray(a, dtype=np.float64))]


def _arr_from_hex(rows: list) -> np.ndarray:
    return np.array([[float.fromhex(v) for v in row] for row in rows])


def instance_to_json(kind: str, payload: dict, params: SensorParams) -> str:
    body = {
        "kind": kind,
        "params": {
            "phi_plus": _arr_to_hex(params.phi_plus)[0],
            "phi_minus": _arr_to_hex(params.phi_minus)[0],
            "psi_plus": _arr_to_hex(params.psi_plus)[0],
            "clamp_lo": _arr_to_hex(params.clamp_lo)[0],
            "clamp_hi": _arr_to_hex(params.clamp_hi)[0],
            "alpha": params.alpha,
        },
    }
    body.update(payload)
    return json.dumps(body, indent=2)


def instance_from_json(text: str):
    body = json.loads(text)
    p = body["params"]
    params = SensorParams(
        phi_plus=_arr_from_hex([p["phi_plus"]])[0],
        phi_minus=_arr_from_hex([p["phi_minus"]])[0],
        psi_plus=_arr_from_hex([p["psi_plus"]])[0],
        clamp_lo=_arr_from_hex([p["clamp_lo"]])[0],
        clamp_hi=_arr_from_hex([p["clamp_hi"]])[0],
        alpha=p["alpha"],
    )
    if body["kind"] == "dense":
        return "dense", (_arr_from_hex(body["h_t"]), _arr_from_hex(body["h_0"]), params)
    ray = mi_mod.SrleRay(
        widths=np.array(body["widths"], dtype=np.int64),
        chi_t=_arr_from_hex(body["chi_t"]),
        chi_0=_arr_from_hex(body["chi_0"]),
    )
    return "srle", (ray, params)


def _dense_payload(h_t, h_0) -> dict:
    return {"h_t": _arr_to_hex(h_t), "h_0": _arr_to_hex(h_0)}


def _srle_payload(ray: mi_mod.SrleRay) -> dict:
    return {
        "widths": [int(w) for w in ray.widths],
        "chi_t": _arr_to_hex(ray.chi_t),
        "chi_0": _arr_to_hex(ray.chi_0),
    }


# -- suites ---------------------------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    trials: int
    tolerance: float
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0
    failures: list[str] = field(default_factory=list)  # serialized instances

    @property
    def passed(self) -> bool:
        return not self.failures


def _relative_error(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _dense_pair(h_t, h_0, params: SensorParams) -> tuple[float, float]:
    """The dense forward pass and the outcome-tree oracle on one instance."""
    return mi_mod.beam_mi_dense(h_t, h_0, params).value, mi_mod.beam_mi_oracle(h_t, h_0, params)


def _srle_pair(ray: mi_mod.SrleRay, params: SensorParams) -> tuple[float, float]:
    """The run-length form and the dense form of the expanded ray."""
    h_t, h_0 = ray.expand()
    return mi_mod.beam_mi_srle(ray, params).value, mi_mod.beam_mi_dense(h_t, h_0, params).value


_PAIRS = {"dense": _dense_pair, "srle": _srle_pair}  # by instance kind


def _run_suite(name: str, kind: str, sample, payload, trials: int, seed: int,
               tolerance: float) -> SuiteResult:
    """``trials`` instances drawn by ``sample``, each scored by its kind's
    (fast, reference) pair; a breach is kept as its serialized instance."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(name, trials, tolerance)
    for _ in range(trials):
        *instance, params = sample(rng)
        fast, ref = _PAIRS[kind](*instance, params)
        rel = _relative_error(fast, ref)
        result.max_abs_err = max(result.max_abs_err, abs(fast - ref))
        result.max_rel_err = max(result.max_rel_err, rel)
        if rel > tolerance:
            result.failures.append(instance_to_json(kind, payload(*instance), params))
    return result


def run_dense_suite(trials: int, seed: int, tolerance: float = DENSE_TOL) -> SuiteResult:
    """Dense forward pass versus the outcome-tree oracle on random instances."""
    return _run_suite("dense-vs-oracle", "dense", sample_dense_instance, _dense_payload,
                      trials, seed, tolerance)


def run_srle_suite(trials: int, seed: int, tolerance: float = SRLE_TOL) -> SuiteResult:
    """Run-length form versus the dense form on the expanded ray."""
    return _run_suite("srle-vs-dense", "srle", sample_srle_instance, _srle_payload,
                      trials, seed, tolerance)


def replay_instance(text: str) -> tuple[str, float, float, float]:
    """Re-run one serialized instance; returns (kind, fast, reference, rel_err)."""
    kind, payload = instance_from_json(text)
    fast, ref = _PAIRS[kind](*payload)
    return kind, fast, ref, _relative_error(fast, ref)
