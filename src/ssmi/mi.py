"""Closed-form Shannon mutual information between sensor beams and the map.

A beam's outcome tree is finite: it either ends in one of the traversed cells
with one of the K occupied classes, or it reaches max range with every cell
free. The information value is the expectation over those outcomes of the
summed per-cell log-ratios (KL divergences) between the updated and current
beliefs. Three evaluations of the same quantity live here:

* ``beam_mi_srle``    - one forward pass over run-length-encoded homogeneous
  segments with the inner geometric sums in closed form, O(K Q); planning
  runs it on both maps (``encode_traces``), the grid's runs being its cells
* ``beam_mi_dense``   - one forward pass over the per-cell sequence, O(K N);
  the reference the run-length pass is checked against
* ``beam_mi_oracle``  - brute-force enumeration of the outcome tree using
  nothing but softmax, the posterior update, and a direct KL sum; the ground
  truth the dense pass is tested against

plus direct (non-recursive) counterparts of the two passes that rebuild
every prefix from scratch, used to validate the forward recursions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import logodds
from .errors import EmptyRay, ScaleExceeded
from .grid import BeamMeasurement, GridMap, RayTrace, SrleRay
from .logodds import SensorParams

LIMIT_EPS = 1e-9  # switch to the analytic limit of the geometric sums


def encode_runs(h_t: np.ndarray, h_0: np.ndarray) -> SrleRay:
    """Group consecutive cells with exactly equal (current, prior) log-odds."""
    h_t = np.asarray(h_t, dtype=np.float64)
    h_0 = np.asarray(h_0, dtype=np.float64)
    if h_t.ndim != 2 or h_t.shape[0] == 0:
        raise EmptyRay("need at least one cell to encode")
    same = np.all(h_t[1:] == h_t[:-1], axis=1) & np.all(h_0[1:] == h_0[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(~same)[0] + 1])
    widths = np.diff(np.concatenate([starts, [h_t.shape[0]]]))
    return SrleRay(widths=widths, chi_t=h_t[starts], chi_0=h_0[starts])


@dataclass
class BeamMI:
    """Information value of one beam in nats, with optional term breakdown.

    When detail is requested, ``terms`` holds the (N or Q, K) summands of the
    hit part, ``p_detail`` the event probabilities (p or rho) and ``c_detail``
    the accumulated log-ratios (C or Theta) they multiply.
    """

    value: float
    hit_term: float
    free_term: float
    terms: np.ndarray | None = None
    p_detail: np.ndarray | None = None
    c_detail: np.ndarray | None = None

    def __float__(self) -> float:
        return self.value


def _hit_models(params: SensorParams) -> np.ndarray:
    """Stack of the K hit-update log-odds vectors, shape (K, K+1)."""
    k = params.num_classes
    models = np.tile(params.phi_plus, (k, 1))
    models[np.arange(k), np.arange(1, k + 1)] += params.psi_plus[1:]
    return models


def _exclusive_cumsum(x: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    """Per-segment exclusive prefix sums of ``x``; every segment is summed on
    its own, so each slice equals a separate ``cumsum`` of that segment."""
    out = np.empty_like(x)
    for start, end in spans:
        out[start] = 0.0
        np.add.accumulate(x[start:end - 1], out=out[start + 1:end])
    return out


def _spans(offsets) -> list[tuple[int, int]]:
    spans = list(zip(offsets[:-1], offsets[1:]))
    if any(start >= end for start, end in spans):
        raise EmptyRay("information query over a beam with zero cells or runs")
    return spans


def _beam_results(terms, p_detail, c_detail, log_pass, f_pass, spans,
                  return_detail: bool) -> list[BeamMI]:
    """Each segment's hit and free terms, reduced over its own slice."""
    total = np.add.reduce  # what ndarray.sum and np.sum call
    out = []
    for start, end in spans:
        hit_term = float(total(terms[start:end], axis=None))
        free_term = float(math.exp(total(log_pass[start:end])) * total(f_pass[start:end]))
        out.append(BeamMI(
            value=hit_term + free_term,
            hit_term=hit_term,
            free_term=free_term,
            terms=terms[start:end] if return_detail else None,
            p_detail=p_detail[start:end] if return_detail else None,
            c_detail=c_detail[start:end] if return_detail else None,
        ))
    return out


def beam_mi_dense(
    h_t: np.ndarray, h_0: np.ndarray, params: SensorParams, return_detail: bool = False
) -> BeamMI:
    """Per-cell forward pass: expected log-ratio over the beam outcome tree.

    One free-update log-ratio and K hit-update log-ratios are evaluated per
    cell; prefix products and sums carry the recursion, so the total work is
    O(K N) for N cells. Planning evaluates beams with the run-length kernel;
    this pass is the reference it is checked against.
    """
    h_t = np.atleast_2d(np.asarray(h_t, dtype=np.float64))
    h_0 = np.broadcast_to(np.asarray(h_0, dtype=np.float64), h_t.shape)
    spans = _spans((0, h_t.shape[0]))
    lse = logodds.logsumexp(h_t, axis=-1)
    log_p0 = -np.asarray(lse)  # h_t[:, 0] == 0
    pmf = logodds.softmax_pmf(h_t)

    f_free = logodds.f_logratio_rows(params.phi_minus - h_0, h_t)
    hit = _hit_models(params)  # (K, K+1)
    f_hit = logodds.f_logratio_rows(hit[None, :, :] - h_0[:, None, :], h_t[:, None, :])

    before_log_p0 = _exclusive_cumsum(log_p0, spans)
    before_f_free = _exclusive_cumsum(f_free, spans)

    p_nk = pmf[:, 1:] * np.exp(before_log_p0)[:, None]
    c_nk = f_hit + before_f_free[:, None]
    terms = p_nk * c_nk
    return _beam_results(terms, p_nk, c_nk, log_p0, f_free, spans, return_detail)[0]


def beam_mi_dense_direct(h_t: np.ndarray, h_0: np.ndarray, params: SensorParams) -> float:
    """Direct O(K N^2) evaluation with every prefix rebuilt from scratch.

    Exists to validate the forward recursion; shares the f kernel but no
    prefix bookkeeping with :func:`beam_mi_dense`.
    """
    h_t = np.atleast_2d(np.asarray(h_t, dtype=np.float64))
    h_0 = np.broadcast_to(np.asarray(h_0, dtype=np.float64), h_t.shape)
    n_cells = h_t.shape[0]
    if n_cells == 0:
        raise EmptyRay("dense information query over zero cells")
    k_classes = params.num_classes
    pmf = logodds.softmax_pmf(h_t)
    hit = _hit_models(params)
    total = 0.0
    for k in range(1, k_classes + 1):
        for n in range(n_cells):
            p = pmf[n, k]
            c = logodds.f_logratio(hit[k - 1] - h_0[n], h_t[n])
            for i in range(n):
                p *= pmf[i, 0]
                c += logodds.f_logratio(params.phi_minus - h_0[i], h_t[i])
            total += p * c
    p_pass = float(np.prod(pmf[:, 0]))
    c_pass = sum(
        logodds.f_logratio(params.phi_minus - h_0[i], h_t[i]) for i in range(n_cells)
    )
    return total + p_pass * c_pass


def _geometric_sums(log_p0: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S0 = sum_{j<w} x^j and S1 = sum_{j<w} j x^j for x = exp(log_p0).

    Uses expm1 forms away from x = 1 and the analytic limits w and
    w(w-1)/2 inside LIMIT_EPS of the singularity, where the closed forms
    are 0/0.
    """
    w = widths.astype(np.float64)
    em1 = np.expm1(log_p0)  # x - 1, exact near 0
    singular = -em1 < LIMIT_EPS
    safe_em1 = np.where(singular, -1.0, em1)
    emw = np.expm1(w * log_p0)
    s0 = np.where(singular, w, emw / safe_em1)
    xw = np.exp(w * log_p0)
    s1 = np.where(singular, w * (w - 1.0) / 2.0, (s0 - 1.0 - (w - 1.0) * xw) / (-safe_em1))
    return s0, s1


def beam_mi_srle_batch(
    runs: SrleRay, offsets, params: SensorParams, return_detail: bool = False
) -> list[BeamMI]:
    """Run-length information of many beams in one vectorised pass.

    ``runs`` stacks every beam's runs; beam b owns runs ``offsets[b]`` to
    ``offsets[b + 1]``. Row-wise terms and geometric sums are computed once
    over all runs; prefix sums and final reductions run per beam, so every
    beam's result is bit-identical to evaluating it alone.
    """
    spans = _spans(offsets)
    chi_t, chi_0, w = runs.chi_t, runs.chi_0, runs.widths.astype(np.float64)
    lse = np.asarray(logodds.logsumexp(chi_t, axis=-1), dtype=np.float64).reshape(-1)
    log_p0 = -lse
    pmf = logodds.softmax_pmf(chi_t)

    f_free = logodds.f_logratio_rows(params.phi_minus - chi_0, chi_t)
    hit = _hit_models(params)
    f_hit = logodds.f_logratio_rows(hit[None, :, :] - chi_0[:, None, :], chi_t[:, None, :])

    run_log_p0 = w * log_p0
    run_f_free = w * f_free
    before_log_p0 = _exclusive_cumsum(run_log_p0, spans)
    before_f_free = _exclusive_cumsum(run_f_free, spans)

    rho = pmf[:, 1:] * np.exp(before_log_p0)[:, None]
    beta = f_hit + before_f_free[:, None]
    s0, s1 = _geometric_sums(log_p0, runs.widths)
    theta = beta * s0[:, None] + (f_free * s1)[:, None]
    terms = rho * theta
    return _beam_results(terms, rho, theta, run_log_p0, run_f_free, spans, return_detail)


def beam_mi_srle(ray: SrleRay, params: SensorParams, return_detail: bool = False) -> BeamMI:
    """Run-length evaluation: exactly the dense value in O(K Q) work.

    Within a homogeneous run the per-element contributions form geometric
    sums that collapse in closed form, so cost depends on the number of runs,
    not elements. The one-beam case of :func:`beam_mi_srle_batch`.
    """
    return beam_mi_srle_batch(ray, (0, ray.num_runs), params, return_detail)[0]


def beam_mi_srle_direct(ray: SrleRay, params: SensorParams) -> float:
    """Direct run-by-run evaluation with explicit geometric summation loops.

    Rebuilds rho and beta from scratch per run and sums the in-run series
    term by term; independent of both the closed forms and the recursion.
    """
    if ray.num_runs == 0:
        raise EmptyRay("run-length information query over zero runs")
    pmf = logodds.softmax_pmf(ray.chi_t)
    hit = _hit_models(params)
    k_classes = params.num_classes
    total = 0.0
    for k in range(1, k_classes + 1):
        for q in range(ray.num_runs):
            rho = pmf[q, k]
            beta = logodds.f_logratio(hit[k - 1] - ray.chi_0[q], ray.chi_t[q])
            for j in range(q):
                rho *= pmf[j, 0] ** int(ray.widths[j])
                beta += int(ray.widths[j]) * logodds.f_logratio(
                    params.phi_minus - ray.chi_0[j], ray.chi_t[j]
                )
            ffq = logodds.f_logratio(params.phi_minus - ray.chi_0[q], ray.chi_t[q])
            s0 = sum(pmf[q, 0] ** j for j in range(int(ray.widths[q])))
            s1 = sum(j * pmf[q, 0] ** j for j in range(int(ray.widths[q])))
            total += rho * (beta * s0 + ffq * s1)
    p_pass = float(np.prod([pmf[q, 0] ** int(ray.widths[q]) for q in range(ray.num_runs)]))
    c_pass = sum(
        int(ray.widths[q])
        * logodds.f_logratio(params.phi_minus - ray.chi_0[q], ray.chi_t[q])
        for q in range(ray.num_runs)
    )
    return total + p_pass * c_pass


ORACLE_MAX_CELLS = 8
ORACLE_MAX_CLASSES = 3


def beam_mi_oracle(h_t: np.ndarray, h_0: np.ndarray, params: SensorParams) -> float:
    """Ground-truth beam information by outcome-tree enumeration.

    Walks every (hit cell, class) outcome plus the all-free outcome, forms
    the exact posterior of each cell with the plain Bayesian update, and
    accumulates probability-weighted KL divergences computed term by term.
    Restricted to small instances; everything else is tested against this.
    """
    h_t = np.atleast_2d(np.asarray(h_t, dtype=np.float64))
    h_0 = np.broadcast_to(np.asarray(h_0, dtype=np.float64), h_t.shape)
    n_cells = h_t.shape[0]
    k_classes = params.num_classes
    if n_cells == 0:
        raise EmptyRay("oracle query over zero cells")
    if n_cells > ORACLE_MAX_CELLS or k_classes > ORACLE_MAX_CLASSES:
        raise ScaleExceeded(
            f"oracle handles N <= {ORACLE_MAX_CELLS}, K <= {ORACLE_MAX_CLASSES}"
        )

    def kl(post_h: np.ndarray, cur_h: np.ndarray) -> float:
        p = logodds.softmax_pmf(post_h)
        q = logodds.softmax_pmf(cur_h)
        acc = 0.0
        for pk, qk in zip(p, q):
            if pk > 0.0:
                acc += pk * math.log(pk / qk)
        return acc

    pmf = logodds.softmax_pmf(h_t)
    total = 0.0
    for n in range(n_cells):
        free_info = sum(
            kl(logodds.posterior_update(h_t[i], params.phi_minus, h_0[i]), h_t[i])
            for i in range(n)
        )
        prob_before = float(np.prod(pmf[:n, 0]))
        for y in range(1, k_classes + 1):
            prob = prob_before * pmf[n, y]
            info = free_info + kl(
                logodds.posterior_update(h_t[n], params.hit_logodds(y), h_0[n]), h_t[n]
            )
            total += prob * info
    prob_pass = float(np.prod(pmf[:, 0]))
    info_pass = sum(
        kl(logodds.posterior_update(h_t[i], params.phi_minus, h_0[i]), h_t[i])
        for i in range(n_cells)
    )
    return total + prob_pass * info_pass


# -- beam selection and trajectory evaluation --------------------------------


def select_nonoverlapping(traces: list[RayTrace], skip_first_cell: bool = True) -> list[int]:
    """Greedy maximal subset of traces sharing no cell, in input order.

    The cell a beam starts in is excluded by default: it is the sensor's own
    location, carries no range information, and would otherwise make every
    pair of beams from one pose overlap trivially.
    """
    if not traces:
        return []
    # one flat integer key per cell: c0 * r1 * r2 + c1 * r2 + c2 is injective
    # for 0 <= c1 < r1, 0 <= c2 < r2 and stays below the cell count of the map
    cells = np.concatenate([trace.cells for trace in traces])
    r1, r2 = (cells[:, 1:].max(axis=0) + 1).tolist()
    keys = ((cells[:, 0] * r1 + cells[:, 1]) * r2 + cells[:, 2]).tolist()
    skip = 1 if skip_first_cell else 0
    chosen: list[int] = []
    used: set[int] = set()
    end = 0
    for idx, trace in enumerate(traces):
        start, end = end, end + len(trace)
        cell_set = set(keys[start + skip:end])
        if cell_set.isdisjoint(used):
            chosen.append(idx)
            used |= cell_set
    return chosen


def _traces_mi(mapper, traces: list[RayTrace], params: SensorParams,
               return_detail: bool = False) -> list[BeamMI | None]:
    """Information of each trace's cells past the sensor cell, all traces in
    one run-length kernel call over the runs the map encodes for them; None
    for a trace without such cells."""
    runs, counts = mapper.encode_traces(traces)
    out: list[BeamMI | None] = [None] * len(traces)
    if runs is None:
        return out
    used = [i for i, count in enumerate(counts) if count]
    offsets = np.cumsum([0] + [counts[i] for i in used]).tolist()
    for i, res in zip(used, beam_mi_srle_batch(runs, offsets, params, return_detail)):
        out[i] = res
    return out


@dataclass
class TrajectoryMI:
    """Information of one trajectory. With detail, ``beams`` lists every kept
    beam that has cells past the sensor cell, in keep order, as (its index in
    the trajectory's beams, its :class:`BeamMI` with the term breakdown);
    kept beams without such cells add nothing to ``value``."""

    value: float
    beams_total: int
    beams_kept: int
    beams: list[tuple[int, BeamMI]] | None = None


@dataclass
class BatchMI:
    """Results of one :func:`trajectories_mi` call: one entry per trajectory,
    and the number of distinct kept beams evaluated."""

    trajectories: list[TrajectoryMI]
    beams_evaluated: int


def trajectories_mi(
    mapper,
    fans: list[list[BeamMeasurement]],
    trajectories: list[list[int]],
    params: SensorParams,
    return_detail: bool = False,
) -> BatchMI:
    """Information of many observation sequences that share sensing poses.

    ``fans`` lists distinct fans; trajectory t observes ``fans[i]`` for each
    i in ``trajectories[t]``, in order. Every fan is cast once. Overlapping
    beams are dropped greedily per trajectory, across its whole horizon, and
    the union of kept beams is evaluated in one kernel call. Each
    trajectory's value adds its kept beams' values in keep order, so it is
    bit-identical to evaluating that trajectory alone. ``return_detail``
    fills each result's ``beams``; the values do not depend on it.

    ``mapper`` is a GridMap or a semantic octree: it casts the beams and
    encodes their runs (one per cell on the grid, one per stretch of equal
    leaf beliefs on the octree) for :func:`beam_mi_srle_batch`. Out-of-bounds
    beams propagate.
    """
    fan_traces = [[mapper.cast_ray(b) for b in fan] for fan in fans]
    slots: dict[tuple[int, int], int] = {}  # kept (fan, beam) -> batch position
    kept: list[list[tuple[int, int]]] = []  # per trajectory: (beam index, position)
    totals: list[int] = []
    for traj in trajectories:
        pairs = [(f, b) for f in traj for b in range(len(fan_traces[f]))]
        keep = select_nonoverlapping([fan_traces[f][b] for f, b in pairs])
        kept.append([(i, slots.setdefault(pairs[i], len(slots))) for i in keep])
        totals.append(len(pairs))
    traces = [fan_traces[f][b] for f, b in slots]
    evaluated = _traces_mi(mapper, traces, params, return_detail)
    results = []
    for picks, beams_total in zip(kept, totals):
        beams = [(i, evaluated[pos]) for i, pos in picks if evaluated[pos] is not None]
        total = 0.0
        for _, res in beams:
            total += res.value
        results.append(TrajectoryMI(value=total, beams_total=beams_total,
                                    beams_kept=len(picks),
                                    beams=beams if return_detail else None))
    return BatchMI(trajectories=results, beams_evaluated=len(slots))


def trajectory_mi(
    mapper,
    beams_per_pose: list[list[BeamMeasurement]],
    params: SensorParams,
    return_detail: bool = False,
):
    """Information of a whole observation sequence: cast every beam, drop
    overlapping ones greedily across the horizon, and add up per-beam values.
    The one-trajectory case of :func:`trajectories_mi`; with
    ``return_detail`` the whole :class:`TrajectoryMI`, per-beam terms
    included, instead of the value.
    """
    whole = [list(range(len(beams_per_pose)))]
    result = trajectories_mi(mapper, beams_per_pose, whole, params,
                             return_detail).trajectories[0]
    return result if return_detail else result.value


# -- binary collapse ----------------------------------------------------------


def collapse_to_binary(h: np.ndarray) -> np.ndarray:
    """Project K+1 class log-odds to the 2-class occupied/free form.

    The occupied log-odds is log-sum-exp over all occupied classes, so the
    collapsed PMF is [p_free, 1 - p_free].
    """
    h = np.asarray(h, dtype=np.float64)
    occ = logodds.logsumexp(h[..., 1:], axis=-1)
    out = np.zeros(h.shape[:-1] + (2,), dtype=np.float64)
    out[..., 1] = occ
    return out


def collapse_map_to_binary(gmap: GridMap) -> GridMap:
    """Occupancy-only copy of a grid map: every cell and the prior collapsed
    with :func:`collapse_to_binary`, observation flags kept."""
    out = GridMap(
        gmap.dims, gmap.resolution, 1,
        prior=collapse_to_binary(gmap.prior), origin=gmap.origin,
    )
    out.cells = collapse_to_binary(gmap.cells)
    out.observed = gmap.observed.copy()
    return out


def fan_beams(
    center: np.ndarray,
    num_beams: int,
    max_range: float,
    heading: float = 0.0,
    fov: float = 2.0 * math.pi,
) -> list[BeamMeasurement]:
    """Planar candidate beams around ``heading``; angles sit strictly between
    the fov edges (half-step offset) so fans avoid exact axis alignment."""
    start = heading - fov / 2.0
    step = fov / num_beams
    out = []
    for b in range(num_beams):
        angle = start + (b + 0.5) * step
        out.append(
            BeamMeasurement(
                origin=np.array(center, dtype=np.float64),
                direction=np.array([math.cos(angle), math.sin(angle), 0.0]),
                range=max_range,
                category=None,
                max_range=max_range,
            )
        )
    return out


def mi_surface(
    gmap: GridMap,
    params: SensorParams,
    num_beams: int = 16,
    max_range: float | None = None,
    binary: bool = False,
) -> np.ndarray:
    """Information of a full fan at every free-labeled cell of a 2-D map.

    Returns an (nx, ny) array; cells whose most likely class is not free hold
    0. ``binary`` evaluates the occupancy-only collapse instead, using a
    1-class sensor profile.

    The surface is a per-cell field for inspection, so every beam of the fan
    is summed (each beam's value is exact on its own); the non-overlap
    filtering that the trajectory bound requires would make the field depend
    on beam enumeration order.
    """
    if max_range is None:
        max_range = max(gmap.dims[:2]) * gmap.resolution
    labels = gmap.most_likely()[:, :, 0]
    if binary:
        gmap = collapse_map_to_binary(gmap)
        params = SensorParams.default(1)
    out = np.zeros(gmap.dims[:2], dtype=np.float64)
    for i in range(gmap.dims[0]):
        for j in range(gmap.dims[1]):
            if labels[i, j] != 0:
                continue
            fan = fan_beams(gmap.cell_center((i, j, 0)), num_beams, max_range)
            total = 0.0
            for res in _traces_mi(gmap, [gmap.cast_ray(b) for b in fan], params):
                if res is not None:
                    total += res.value
            out[i, j] = total
    return out
