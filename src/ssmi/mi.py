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

The direct (non-recursive) counterparts of the two passes, which rebuild
every prefix from scratch to validate the forward recursions (A3), live with
the tests (``tests/conftest.py``).

Both passes take their per-row terms (log p_free, the pmf, the free and the
K hit log-ratios) from one fused helper, ``_row_terms``, which shares the
work the ``logodds`` reference (``logsumexp``, ``softmax_pmf``,
``f_logratio_rows``) repeats and equals it bit for bit; a row with NaN or
+inf raises ``ValueError``.

A trajectory is scored one way: ``FanCast.from_pose`` casts each sensing
pose's fan, and ``trajectories_mi`` adds up its non-overlapping beams.

The occupancy-only baseline (FSMI, Zhang et al., ICRA 2019) is a one-class
``SensorParams`` on a map with more classes: the runs of either map are then
collapsed to occupied/free (``collapse_to_binary``) before the kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import logodds
from .errors import EmptyRay, ScaleExceeded
from .grid import GridMap, SrleRay, unit_direction, walk_fan
from .logodds import SensorParams

LIMIT_EPS = 1e-9  # switch to the analytic limit of the geometric sums

# stacked first, it gives any list of cast cells, even none, shape (M, 3)
_NO_CELLS = np.empty((0, 3), dtype=np.int32)


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
    """Information value of one beam in nats, with its term breakdown:
    ``terms`` holds the (N or Q, K) summands of the hit part, ``p_detail``
    the event probabilities (p or rho) and ``c_detail`` the accumulated
    log-ratios (C or Theta) they multiply. The three are slices of the
    kernel's own arrays, so keeping them costs no extra pass.
    """

    value: float
    hit_term: float
    free_term: float
    terms: np.ndarray
    p_detail: np.ndarray
    c_detail: np.ndarray

    def __float__(self) -> float:
        return self.value


def _row_terms(h_t: np.ndarray, h_0: np.ndarray, params: SensorParams):
    """``log_p0`` (R,), the pmf (R, K+1), ``f_free`` (R,) and the K
    ``f_hit`` (R, K) of a stack of (current, prior) beliefs, (R, K+1) each.

    One max, one exp and one sum per stack give both a row's log-sum-exp and
    its softmax; ``lse(h_t)`` is ``-log_p0`` and the ``z1`` of every f term;
    the free model and the K hit models go through one (R, K+1, K+1) pass.
    Wherever a row's max is finite, these are the elementwise operations and
    length-(K+1) reductions of ``logodds.logsumexp``, ``softmax_pmf`` and
    ``f_logratio_rows`` on the same values, so the bits are theirs. Every
    stored belief has a finite max, its pivot being 0; a row of ``h_t`` with
    a NaN or +inf raises ``ValueError``, and -inf entries are fine.
    """
    top = np.max(h_t, axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError("a belief row holds NaN or +inf")
    e = np.exp(h_t - top)
    s = np.sum(e, axis=-1, keepdims=True)
    lse = np.log(s) + top  # (R, 1), h_t[:, 0] == 0
    phi = params.models[None, :, :] - h_0[:, None, :]
    shifted = phi + h_t[:, None, :]
    top2 = np.max(shifted, axis=-1, keepdims=True)
    e2 = np.exp(shifted - top2)
    s2 = np.sum(e2, axis=-1, keepdims=True)
    z2 = np.log(s2[..., 0]) + top2[..., 0]
    f = lse - z2 + np.sum(phi * (e2 / s2), axis=-1)
    return -lse[:, 0], e / s, f[:, 0], f[:, 1:]


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


def _beam_results(terms, p_detail, c_detail, log_pass, f_pass, spans) -> list[BeamMI]:
    """Each segment's hit and free terms, reduced over its own slice."""
    total = np.add.reduce  # what ndarray.sum and np.sum call
    out = []
    for start, end in spans:
        beam_terms = terms[start:end]
        hit_term = float(total(beam_terms, axis=None))
        free_term = float(math.exp(total(log_pass[start:end])) * total(f_pass[start:end]))
        out.append(BeamMI(hit_term + free_term, hit_term, free_term, beam_terms,
                          p_detail[start:end], c_detail[start:end]))
    return out


def beam_mi_dense(h_t: np.ndarray, h_0: np.ndarray, params: SensorParams) -> BeamMI:
    """Per-cell forward pass: expected log-ratio over the beam outcome tree.

    One free-update log-ratio and K hit-update log-ratios are evaluated per
    cell; prefix products and sums carry the recursion, so the total work is
    O(K N) for N cells. Planning evaluates beams with the run-length kernel;
    this pass is the reference it is checked against. A row of ``h_t`` with
    a NaN or +inf raises ``ValueError``.
    """
    h_t = np.atleast_2d(np.asarray(h_t, dtype=np.float64))
    h_0 = np.broadcast_to(np.asarray(h_0, dtype=np.float64), h_t.shape)
    spans = _spans((0, h_t.shape[0]))
    log_p0, pmf, f_free, f_hit = _row_terms(h_t, h_0, params)
    before_log_p0 = _exclusive_cumsum(log_p0, spans)
    before_f_free = _exclusive_cumsum(f_free, spans)

    p_nk = pmf[:, 1:] * np.exp(before_log_p0)[:, None]
    c_nk = f_hit + before_f_free[:, None]
    terms = p_nk * c_nk
    return _beam_results(terms, p_nk, c_nk, log_p0, f_free, spans)[0]


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


def beam_mi_srle_batch(runs: SrleRay, offsets, params: SensorParams) -> list[BeamMI]:
    """Run-length information of many beams in one vectorised pass.

    ``runs`` stacks every beam's runs; beam b owns runs ``offsets[b]`` to
    ``offsets[b + 1]``. Row-wise terms and geometric sums are computed once
    over all runs; prefix sums and final reductions run per beam, so every
    beam's result is bit-identical to evaluating it alone. A run whose
    ``chi_t`` holds a NaN or +inf raises ``ValueError``.
    """
    spans = _spans(offsets)
    w = runs.widths.astype(np.float64)
    log_p0, pmf, f_free, f_hit = _row_terms(runs.chi_t, runs.chi_0, params)
    run_log_p0 = w * log_p0
    run_f_free = w * f_free
    before_log_p0 = _exclusive_cumsum(run_log_p0, spans)
    before_f_free = _exclusive_cumsum(run_f_free, spans)

    rho = pmf[:, 1:] * np.exp(before_log_p0)[:, None]
    beta = f_hit + before_f_free[:, None]
    s0, s1 = _geometric_sums(log_p0, runs.widths)
    theta = beta * s0[:, None] + (f_free * s1)[:, None]
    terms = rho * theta
    return _beam_results(terms, rho, theta, run_log_p0, run_f_free, spans)


def beam_mi_srle(ray: SrleRay, params: SensorParams) -> BeamMI:
    """Run-length evaluation: exactly the dense value in O(K Q) work.

    Within a homogeneous run the per-element contributions form geometric
    sums that collapse in closed form, so cost depends on the number of runs,
    not elements. The one-beam case of :func:`beam_mi_srle_batch`.
    """
    return beam_mi_srle_batch(ray, (0, ray.num_runs), params)[0]


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


@dataclass(frozen=True)
class FanCast:
    """The cast of a sequence of beams, kept compact: ``cells`` stacks the
    cells past each beam's sensor cell in beam order, one (M, 3) int32 array,
    and ``counts[b]`` is beam b's share of them (0 for a beam that leaves the
    map from its sensor cell). It holds cells only, no beliefs, so it stays
    valid while the map's geometry does: origin, cell size and dims.

    :meth:`from_pose` builds one straight from a planar fan's pose; it is
    how planning, ``mi_surface`` and ``ssmi mi-eval`` cast."""

    cells: np.ndarray
    counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.counts)

    @classmethod
    def from_pose(cls, mapper, center, num_beams: int, max_range: float,
                  heading: float = 0.0, fov: float = 2.0 * math.pi) -> "FanCast":
        """The fan of ``num_beams`` full-length beams at the
        :func:`fan_angles` around ``heading`` from ``center``, on a GridMap
        or a semantic octree. Each direction is made as floats and passes
        the beam's unit-direction check (``grid.unit_direction``);
        ``grid.walk_fan`` then runs the caster's own origin check and voxel
        walk on the same floats in the map's box (origin, resolution, dims),
        keeping only the cells. So the cells are those ``mapper.cast_ray``
        gives for the same beams, byte for byte, and it raises where those
        beams would: ``ValueError`` for a negative or NaN range,
        ``OriginOutOfBounds`` for a center outside the map."""
        origin = np.asarray(center, dtype=np.float64)
        if origin.shape != (3,):
            raise ValueError("origin and direction must be 3-vectors")
        if not 0.0 <= max_range:
            raise ValueError("need 0 <= range <= max_range")
        directions = [unit_direction([math.cos(a), math.sin(a), 0.0])
                      for a in fan_angles(num_beams, heading, fov)]
        coords, counts = walk_fan(origin.tolist(), directions, max_range,
                                  mapper.origin.tolist(), mapper.resolution, mapper.dims)
        return cls(np.array(coords, dtype=np.int32).reshape(-1, 3), tuple(counts))

    @classmethod
    def join(cls, casts: list["FanCast"]) -> "FanCast":
        """The beams of several casts, in order, as one cast."""
        return cls(np.concatenate([_NO_CELLS] + [c.cells for c in casts]),
                   tuple(n for c in casts for n in c.counts))


def select_nonoverlapping(beams: FanCast) -> list[int]:
    """Greedy maximal subset of beams sharing no cell, in input order.

    A beam claims the cells of its compact cast, which leaves out the cell it
    starts in: that is the sensor's own location, carries no range
    information, and would otherwise make every pair of beams from one pose
    overlap trivially. A beam that claims no cell is always kept.
    """
    # one flat integer key per cell: c0 * r1 * r2 + c1 * r2 + c2 is injective
    # for 0 <= c1 < r1, 0 <= c2 < r2 and stays below the cell count of the map
    cells = beams.cells.astype(np.int64)
    if not cells.shape[0]:
        return list(range(len(beams)))
    r1, r2 = (cells[:, 1:].max(axis=0) + 1).tolist()
    keys = ((cells[:, 0] * r1 + cells[:, 1]) * r2 + cells[:, 2]).tolist()
    chosen: list[int] = []
    used: set[int] = set()
    end = 0
    for idx, count in enumerate(beams.counts):
        start, end = end, end + count
        cell_set = set(keys[start:end])
        if cell_set.isdisjoint(used):
            chosen.append(idx)
            used |= cell_set
    return chosen


def _traces_mi(mapper, beams: FanCast, params: SensorParams) -> list[BeamMI | None]:
    """Information of each beam's cast cells, all beams in one run-length
    kernel call over the runs the map encodes for them, beliefs read now;
    None for a beam without cells.

    A one-class ``params`` on a map with more classes evaluates the collapse
    of the runs as the map merged them on full beliefs; the kernel is exact
    on neighbours that collapse to equal values. Other K mismatches raise."""
    collapse = params.num_classes != mapper.num_classes
    if collapse and params.num_classes != 1:
        raise ValueError("sensor profile and map disagree on K")
    runs, counts = mapper.encode_traces(beams.cells, beams.counts)
    out: list[BeamMI | None] = [None] * len(beams)
    if runs is None:
        return out
    if collapse:
        runs = SrleRay(runs.widths, collapse_to_binary(runs.chi_t),
                       collapse_to_binary(runs.chi_0))
    used = [i for i, count in enumerate(counts) if count]
    offsets = np.cumsum([0] + [counts[i] for i in used]).tolist()
    for i, res in zip(used, beam_mi_srle_batch(runs, offsets, params)):
        out[i] = res
    return out


@dataclass
class TrajectoryMI:
    """Information of one trajectory. ``beams`` lists every kept beam that
    has cells past the sensor cell, in keep order, as (its index in the
    trajectory's beams, its :class:`BeamMI`); kept beams without such cells
    add nothing to ``value``."""

    value: float
    beams_total: int
    beams_kept: int
    beams: list[tuple[int, BeamMI]]


@dataclass
class BatchMI:
    """Results of one :func:`trajectories_mi` call: one entry per trajectory,
    and the number of distinct kept beams evaluated."""

    trajectories: list[TrajectoryMI]
    beams_evaluated: int


def trajectories_mi(mapper, fans, trajectories: list[list], params: SensorParams) -> BatchMI:
    """Information of many observation sequences that share sensing poses.

    ``fans`` holds :class:`FanCast` s, as a list or a dict; trajectory t
    observes ``fans[i]`` for each index or key i in ``trajectories[t]``, in
    order. Each fan was cast once, by whoever built it, and its cells can
    serve any number of calls on the same map geometry: the cells are a pure
    function of the beams and the geometry, and the beliefs are read here,
    when the kept beams are encoded. Planning passes its episode's cast
    cache, keyed by sensing pose ``(cell, heading)`` (see
    ``planner.evaluate_candidates``; at most 556 fans and 1.23 MB over A7
    worlds 0-9), with trajectories of poses. Overlapping beams are dropped
    greedily per trajectory, across its whole horizon, and the union of kept
    beams is evaluated in one kernel call. Each trajectory's value adds its
    kept beams' values in keep order, so it is bit-identical to evaluating
    that trajectory alone.

    ``mapper`` is a GridMap or a semantic octree: it encodes the kept beams'
    runs (one per cell on the grid, one per stretch of equal leaf beliefs on
    the octree) for :func:`beam_mi_srle_batch`.
    """
    slots: dict[tuple, int] = {}  # kept (fan, beam) -> batch position
    kept: list[list[tuple[int, int]]] = []  # per trajectory: (beam index, position)
    totals: list[int] = []
    for traj in trajectories:
        casts = [fans[f] for f in traj]
        pairs = [(f, b) for f, cast in zip(traj, casts) for b in range(len(cast))]
        keep = select_nonoverlapping(FanCast.join(casts))
        kept.append([(i, slots.setdefault(pairs[i], len(slots))) for i in keep])
        totals.append(len(pairs))
    starts: dict = {}  # fan -> where each of its beams' cells start, and end
    pieces = []
    for f, b in slots:
        bounds = starts.get(f)
        if bounds is None:
            bounds = starts[f] = np.cumsum((0,) + fans[f].counts).tolist()
        pieces.append(fans[f].cells[bounds[b]:bounds[b + 1]])
    union = FanCast(np.concatenate([_NO_CELLS] + pieces), tuple(map(len, pieces)))
    evaluated = _traces_mi(mapper, union, params)
    results = []
    for picks, beams_total in zip(kept, totals):
        beams = [(i, evaluated[pos]) for i, pos in picks if evaluated[pos] is not None]
        total = 0.0
        for _, res in beams:
            total += res.value
        results.append(TrajectoryMI(value=total, beams_total=beams_total,
                                    beams_kept=len(picks), beams=beams))
    return BatchMI(trajectories=results, beams_evaluated=len(slots))


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


def fan_angles(num_beams: int, heading: float = 0.0,
               fov: float = 2.0 * math.pi) -> list[float]:
    """The beam angles of a planar fan around ``heading``, in beam order;
    they sit strictly between the fov edges (half-step offset) so fans avoid
    exact axis alignment. :meth:`FanCast.from_pose` casts at these angles,
    and ``sim.sense`` senses at them."""
    start = heading - fov / 2.0
    step = fov / num_beams
    return [start + (b + 0.5) * step for b in range(num_beams)]


def mi_surface(
    gmap: GridMap,
    params: SensorParams,
    num_beams: int = 16,
    max_range: float | None = None,
) -> np.ndarray:
    """Information of a full fan at every free-labeled cell of a 2-D map.

    Returns an (nx, ny) array; cells whose most likely class is not free hold
    0. A one-class ``params`` (``SensorParams.default(1)``) gives the
    occupancy-only surface of a multi-class map; free cells are still picked
    by the full belief.

    The surface is a per-cell field for inspection, so every beam of the fan
    is summed (each beam's value is exact on its own); the non-overlap
    filtering that the trajectory bound requires would make the field depend
    on beam enumeration order.
    """
    if max_range is None:
        max_range = max(gmap.dims[:2]) * gmap.resolution
    labels = gmap.most_likely()[:, :, 0]
    out = np.zeros(gmap.dims[:2], dtype=np.float64)
    for i in range(gmap.dims[0]):
        for j in range(gmap.dims[1]):
            if labels[i, j] != 0:
                continue
            fan = FanCast.from_pose(gmap, gmap.cell_center((i, j, 0)), num_beams, max_range)
            total = 0.0
            for res in _traces_mi(gmap, fan, params):
                if res is not None:
                    total += res.value
            out[i, j] = total
    return out
