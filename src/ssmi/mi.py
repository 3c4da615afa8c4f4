"""Closed-form Shannon mutual information between sensor beams and the map.

A beam's outcome tree is finite: it either ends in one of the traversed cells
with one of the K occupied classes, or it reaches max range with every cell
free. The information value is the expectation over those outcomes of the
summed per-cell log-ratios (KL divergences) between the updated and current
beliefs. Three evaluations of the same quantity live here:

* ``beam_mi_srle``    - one forward pass over run-length-encoded homogeneous
  segments with the inner geometric sums in closed form, O(K Q), for one
  beam, with its term breakdown (``BeamMI``); ``beam_mi_srle_batch`` gives
  the values alone of many beams at once, each bit for bit the one-beam
  value, and planning runs it on both maps (``encode_traces``), the grid's
  runs being its cells
* ``beam_mi_dense``   - one forward pass over the per-cell sequence, O(K N);
  the reference the run-length pass is checked against
* ``beam_mi_oracle``  - brute-force enumeration of the outcome tree using
  nothing but softmax, the posterior update, and a direct KL sum; the ground
  truth the dense pass is tested against

The direct (non-recursive) counterparts of the two passes, which rebuild
every prefix from scratch to validate the forward recursions (A3), live with
the tests (``tests/conftest.py``).

All passes take their per-row terms (log p_free, the pmf, the free and the
K hit log-ratios) from one fused helper, ``_row_terms``, which shares the
work the reference (``logodds.logsumexp`` and ``softmax_pmf``, and the
row-wise ``f_logratio_rows`` of ``tests/conftest.py``) repeats and equals
it bit for bit; a row with NaN or +inf raises ``ValueError``. The batch
kernel runs it once per distinct (current, prior) row, which on a map is a
small share of the runs, and groups its beams by run count, so its Python
work grows with the distinct run counts, not with the beams.

A trajectory is scored one way: ``FanCast.from_pose`` casts each sensing
pose's fan, and ``trajectories_mi`` adds up the values of its
non-overlapping beams, kept by a greedy over each beam's flat cell keys
(``FanCast.beam_keys``, ``select_nonoverlapping``). ``beam_mi`` gives one
kept beam's breakdown, which ``ssmi mi-eval --out`` writes.

The occupancy-only baseline (FSMI, Zhang et al., ICRA 2019) is a one-class
``SensorParams`` on a map with more classes: the runs of either map are then
collapsed to occupied/free (``collapse_to_binary``) before the kernel call.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import logodds
from .errors import EmptyRay, ScaleExceeded
from .grid import GridMap, SrleRay, point3, unit_direction, walk_fan
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
    log-ratios (C or Theta) they multiply. The one-beam kernels build it
    from their own arrays; the batch kernel gives values only.
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
    the tests' ``f_logratio_rows`` on the same values, so the bits are
    theirs, and each row's terms depend on that row alone. Every stored
    belief has a finite max, its pivot being 0; a row of ``h_t`` with a NaN
    or +inf raises ``ValueError``, and -inf entries are fine.
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


def _no_runs() -> EmptyRay:
    return EmptyRay("information query over a beam with zero cells or runs")


def _exclusive_cumsum(x: np.ndarray) -> np.ndarray:
    """The exclusive prefix sums of a 1-D ``x``."""
    out = np.empty_like(x)
    out[:1] = 0.0
    np.add.accumulate(x[:-1], out=out[1:])
    return out


def _one_beam(terms, p_detail, c_detail, log_pass, f_pass) -> BeamMI:
    """A beam's hit and free terms, each reduced over the whole beam."""
    total = np.add.reduce  # what ndarray.sum and np.sum call
    hit_term = float(total(terms, axis=None))
    free_term = float(math.exp(total(log_pass)) * total(f_pass))
    return BeamMI(hit_term + free_term, hit_term, free_term, terms, p_detail, c_detail)


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
    if not h_t.shape[0]:
        raise _no_runs()
    log_p0, pmf, f_free, f_hit = _row_terms(h_t, h_0, params)
    p_nk = pmf[:, 1:] * np.exp(_exclusive_cumsum(log_p0))[:, None]
    c_nk = f_hit + _exclusive_cumsum(f_free)[:, None]
    return _one_beam(p_nk * c_nk, p_nk, c_nk, log_p0, f_free)


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


def _run_terms(log_p0, pmf_hit, f_free, f_hit, widths, before_log_p0, before_f_free):
    """Each run's rho (its K hit events' probabilities) and theta (their
    accumulated log-ratios), elementwise over the runs, given the sums of
    the runs before it in its beam."""
    rho = pmf_hit * np.exp(before_log_p0)[:, None]
    beta = f_hit + before_f_free[:, None]
    s0, s1 = _geometric_sums(log_p0, widths)
    return rho, beta * s0[:, None] + (f_free * s1)[:, None]


def beam_mi_srle(ray: SrleRay, params: SensorParams) -> BeamMI:
    """Run-length evaluation: exactly the dense value in O(K Q) work.

    Within a homogeneous run the per-element contributions form geometric
    sums that collapse in closed form, so cost depends on the number of runs,
    not elements. :func:`beam_mi_srle_batch` gives the same value, bit for
    bit, for each beam of a batch. A run whose ``chi_t`` holds a NaN or
    +inf raises ``ValueError``.
    """
    if not ray.num_runs:
        raise _no_runs()
    w = ray.widths.astype(np.float64)
    log_p0, pmf, f_free, f_hit = _row_terms(ray.chi_t, ray.chi_0, params)
    run_log_p0 = w * log_p0
    run_f_free = w * f_free
    rho, theta = _run_terms(log_p0, pmf[:, 1:], f_free, f_hit, ray.widths,
                            _exclusive_cumsum(run_log_p0), _exclusive_cumsum(run_f_free))
    return _one_beam(rho * theta, rho, theta, run_log_p0, run_f_free)


def beam_mi_srle_batch(runs: SrleRay, offsets, params: SensorParams) -> np.ndarray:
    """Run-length information values of many beams in one vectorised pass.

    ``runs`` stacks every beam's runs; beam b owns runs ``offsets[b]`` to
    ``offsets[b + 1]``, and gets ``values[b]``: bit for bit the value
    :func:`beam_mi_srle` gives that beam alone.

    The row terms (``_row_terms``) are evaluated once per distinct
    (``chi_t``, ``chi_0``) row, told apart by their bytes (so 0.0 and -0.0
    differ), and gathered back to the runs: they depend on the row alone.
    The beams are then grouped by run count, and the runs listed in that
    order, so the n-run beams are one C-contiguous (G, n) block: one
    ``np.add.accumulate`` along its rows gives their prefix sums, and one
    ``np.add.reduce`` along the rows of the (G, n K) and (G, n) blocks their
    hit and free sums, as numpy sums each row as it sums a 1-D array of
    that length. The free term takes ``math.exp`` per beam, as the one-beam
    kernel does. A run whose ``chi_t`` holds a NaN or +inf raises
    ``ValueError``; a beam without runs raises ``EmptyRay``.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    counts = np.diff(offsets)
    if (counts <= 0).any():
        raise _no_runs()
    both = np.concatenate((runs.chi_t, runs.chi_0), axis=1)
    rows = both.view(np.dtype((np.void, both.itemsize * both.shape[1])))[:, 0]
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    log_p0, pmf, f_free, f_hit = _row_terms(runs.chi_t[first], runs.chi_0[first], params)

    # the beams by run count, and ``take``: their runs in that order, so the
    # j-th beam of ``order`` owns ``take[ends[j] - counts[j]:ends[j]]``
    order = np.argsort(counts, kind="stable")
    counts = counts[order]
    ends = np.cumsum(counts)
    take = np.repeat(offsets[:-1][order] - ends + counts, counts) + np.arange(counts.sum())
    sizes, starts = np.unique(counts, return_index=True)
    groups = [(n, b, e, ends[b] - n, ends[e - 1]) for n, b, e in
              zip(sizes.tolist(), starts.tolist(), starts[1:].tolist() + [counts.shape[0]])]

    at = inverse[take]
    widths = runs.widths[take]
    w = widths.astype(np.float64)
    log_p0, f_free = log_p0[at], f_free[at]
    run_log_p0 = w * log_p0
    run_f_free = w * f_free
    before_log_p0 = np.empty_like(run_log_p0)
    before_f_free = np.empty_like(run_f_free)
    for n, _, _, lo, hi in groups:
        for x, before in ((run_log_p0, before_log_p0), (run_f_free, before_f_free)):
            block = before[lo:hi].reshape(-1, n)
            block[:, 0] = 0.0
            np.add.accumulate(x[lo:hi].reshape(-1, n)[:, :-1], axis=1, out=block[:, 1:])
    rho, theta = _run_terms(log_p0, pmf[at, 1:], f_free, f_hit[at], widths,
                            before_log_p0, before_f_free)
    terms = rho * theta

    hit, log_pass, f_pass = (np.empty(counts.shape[0]) for _ in range(3))
    width = terms.shape[1]
    for n, b, e, lo, hi in groups:
        hit[b:e] = np.add.reduce(terms[lo:hi].reshape(-1, n * width), axis=1)
        log_pass[b:e] = np.add.reduce(run_log_p0[lo:hi].reshape(-1, n), axis=1)
        f_pass[b:e] = np.add.reduce(run_f_free[lo:hi].reshape(-1, n), axis=1)
    values = np.empty_like(hit)
    values[order] = hit + np.array([math.exp(v) for v in log_pass.tolist()]) * f_pass
    return values


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
    map from its sensor cell). ``dims`` is the box of the map it was cast on.
    It holds cells only, no beliefs, so it stays valid while the map's
    geometry does: origin, cell size and dims.

    :meth:`from_pose` builds one straight from a planar fan's pose; it is
    how planning, ``mi_surface`` and ``ssmi mi-eval`` cast. The overlap
    filter reads each beam's cells as flat keys (:meth:`beam_keys`), and
    the evaluation of kept beams slices ``cells`` at :attr:`bounds`; the
    keys and the bounds are built on first use and kept with the fan, so a
    fan in the planner's cast cache builds them once per episode. The keys
    take 8 bytes per cell and one array header, whatever the size of the
    box: a 16-beam fan of 10 m beams from the middle of the box keeps
    1,872 B of keys for 2,496 B of cells on a 32x32 map, in a 32x32x16
    box and in a 128x128x64 one."""

    cells: np.ndarray
    counts: tuple[int, ...]
    dims: tuple[int, int, int]

    def __len__(self) -> int:
        return len(self.counts)

    @functools.cached_property
    def bounds(self) -> list[int]:
        """Where each beam's cells start in ``cells``, then where the last
        one's end: beam b owns ``cells[bounds[b]:bounds[b + 1]]``."""
        return list(itertools.accumulate(self.counts, initial=0))

    @functools.cached_property
    def keys(self) -> array:
        """The key ``(i * ny + j) * nz + k`` of each cell ``(i, j, k)`` of
        ``cells``, in their order, as one ``array('q')``: a key that is
        injective on the box, so two beams share a cell exactly when they
        share a key. Made in one int64 pass over all cells."""
        _, ny, nz = self.dims
        return array("q", (self.cells @ np.array([ny * nz, nz, 1], dtype=np.int64)).tobytes())

    def beam_keys(self) -> list[array]:
        """Each beam's slice of :attr:`keys`, the cells it claims. Slices
        are copies, made per call, so the fan keeps one array: kept per
        beam, with a header each, they made the A7 cast cache hold about
        twice the bytes, and planning ran no faster."""
        keys, bounds = self.keys, self.bounds
        return [keys[start:end] for start, end in zip(bounds, bounds[1:])]

    @classmethod
    def from_pose(cls, mapper, center, num_beams: int, max_range: float,
                  heading: float = 0.0, fov: float = 2.0 * math.pi) -> "FanCast":
        """The fan of ``num_beams`` full-length beams at the
        :func:`fan_angles` around ``heading`` from ``center``, any three
        reals, taken as three floats (``grid.point3``), on a GridMap or a
        semantic octree. Each direction is a 3-tuple of floats and passes
        the beam's unit-direction check (``grid.unit_direction``), once per
        fan shape (``_fan_directions``, memoized); ``grid.walk_fan`` then
        runs the caster's range and origin checks, and gives the cells of
        the same walks in the map's box (origin, resolution, dims), shifted
        from a memoized walk of the fan from the center's sub-cell part. So
        the cells are those ``mapper.cast_ray`` gives for the same beams,
        byte for byte, and it raises where those beams would:
        ``ValueError`` for a center that is not three reals, for a
        direction without a finite norm (a NaN heading) and for a negative
        or NaN range, ``OriginOutOfBounds`` for a center outside the map."""
        cells, counts = walk_fan(point3(center), _fan_directions(num_beams, heading, fov),
                                 max_range, mapper.origin, mapper.resolution, mapper.dims)
        return cls(cells, tuple(counts), mapper.dims)


def select_nonoverlapping(keys) -> list[int]:
    """Greedy maximal subset of beams sharing no cell, in input order.

    ``keys`` holds one entry per beam: the keys of the cells it claims, an
    iterable of ints (``FanCast.beam_keys``). The cells claimed by kept
    beams are kept in one set, so the work grows with the beams' cells, not
    with the map. A beam claims the cells of its compact cast, which leaves
    out the cell it starts in: that is the sensor's own location, carries
    no range information, and would otherwise make every pair of beams from
    one pose overlap trivially. A beam that claims no cell is always kept.
    """
    chosen: list[int] = []
    used: set[int] = set()
    for idx, beam in enumerate(keys):
        if used.isdisjoint(beam):
            chosen.append(idx)
            used.update(beam)
    return chosen


def _encode(mapper, cells: np.ndarray, counts, params: SensorParams):
    """The runs the map encodes for a compact cast (``cells`` stacked in
    beam order, ``counts`` per beam, as ``FanCast`` holds them), beliefs
    read now, and each beam's run count; the runs are None without cells.

    A one-class ``params`` on a map with more classes takes the collapse of
    the runs as the map merged them on full beliefs; the kernels are exact
    on neighbours that collapse to equal values. Other K mismatches raise."""
    collapse = params.num_classes != mapper.num_classes
    if collapse and params.num_classes != 1:
        raise ValueError("sensor profile and map disagree on K")
    runs, counts = mapper.encode_traces(cells, counts)
    if runs is not None and collapse:
        runs = SrleRay(runs.widths, collapse_to_binary(runs.chi_t),
                       collapse_to_binary(runs.chi_0))
    return runs, counts


def _traces_mi(mapper, cells: np.ndarray, counts, params: SensorParams) -> list[float | None]:
    """Information value of each beam of a compact cast, all beams in one
    :func:`beam_mi_srle_batch` call over the runs ``_encode`` gives; None
    for a beam without cells."""
    out: list[float | None] = [None] * len(counts)
    runs, counts = _encode(mapper, cells, counts, params)
    if runs is None:
        return out
    used = [i for i, count in enumerate(counts) if count]
    offsets = np.cumsum([0] + [counts[i] for i in used])
    for i, value in zip(used, beam_mi_srle_batch(runs, offsets, params).tolist()):
        out[i] = value
    return out


def beam_mi(mapper, cells: np.ndarray, params: SensorParams) -> BeamMI:
    """The :class:`BeamMI` of one beam's cast cells past its sensor cell
    (``FanCast`` slices them at ``bounds``), beliefs read now: the runs the
    map encodes for this beam alone, through :func:`beam_mi_srle`. Its value
    is the one :func:`trajectories_mi` gives the beam, bit for bit. A beam
    without cells raises ``EmptyRay``."""
    runs, _ = _encode(mapper, cells, [cells.shape[0]], params)
    if runs is None:
        raise _no_runs()
    return beam_mi_srle(runs, params)


@dataclass
class TrajectoryMI:
    """Information of one trajectory. ``beams`` lists every kept beam that
    has cells past the sensor cell, in keep order, as (its index in the
    trajectory's beams, its value in nats); kept beams without such cells
    add nothing to ``value``. :func:`beam_mi` gives a kept beam's term
    breakdown."""

    value: float
    beams_total: int
    beams_kept: int
    beams: list[tuple[int, float]]


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
    ``planner.evaluate_candidates``), with trajectories of poses.
    Overlapping beams are dropped greedily per trajectory, across its whole
    horizon: one :func:`select_nonoverlapping` call on the concatenated
    per-beam keys of its fans (``FanCast.beam_keys``). The kept beams'
    cells are sliced at their fans' ``FanCast.bounds``, and the union of
    kept beams is evaluated in one :func:`beam_mi_srle_batch` call, which
    gives one float per beam. Each trajectory's value adds its kept beams'
    values in keep order, so it is bit-identical to evaluating that
    trajectory alone.

    ``mapper`` is a GridMap or a semantic octree: it encodes the kept beams'
    runs (one per cell on the grid, one per stretch of equal leaf beliefs on
    the octree).
    """
    slots: dict[tuple, int] = {}  # kept (fan, beam) -> batch position
    kept: list[list[tuple[int, int]]] = []  # per trajectory: (beam index, position)
    totals: list[int] = []
    for traj in trajectories:
        casts = [fans[f] for f in traj]
        picks = []
        n, start, end = -1, 0, 0  # the fan of beam i: its place in traj, first beam, end
        for i in select_nonoverlapping([keys for cast in casts for keys in cast.beam_keys()]):
            while i >= end:  # kept beams ascend; fans without beams are passed over
                n += 1
                start, end = end, end + len(casts[n])
            picks.append((i, slots.setdefault((traj[n], i - start), len(slots))))
        kept.append(picks)
        totals.append(sum(map(len, casts)))
    pieces = []
    for f, b in slots:
        cast = fans[f]
        bounds = cast.bounds
        pieces.append(cast.cells[bounds[b]:bounds[b + 1]])
    values = _traces_mi(mapper, np.concatenate([_NO_CELLS] + pieces),
                        list(map(len, pieces)), params)
    results = []
    for picks, beams_total in zip(kept, totals):
        beams = [(i, values[pos]) for i, pos in picks if values[pos] is not None]
        total = 0.0
        for _, value in beams:
            total += value
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


@functools.lru_cache(maxsize=64)
def _fan_directions(num_beams: int, heading: float, fov: float) -> tuple[tuple[float, ...], ...]:
    """The unit directions of the planar fan at :func:`fan_angles`, made as
    floats and passed through ``grid.unit_direction``; ``FanCast.from_pose``
    casts and ``sim.sense`` senses along them. A NaN or infinite angle raises
    ``ValueError`` (from ``math.cos`` or the check), which is not memoized."""
    return tuple(unit_direction((math.cos(a), math.sin(a), 0.0))
                 for a in fan_angles(num_beams, heading, fov))


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

    Each cell's fan is ``FanCast.from_pose`` from its center, so cells whose
    centers share a sub-cell part share one memoized walk of the fan
    (``grid.walk_fan``). The surface is a per-cell field for inspection, so
    every beam of the fan is summed (each beam's value is exact on its
    own); the non-overlap filtering that the trajectory bound requires
    would make the field depend on beam enumeration order.
    """
    if max_range is None:
        max_range = max(gmap.dims[:2]) * gmap.resolution
    labels = np.argmax(gmap.cells[:, :, 0], axis=-1)
    out = np.zeros(gmap.dims[:2], dtype=np.float64)
    for i in range(gmap.dims[0]):
        for j in range(gmap.dims[1]):
            if labels[i, j] != 0:
                continue
            fan = FanCast.from_pose(gmap, gmap.cell_center((i, j, 0)), num_beams, max_range)
            total = 0.0
            for value in _traces_mi(gmap, fan.cells, fan.counts, params):
                if value is not None:
                    total += value
            out[i, j] = total
    return out
