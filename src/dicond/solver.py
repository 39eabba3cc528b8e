"""Iterative conductance minimization with exact l1-sphere subproblems.

The solver alternates three steps: pick a boundary subgradient of Q_r at
the current iterate, minimize ||x||_inf - <x, s> exactly over the unit
l1 sphere, and refresh the ratio r. It stops when the boundary stop set
is empty (a flip-local-optimality certificate), when the ratio stalls,
or after max_iters steps. Ratios along accepted iterates are strictly
decreasing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import spectral_embedding, sweep_cut
from .errors import ConstantVectorError, EmptyGraphError
from .functionals import is_nonconstant, linf, q_r, r_obj
from .graph import DegreeProfile, DirectedGraph, conductance_set, induced_subgraph, zero_cut
from .subgrad import (
    CutState,
    StopCertificate,
    bounds,
    boundary_indicator,
    iterate_state,
    select_subgradient,
)

CERT_BOUNDARY = "stop-by-V_b-empty"
CERT_NO_DESCENT = "stop-by-no-descent"
CERT_MAX_ITERS = "stop-by-T"
CERT_PRECHECK = "stop-by-precheck"
INIT_MODES = ("mixed", "spectral", "sweep", "imbalance", "random")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Settings of a solve; everything about a run is determined by
    (config, graph).

    init is a restart schedule from INIT_MODES or a start vector of
    length n, which is the first restart (kind "user") ahead of random
    ones. A start vector is kept as a read-only float copy (dsi_solve
    checks its length), and configs compare and hash by value.
    """

    max_iters: int = 1000
    restarts: int = 8
    init: str | np.ndarray = "mixed"
    seed: int = 0
    self_check: bool = False

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        if isinstance(self.init, str):
            if self.init not in INIT_MODES:
                raise ValueError(f"unknown init strategy {self.init!r}; expected one of {INIT_MODES}")
        else:
            init = np.array(self.init, dtype=float)
            init.flags.writeable = False
            object.__setattr__(self, "init", init)

    def _key(self) -> tuple:
        init = self.init
        if not isinstance(init, str):
            init = (init.shape, (init + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0
        return (self.max_iters, self.restarts, init, self.seed, self.self_check)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: best ratio, iterate, partition, and the
    strictly decreasing ratio trace."""

    best_r: float
    best_x: np.ndarray
    best_set: np.ndarray
    best_set_labels: tuple[str, ...]
    r_trace: tuple[float, ...]
    iterations: int
    certificate: str
    is_flip_local_opt: bool
    wall_time: float
    notes: tuple[str, ...] = ()
    init_kind: str = ""
    restart_index: int = -1

    def to_dict(self, with_timings: bool = True) -> dict:
        return {
            "best_r": self.best_r,
            "best_x": [float(v) for v in self.best_x],
            "best_set": list(self.best_set_labels),
            "r_trace": [float(v) for v in self.r_trace],
            "iterations": self.iterations,
            "certificate": self.certificate,
            "is_flip_local_opt": self.is_flip_local_opt,
            "wall_time": self.wall_time if with_timings else 0.0,
            "meta": {
                "notes": list(self.notes),
                "init_kind": self.init_kind,
                "restart_index": self.restart_index,
            },
        }


def _sorted_labels(g: DirectedGraph, mask: np.ndarray) -> tuple[str, ...]:
    labs = [g.labels[i] for i in np.flatnonzero(mask)]
    return tuple(sorted(labs, key=lambda s: (0, int(s)) if s.isdigit() else (1, s)))


def subproblem_argmin(s: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimizer of ||x||_inf - <x, s> over the unit l1 sphere.

    For ||s||_1 > 1 the optimum spreads equal mass sign(s_i)/k over the k
    largest |s| entries, where k is fixed by the partial-sum thresholds;
    exact ties at the threshold keep the whole tied band active. For
    ||s||_1 <= 1 the uniform sign vector /n is optimal with value >= 0.
    Returns (x, value).
    """
    s = np.asarray(s, dtype=float)
    n = s.size
    sgn = np.where(s >= 0, 1.0, -1.0)
    abs_s = np.abs(s)
    # no sort is needed when the top n-1 partial sum A_{n-1} =
    # ||s||_1 - n min|s| is at most 1: then both branches below return
    # the uniform sign vector. The margin covers the rounding gap
    # between the sorted and unsorted sums.
    total = abs_s.sum()
    if total - n * abs_s.min() <= 1.0 - 1e-9 * total:
        x = sgn / n
        return x, 1.0 / n - float(np.dot(x, s))
    order = np.argsort(-abs_s, kind="stable")
    a = abs_s[order]
    a_next = np.append(a[1:], 0.0)
    partial = np.cumsum(a) - np.arange(1, n + 1) * a_next  # A_m, nondecreasing
    # branch on A_n (the sorted cumulative sum) so the threshold search
    # below cannot disagree with the norm test by one rounding ulp
    if partial[-1] <= 1.0:
        x = sgn / n
        return x, 1.0 / n - float(np.dot(x, s))
    m0 = int(np.argmax(partial > 1.0)) + 1
    z = np.zeros(n)
    z[order[:m0]] = 1.0
    x = sgn * z / m0
    return x, float(linf(x) - np.dot(x, s))


def extract_partition(g: DirectedGraph, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Same as ``sweep_cut(g, x, distinct_only=True)``; the solver no
    longer calls it. Kept only because perfbench traces this name."""
    return sweep_cut(g, x, distinct_only=True)


def verify_local_opt(g: DirectedGraph, s: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff no single sign flip of the +/-1 indicator of s improves
    the ratio objective. As in flip_conductances, flips that would leave
    a side with zero volume, where r is undefined, are skipped; these
    include the flips that would make x constant."""
    s = np.asarray(s, dtype=bool)
    degrees = g.degree_profile
    x = np.where(s, 1.0, -1.0)
    r0 = r_obj(g, degrees, x)
    live = degrees.d > 0
    # positive-degree vertices inside s after flipping each vertex
    live_in = np.count_nonzero(s & live) + np.where(s, -1, 1) * live
    for i in np.flatnonzero((live_in > 0) & (live_in < np.count_nonzero(live))):
        x[i] = -x[i]
        ri = r_obj(g, degrees, x)
        x[i] = -x[i]
        if ri < r0 - tol:
            return False
    return True


def flip_conductances(g: DirectedGraph, s: np.ndarray) -> np.ndarray:
    """Conductance of every single-vertex flip of the subset s, in one
    O(m + n) pass; entries are +inf where the flip would empty a side or
    zero out a volume."""
    s = np.asarray(s, dtype=bool)
    degrees = g.degree_profile
    d = degrees.d
    vol_total = degrees.vol_total
    w, tails, heads = g.weights, g.tails, g.heads
    n = g.n

    t_in, h_in = s[tails], s[heads]
    cp = float(w[t_in & ~h_in].sum())
    cm = float(w[~t_in & h_in].sum())
    vol_s = float(d[s].sum())

    out_to_s = np.bincount(tails, weights=w * h_in, minlength=n)
    in_from_s = np.bincount(heads, weights=w * t_in, minlength=n)
    out_to_sc = degrees.d_out - out_to_s
    in_from_sc = degrees.d_in - in_from_s

    join = out_to_sc - in_from_s  # change of cut+ when an outside vertex joins
    joinm = in_from_sc - out_to_s
    cp_new = np.where(s, cp - join, cp + join)
    cm_new = np.where(s, cm - joinm, cm + joinm)
    vol_new = np.where(s, vol_s - d, vol_s + d)
    min_vol = np.minimum(vol_new, vol_total - vol_new)

    size = int(s.sum())
    new_size = np.where(s, size - 1, size + 1)
    ok = (min_vol > 0) & (new_size > 0) & (new_size < n)
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.minimum(cp_new, cm_new) / min_vol
    return np.where(ok, phi, np.inf)


def _precheck_report(g, mask, t0, note) -> SolveReport:
    phi = conductance_set(g, mask)[0]
    return SolveReport(
        best_r=phi,
        best_x=np.where(mask, 1.0, -1.0),
        best_set=mask,
        best_set_labels=_sorted_labels(g, mask),
        r_trace=(phi,),
        iterations=0,
        certificate=CERT_PRECHECK,
        is_flip_local_opt=True,  # a zero-conductance cut is the global minimum
        wall_time=time.perf_counter() - t0,
        notes=(note,),
    )


def dsi_run(
    g: DirectedGraph, degrees: DegreeProfile, x1: np.ndarray, cfg: SolverConfig
) -> SolveReport:
    """One solver run from the initial vector x1.

    The bare three-step iteration, with no precheck, runs until a stop
    certificate or max_iters; dsi_solve calls it only on strongly
    connected input. The best iterate is rounded by the distinct-value
    sweep cut, and is_flip_local_opt is the O(m + n) single-flip test
    of flip_conductances, the predicate that verify_local_opt checks
    with one r_obj evaluation per vertex.

    When g.exact_sums holds, the run keeps one CutState: each iterate
    that takes exactly two values +/-c moves it, in O(deg) when a single
    vertex flips and by an O(m) recount otherwise, and bounds reads its
    cut sums (own = d - cut) instead of an O(m) pass over all pairs.
    Exactness makes the result the same as the general code; other
    iterates and other graphs use the general code.
    """
    t0 = time.perf_counter()
    x = np.asarray(x1, dtype=float)
    if not is_nonconstant(x):
        raise ConstantVectorError("initial vector must be nonconstant")
    cut = CutState(g) if g.exact_sums else None
    state = iterate_state(g, degrees, x / linf(x), cut)
    eps_dec = 1e-10 * max(1.0, state.r)

    trace = [state.r]
    r_star, x_star = state.r, state.x.copy()
    certificate = CERT_MAX_ITERS
    iterations = 0

    for _ in range(cfg.max_iters):
        x, r, classes = state.x, state.r, state.classes
        if cfg.self_check and state.cut is not None:
            if not (np.array_equal(state.cut.side, x > 0) and state.cut.matches_recount()):
                raise AssertionError("maintained cut sums differ from a full recount")
        bnds = bounds(g, degrees, classes, x, state.cut)
        ind = boundary_indicator(g, degrees, bnds, classes, r)
        if ind.v_b.size == 0:
            if not bool(classes.s_less.any()):
                # the boundary test certifies only that no subgradient
                # forces descent; it can miss single-flip improvements,
                # so sweep the flips directly before accepting the stop
                phis = flip_conductances(g, x > 0)
                best_i = int(np.argmin(phis))
                if phis[best_i] < r_star - eps_dec:
                    x = np.where(x > 0, 1.0, -1.0)
                    x[best_i] = -x[best_i]
                    iterations += 1
                    state = iterate_state(g, degrees, x, cut)
                    r_star, x_star = state.r, x.copy()
                    trace.append(state.r)
                    continue
                certificate = CERT_BOUNDARY
                break
            # stalled at a non-binary point: restart from the rounded
            # indicator, whose ratio can only be at least as good
            mask, _ = sweep_cut(g, x, distinct_only=True)
            xb = np.where(mask, 1.0, -1.0)
            iterations += 1
            state = iterate_state(g, degrees, xb, cut)
            if state.r < r_star - eps_dec:
                r_star, x_star = state.r, xb
                trace.append(state.r)
            continue
        sel = select_subgradient(g, degrees, bnds, ind, classes, r)
        assert not isinstance(sel, StopCertificate)
        if cfg.self_check:
            gap = abs(float(np.dot(x, sel.s)) - q_r(g, degrees, x, r))
            # near-ties within the zero-test tolerance t of a class
            # boundary shift the identity by O(t); exact-tie iterates
            # sit at ~1e-15
            if gap > 1e-10 + 8.0 * state.t:
                raise AssertionError(f"subgradient tightness violated: gap={gap:.3e}")
        x_next, _ = subproblem_argmin(sel.s)
        iterations += 1
        if not is_nonconstant(x_next):
            certificate = CERT_NO_DESCENT
            break
        nxt = iterate_state(g, degrees, x_next, cut)
        if nxt.r < r_star - eps_dec:
            state = nxt
            r_star, x_star = nxt.r, x_next
            trace.append(nxt.r)
        else:
            certificate = CERT_NO_DESCENT
            break

    best_set, _ = sweep_cut(g, x_star, distinct_only=True)
    # the sweep's cumulative cut sums can differ from a direct recount in
    # the last bits; report the conductance of the set itself
    best_phi = conductance_set(g, best_set)[0]
    return SolveReport(
        best_r=best_phi,
        best_x=x_star,
        best_set=best_set,
        best_set_labels=_sorted_labels(g, best_set),
        r_trace=tuple(trace),
        iterations=iterations,
        certificate=certificate,
        is_flip_local_opt=bool(flip_conductances(g, best_set).min() >= best_phi - 1e-12),
        wall_time=time.perf_counter() - t0,
    )


def _random_sign_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        x = rng.choice([-1.0, 1.0], size=n)
        if x.min() < x.max():
            return x


def _initial_vectors(g, degrees, cfg, start) -> list[tuple[str, np.ndarray]]:
    """Restart schedule: the start vector when one is given, else
    spectral, sweep-seeded and degree-imbalance-seeded vectors by
    cfg.init; seeded random sign vectors fill the remaining restarts.

    The imbalance seed sweeps vertices by d_out - d_in; it is what makes
    purely directional cuts (invisible to any symmetrized spectrum)
    reliable starting points.
    """
    inits: list[tuple[str, np.ndarray]] = []
    want = cfg.restarts
    fixed: list[str] = []
    if start is not None:
        inits.append(("user", start))
    elif cfg.init == "mixed":
        fixed = ["spectral", "sweep", "imbalance"]
    elif cfg.init != "random":
        fixed = [cfg.init]

    emb_vec = None
    if "spectral" in fixed or "sweep" in fixed:
        emb_vec = spectral_embedding(g).vector

    for kind in fixed[:want]:
        if kind == "spectral":
            v = emb_vec - emb_vec.mean()
            if is_nonconstant(v):
                inits.append(("spectral", v))
        elif kind == "sweep":
            mask, _ = sweep_cut(g, emb_vec)
            inits.append(("sweep", np.where(mask, 1.0, -1.0)))
        elif kind == "imbalance":
            if is_nonconstant(degrees.d_delta):
                mask, _ = sweep_cut(g, degrees.d_delta)
                inits.append(("imbalance", np.where(mask, 1.0, -1.0)))

    idx = 0
    while len(inits) < want:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(idx,)))
        inits.append((f"random-{idx}", _random_sign_vector(g.n, rng)))
        idx += 1
    return inits


def dsi_solve(g: DirectedGraph, cfg: SolverConfig | None = None) -> SolveReport:
    """Full solve: restart schedule over dsi_run, best report wins.

    If the positive-degree vertices are not strongly connected, a source
    strong component has conductance 0 and is returned under the
    precheck certificate. Otherwise they form one strong component: the
    restarts run on it, and isolated vertices join the complement side.

    Restarts cover the centered spectral embedding, the +/-1 indicator
    of the sweep-cut baseline's best set (which pins best_r at or below
    the baseline value), and seeded random sign vectors. The spectral
    vector here is the symmetrized-Laplacian embedding, a stand-in
    initialization recorded in the report notes.
    """
    cfg = cfg or SolverConfig()
    if g.n < 2 or g.m < 1:
        raise EmptyGraphError("solver needs at least 2 vertices and 1 arc")
    t0 = time.perf_counter()
    start = None
    if not isinstance(cfg.init, str):
        start = np.asarray(cfg.init, dtype=float)
        if start.shape != (g.n,) or not np.isfinite(start).all():
            raise ValueError(f"init vector needs n = {g.n} finite values; got shape {start.shape}")

    pre = zero_cut(g)
    if pre is not None:
        return _precheck_report(g, pre, t0, "not strongly connected: a source component cut is optimal")

    notes = ("initialized from symmetrized spectral embedding, sweep seed, and random restarts",)
    core = np.flatnonzero(g.degree_profile.d > 0)
    sub = g
    if core.size < g.n:
        sub, _ = induced_subgraph(g, core)
        start = None if start is None else start[core]
        notes += ("isolated vertices assigned to the complement side",)
    if start is not None and not is_nonconstant(start):
        raise ConstantVectorError("init vector is constant on the positive-degree vertices "
                                  "(isolated vertices are ignored)")

    degrees = sub.degree_profile
    reports = []
    for idx, (kind, x1) in enumerate(_initial_vectors(sub, degrees, cfg, start)):
        rep = dsi_run(sub, degrees, x1, cfg)
        reports.append(replace(rep, init_kind=kind, restart_index=idx))
    best = min(reports, key=lambda rep: (rep.best_r, rep.iterations, rep.restart_index))

    if sub is not g:
        mask = np.zeros(g.n, dtype=bool)
        mask[core[best.best_set]] = True
        x_full = -np.ones(g.n)
        x_full[core] = best.best_x
        best = replace(best, best_x=x_full, best_set=mask, best_set_labels=_sorted_labels(g, mask))
    return replace(best, wall_time=time.perf_counter() - t0, notes=notes)
