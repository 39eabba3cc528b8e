"""Iterative conductance minimization with exact l1-sphere subproblems.

The solver alternates three steps: pick a boundary subgradient of Q_r at
the current iterate, minimize ||x||_inf - <x, s> exactly over the unit
l1 sphere, and refresh the ratio r; at an empty boundary stop set the
move is the best single flip of a binary iterate or the rounding of a
non-binary one. One rule accepts every move, a strictly lower ratio. The
run stops when no flip descends at an empty stop set (a
flip-local-optimality certificate), when a move does not descend, or
after max_iters steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .baselines import graph_embedding, sweep_cut
from .errors import ConstantVectorError, EmptyGraphError, check_int, check_vector
from .functionals import is_nonconstant, linf, q_r
from .graph import DirectedGraph, conductance_set, cut_values, lift_core, positive_core, zero_cut
from .subgrad import CutState, IterateState, binary_state, binary_step, general_step, iterate_state

CERT_BOUNDARY = "stop-by-V_b-empty"
CERT_NO_DESCENT = "stop-by-no-descent"
CERT_MAX_ITERS = "stop-by-T"
CERT_PRECHECK = "stop-by-precheck"


@dataclass(frozen=True)
class SolverConfig:
    """Settings of a solve; everything about a run is determined by
    (config, graph).

    restarts is the length of dsi_solve's one restart schedule (see
    _initial_vectors); a run from a given start vector is
    dsi_run(g, x, cfg). max_iters and restarts are integers >= 1 and
    seed an integer >= 0 (numpy integers too); other values raise
    ValueError.
    """

    max_iters: int = 1000
    restarts: int = 8
    seed: int = 0
    self_check: bool = False

    def __post_init__(self):
        check_int("max_iters", self.max_iters, 1)
        check_int("restarts", self.restarts, 1)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: best ratio, iterate, partition, and the
    strictly decreasing ratio trace. labels are the graph's vertex
    labels; best_set_labels sorts best_set's once, on first read."""

    best_r: float
    best_x: np.ndarray
    best_set: np.ndarray
    labels: tuple[str, ...] = field(repr=False, compare=False)
    r_trace: tuple[float, ...]
    iterations: int
    certificate: str
    is_flip_local_opt: bool
    wall_time: float
    notes: tuple[str, ...] = ()
    init_kind: str = ""
    restart_index: int = -1

    @cached_property
    def best_set_labels(self) -> tuple[str, ...]:
        return _sorted_labels(self.labels, self.best_set)

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


def _sorted_labels(labels: tuple[str, ...], mask: np.ndarray) -> tuple[str, ...]:
    labs = [labels[i] for i in np.flatnonzero(mask)]
    return tuple(sorted(labs, key=lambda s: (0, int(s)) if s.isdecimal() else (1, s)))


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
    signed = s + 0.0  # -0.0 turns into +0.0, so its sign is Sign(s) with Sign(0) = +1
    abs_s = np.abs(s)
    k = n
    x = np.copysign(1.0 / n, signed)  # sign(s) / n
    # no sort is needed when the top n-1 partial sum A_{n-1} =
    # ||s||_1 - n min|s| is at most 1, as then k = n. The margin covers
    # the rounding gap between the sorted and unsorted sums.
    total = abs_s.sum()
    if total - n * abs_s[abs_s.argmin()] > 1.0 - 1e-9 * total:
        order = np.argsort(-abs_s, kind="stable")
        a = abs_s[order]
        partial = np.cumsum(a) - np.arange(1, n + 1) * np.append(a[1:], 0.0)  # A_m, nondecreasing
        # k is the first m with A_m > 1; testing A_n (the sorted
        # cumulative sum) keeps k = n where A_n <= 1, so the search
        # cannot disagree with the norm test by one rounding ulp
        if partial[-1] > 1.0:
            k = int(np.argmax(partial > 1.0)) + 1
            z = np.zeros(n)
            z[order[:k]] = 1.0
            x = np.copysign(z / k, signed)
    return x, float(1.0 / k - np.dot(x, s))  # ||x||_inf is exactly 1/k


def extract_partition(g: DirectedGraph, x: np.ndarray) -> np.ndarray:
    """Same as ``sweep_cut(g, x)``, the best level set of x; the solver
    no longer calls it. Kept only because perfbench traces this name."""
    return sweep_cut(g, x)


def verify_local_opt(g: DirectedGraph, s: np.ndarray) -> bool:
    """True iff no single-vertex flip of the subset s lowers its
    conductance by more than 1e-12, with every flipped set measured
    directly by conductance_set. As in flip_conductances, flips that
    would leave a side empty or with zero volume are skipped."""
    s = np.array(s, dtype=bool)
    live = g.degree_profile.d > 0
    phi0 = conductance_set(g, s)[0]
    # positive-degree vertices inside s after flipping each vertex
    live_in = np.count_nonzero(s & live) + np.where(s, -1, 1) * live
    for i in np.flatnonzero((live_in > 0) & (live_in < np.count_nonzero(live))):
        s[i] = not s[i]
        phi = conductance_set(g, s)[0]
        s[i] = not s[i]
        if phi < phi0 - 1e-12:
            return False
    return True


def flip_conductances(g: DirectedGraph, s: np.ndarray) -> np.ndarray:
    """Conductance of every single-vertex flip of the subset s, in one
    O(m + n) pass from the cut sums of s (cut_values); entries are +inf
    where the flip would empty a side or zero out a volume."""
    cp, cm, vol_s, _ = cut_values(g, s)
    s = np.asarray(s, dtype=bool)
    degrees = g.degree_profile
    d = degrees.d
    vol_total = degrees.vol_total
    w, tails, heads = g.weights, g.tails, g.heads
    n = g.n

    t_in, h_in = s[tails], s[heads]
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
        labels=g.labels,
        r_trace=(phi,),
        iterations=0,
        certificate=CERT_PRECHECK,
        is_flip_local_opt=True,  # a zero-conductance cut is the global minimum
        wall_time=time.perf_counter() - t0,
        notes=(note,),
    )


def _self_check_binary(g, state: IterateState) -> None:
    """cfg.self_check on a binary state as it is built: the cut signs and
    sums equal a full recount, r is conductance_set of the positive
    side, and every other field is iterate_state's, bit for bit."""
    if not (np.array_equal(state.cut.side, state.x > 0) and state.cut.matches_recount()):
        raise AssertionError("maintained cut sums differ from a full recount")
    if np.float64(conductance_set(g, state.cut.side)[0]).tobytes() != np.float64(state.r).tobytes():
        raise AssertionError("binary ratio differs from conductance_set of its side")
    ref = iterate_state(g, state.x)
    if not all(np.float64(getattr(state, f)).tobytes() == np.float64(getattr(ref, f)).tobytes()
               for f in ("x_min", "x_max", "norm", "t", "alpha", "j0")):
        raise AssertionError("binary state differs from iterate_state")


def _self_check(g, state, v_b, sel) -> None:
    """cfg.self_check on one step: a binary iterate's V_b and s are the
    general chain's, bit for bit; a selected subgradient is tight,
    <x, s> = Q_r(x)."""
    if state.cut is not None:
        ref_v_b, ref = general_step(g, state)
        # both steps return a subgradient exactly when V_b is not empty
        if v_b.tobytes() != ref_v_b.tobytes() or (sel is not None and sel.s.tobytes() != ref.s.tobytes()):
            raise AssertionError("binary step differs from the general chain")
    if sel is not None:
        gap = abs(float(np.dot(state.x, sel.s)) - q_r(g, g.degree_profile, state.x, state.r))
        # near-ties within the zero-test tolerance t of a class boundary
        # shift the identity by O(t); exact-tie iterates sit at ~1e-15
        if gap > 1e-10 + 8.0 * state.t:
            raise AssertionError(f"subgradient tightness violated: gap={gap:.3e}")


def _self_check_finish(g, x_star, best_set, best_phi) -> None:
    """cfg.self_check on a run's shortcut finish: best_set is the sweep
    cut of x_star and best_phi its conductance_set, bit for bit."""
    ref = sweep_cut(g, x_star)
    if not (np.array_equal(ref, best_set)
            and np.float64(conductance_set(g, ref)[0]).tobytes() == np.float64(best_phi).tobytes()):
        raise AssertionError("binary finish differs from sweep_cut and conductance_set")


def dsi_run(g: DirectedGraph, x1: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """One solver run from the initial vector x1.

    The bare iteration, with no precheck, runs until a stop certificate
    or max_iters; dsi_solve calls it only on strongly connected input.
    Each iterate is evaluated once into an IterateState, and a step
    returns its stop set V_b and, when V_b is not empty, the selected
    subgradient. Each iteration proposes one move: the subproblem
    minimizer; at an empty V_b, the sweep-cut rounding of a non-binary
    iterate or the best flip of a binary one (the boundary test can miss
    it), stopping with an empty V_b when no flip descends. One state
    evaluation covers the move and one rule accepts it, a ratio below
    the best by more than eps_dec. A rounding stays the current iterate
    either way; any other move that does not descend or is constant
    stops the run with no descent. The rounding and the finish are
    sweep cuts, which cut only between distinct values: the best
    iterate is rounded to its best level set, best_r is conductance_set
    of that set, and is_flip_local_opt is the O(m + n) single-flip test
    of flip_conductances, the predicate that verify_local_opt checks
    with one conductance_set per vertex.

    When g.exact_sums holds, the run keeps one CutState, and each move
    names its form: a flip or a rounding sets a side with c = 1, a
    subproblem minimizer that keeps all n coordinates is sign(s) / n on
    the side s >= 0, and the start x / ||x||_inf is binary iff every
    |x_i| is 1. binary_state evaluates a binary move without a scan of
    x: its cut sums move in O(deg) on a single flip and by an O(m)
    recount otherwise, r is phi of the positive side (CutState.phi),
    and the step is binary_step, one pass over the cut sums. Every other
    iterate takes iterate_state (r_obj's formula) and general_step.
    When the best iterate is binary, its positive side is
    the sweep cut and its r that side's conductance_set, so the finish
    reads both off it; when the run stops at it on an empty V_b, the
    flip conductances that certified the stop give is_flip_local_opt.
    With cfg.self_check each binary state asserts, when it is built,
    that its cut sums equal a recount, its r conductance_set and its
    other fields iterate_state's; each binary step, general_step; and
    the binary finish, sweep_cut and conductance_set, bit for bit. A
    start vector that is not n finite values raises ValueError and a
    constant one ConstantVectorError.
    """
    t0 = time.perf_counter()
    x = check_vector("initial vector", x1, g.n)
    if not is_nonconstant(x):
        raise ConstantVectorError("initial vector must be nonconstant")
    cut = CutState(g) if g.exact_sums else None

    def evaluate(x, side, c):
        if cut is None or side is None:
            return iterate_state(g, x)
        state = binary_state(g, x, side, c, cut)
        if cfg.self_check:
            _self_check_binary(g, state)
        return state

    x = x / linf(x)
    state = best = evaluate(x, x > 0 if (np.abs(x) == 1.0).all() else None, 1.0)
    eps_dec = 1e-10 * max(1.0, state.r)

    trace = [state.r]
    certificate = CERT_MAX_ITERS
    iterations = 0

    for _ in range(cfg.max_iters):
        v_b, sel = (general_step if state.cut is None else binary_step)(g, state)
        if cfg.self_check:
            _self_check(g, state, v_b, sel)
        rounding = sel is None and bool(state.classes.s_less.any())
        side, c = None, 1.0  # the side and c of a binary move
        if sel is not None:
            x_next, _ = subproblem_argmin(sel.s)
            if cut is not None and np.count_nonzero(x_next) == g.n:  # k = n: sign(s) / n
                side, c = sel.s >= 0, 1.0 / g.n
        elif rounding:
            side = sweep_cut(g, state.x)
            x_next = np.where(side, 1.0, -1.0)
        else:
            side = state.x > 0
            phis = flip_conductances(g, side)
            best_i = int(np.argmin(phis))
            if not phis[best_i] < best.r - eps_dec:
                certificate = CERT_BOUNDARY
                break
            side[best_i] = not side[best_i]
            x_next = np.where(side, 1.0, -1.0)
        iterations += 1
        try:
            nxt = evaluate(x_next, side, c)
        except ConstantVectorError:
            certificate = CERT_NO_DESCENT
            break
        if nxt.r < best.r - eps_dec:
            best = nxt
            trace.append(nxt.r)
        elif not rounding:
            certificate = CERT_NO_DESCENT
            break
        state = nxt

    if best.cut is None:
        best_set = sweep_cut(g, best.x)
        best_phi = conductance_set(g, best_set)[0]
    else:  # binary: r is phi of the positive side, conductance_set's bits
        best_set, best_phi = best.x > 0, best.r
        if cfg.self_check:
            _self_check_finish(g, best.x, best_set, best_phi)
    # a stop on an empty V_b at a binary best iterate has just run the
    # flip test on best_set
    if not (certificate == CERT_BOUNDARY and state is best and best.cut is not None):
        phis = flip_conductances(g, best_set)
    return SolveReport(
        best_r=best_phi,
        best_x=best.x,
        best_set=best_set,
        labels=g.labels,
        r_trace=tuple(trace),
        iterations=iterations,
        certificate=certificate,
        is_flip_local_opt=bool(phis.min() >= best_phi - 1e-12),
        wall_time=time.perf_counter() - t0,
    )


def _random_sign_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        x = rng.choice([-1.0, 1.0], size=n)
        if x.min() < x.max():
            return x


def _initial_vectors(g, cfg) -> list[tuple[str, np.ndarray]]:
    """The restart schedule: the spectral, sweep and imbalance seeds in
    that order, the first cfg.restarts of them, less any whose vector is
    constant; seeded random sign vectors fill the remaining restarts.

    The sweep seed is the best level set of the embedding and the
    imbalance seed the best level set of d_out - d_in; the imbalance
    seed is what makes purely directional cuts (invisible to any
    symmetrized spectrum) reliable starting points. Both sweeps cut only
    between distinct values, so a block of vertices with equal
    d_out - d_in stays on one side, and reversing every arc, which
    negates d_out - d_in, turns the imbalance seed into its complement.
    """
    inits: list[tuple[str, np.ndarray]] = []
    for kind in ("spectral", "sweep", "imbalance")[:cfg.restarts]:
        if kind == "spectral":
            v = graph_embedding(g).vector
            v = v - v.mean()
            if is_nonconstant(v):
                inits.append(("spectral", v))
        elif kind == "sweep":
            inits.append(("sweep", np.where(sweep_cut(g, graph_embedding(g).vector), 1.0, -1.0)))
        else:
            d_delta = g.degree_profile.d_delta
            if is_nonconstant(d_delta):
                inits.append(("imbalance", np.where(sweep_cut(g, d_delta), 1.0, -1.0)))

    for idx in range(cfg.restarts - len(inits)):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(idx,)))
        inits.append((f"random-{idx}", _random_sign_vector(g.n, rng)))
    return inits


_INIT_NOTES = {"spectral": "symmetrized spectral embedding", "sweep": "sweep seed", "random": "random restarts"}


def _init_note(kinds) -> str:
    """The report note naming the restart kinds that ran, in schedule
    order, less the imbalance seed: every report recorded so far
    (tools/probe.jsonl) reads so, and the text stays until the change
    that names the seed re-records those digests."""
    words = [_INIT_NOTES[k] for k in dict.fromkeys(kind.split("-")[0] for kind in kinds)
             if k != "imbalance"]
    if len(words) > 2:
        words = [", ".join(words[:-1]) + ",", words[-1]]
    return "initialized from " + " and ".join(words)


def dsi_solve(g: DirectedGraph, cfg: SolverConfig | None = None) -> SolveReport:
    """Full solve: restart schedule over dsi_run, best report wins.

    If the positive-degree vertices are not strongly connected, a source
    strong component has conductance 0 and is returned under the
    precheck certificate. Otherwise they form one strong component: the
    restarts run on it, and isolated vertices join the complement side.

    The restarts run the one schedule of _initial_vectors: the centered
    spectral embedding, the +/-1 indicator of the sweep-cut baseline's
    best set (which, from restarts=2 on, pins best_r at or below the
    baseline value), the +/-1 indicator of the sweep cut by
    d_out - d_in (the imbalance seed), then seeded random sign vectors,
    cfg.restarts in all. The
    spectral vector here is the symmetrized-Laplacian embedding, a
    stand-in initialization; the first report note names the kinds that
    ran except the imbalance seed, and best_r is
    conductance_set(g, best_set)[0].
    """
    cfg = cfg or SolverConfig()
    if g.n < 2 or g.m < 1:
        raise EmptyGraphError("solver needs at least 2 vertices and 1 arc")
    t0 = time.perf_counter()

    pre = zero_cut(g)
    if pre is not None:
        return _precheck_report(g, pre, t0, "not strongly connected: a source component cut is optimal")

    sub, _ = positive_core(g)
    inits = _initial_vectors(sub, cfg)
    notes = (_init_note([kind for kind, _ in inits]),)
    if sub is not g:
        notes += ("isolated vertices assigned to the complement side",)

    reports = []
    for idx, (kind, x1) in enumerate(inits):
        rep = dsi_run(sub, x1, cfg)
        reports.append(replace(rep, init_kind=kind, restart_index=idx))
    best = min(reports, key=lambda rep: (rep.best_r, rep.iterations, rep.restart_index))
    mask = lift_core(g, best.best_set, False)
    return replace(best, best_r=conductance_set(g, mask)[0], best_x=lift_core(g, best.best_x, -1.0),
                   best_set=mask, labels=g.labels,
                   wall_time=time.perf_counter() - t0, notes=notes)
