"""Implicit time stepping, trajectories, and evolution diagnostics.

Backward Euler is the only integrator: each step applies
(I - dt*M)^{-1}.  M has nonnegative off-diagonal entries, so that
inverse is entrywise nonnegative, and keeps every nonnegative state
nonnegative, exactly when dt*s_A < 1 (s_A the spectral bound of M);
the stepping loop certifies it once per run and raises StepSizeError
otherwise.  ``evolve`` records the states of every ``record_every``-th
step and the last as the rows of one array, ``Trajectory.records``
(row 0 the initial state), which ``mass_balance`` and
``spectral.detect_AEG`` reduce over, and computes them by one of two
routes, with the same numbers to rounding:

  * ``"steps"``: one solve per step.  ``step_implicit`` and ``evolve``
    share one stepping loop, which fetches the generator's factor of
    I - dt*M (lambda = 1/dt folded in) once per run and advances the
    stacked state (u1 over u2) by banded solves of I - dt*B, O(n) with
    no negative rounding: one and a Sherman-Morrison update for a
    rank-1 kernel, one a term of a Neumann series for another.
  * ``"randomized"``: no solve at all.  With q = max(outflow + loss),
    P = I + M/q >= 0 and theta = q dt/(1 + q dt), backward Euler is a
    mixture of the powers of P, (I - dt M)^{-1} = (1 - theta) sum_j
    theta^j P^j, so k steps give x_k = sum_j w_{k,j} P^j x_0 with the
    negative-binomial weights w_{k,j} = C(j+k-1, j) (1 - theta)^k
    theta^j (randomization: Jensen 1953; Grassmann, *Comput. Oper.
    Res.* 4, 1977).  One Krylov sequence P^j x_0, j <= J, each product
    O(n) (``DiscreteGenerator.apply``), serves every step: the per-step
    phase sums are weights times the vectors' phase sums, and each
    record a weighted sum of the vectors, folded in blocks as they pass.
    The weights come from their ratios, w_{k,j+1}/w_{k,j} = theta
    (j+k)/(j+1) outward from a step's mode and w_{k+1,j}/w_{k,j} = (1 -
    theta)(j+k)/k down a chunk of steps, over every j from 0 to R past
    the step's mode (below 2^-1074 of the mode's they flush to 0),
    normalised to sum 1 (Fox & Glynn, *CACM* 31, 1988).  Every term is
    >= 0, so nothing cancels, and keeping every j from 0 holds however
    fast the norms |P^j x_0|_1 fall (the mass leaves the domain, say).

``evolve`` takes the randomized route, with no option, exactly when
x_0 >= 0, dt*rho < 1 (rho the largest column sum of M, so the series
converges), the term count J, which bounds the part dropped from the
last step below 2^-52 a priori, is at most the step count, beta^J |x_0|_1
(beta = |P|_1) is finite, the records' weights fit in 2^19 entries (they
are held at once) and the route is estimated to take no longer than the
loop (``_cheaper``: per-operation times fitted to timed runs of both
routes).  All of that is known before the first product, so a run sent
to the loop does its solves and no product.  The a-posteriori bound on
the dropped terms, the largest over all steps, is
``Trajectory.tail_bound``; the choice of J holds it below 2^-50, which
is checked after the products (a run failing it would take the loop
too).  The step's phase sums, recorded at every step (growth-rate fits
need a dense series), are its finiteness check; full profiles are
decimated by ``record_every``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, InsufficientDataError,
                     SpectralProximityError, StepSizeError)
from .model import Kernel, ModelParams, SizeGrid
from .operators import DiscreteGenerator, StateVector, _rounding_slack

# the randomized route: relative L1 bounds on the terms it drops, the
# a-priori one that fixes J and the a-posteriori one it checks
TERMS_TOL, TAIL_TOL = 2.0 ** -52, 2.0 ** -50


@dataclass
class Trajectory:
    """Recorded evolution of a state under the implicit scheme.

    ``records`` holds the decimated profiles as the rows of one array,
    each a stacked state (u1 over u2) on ``grid`` at its ``times`` entry,
    row 0 the initial state; ``step_times``/``step_masses``/
    ``step_phase_masses`` hold the per-step mass series.  ``route`` names
    how ``evolve`` computed them, "steps" or "randomized"; on the latter
    ``terms`` is the term count J and ``tail_bound`` the largest relative
    L1 bound on the terms dropped from any step (both None on the former).
    """

    times: np.ndarray
    records: np.ndarray
    grid: SizeGrid
    step_times: np.ndarray
    step_masses: np.ndarray
    step_phase_masses: np.ndarray
    dt: float
    route: str = "steps"
    terms: int | None = None
    tail_bound: float | None = None


@dataclass
class MassBalanceReport:
    """Per-record defect of the bulk mass identity.

    ``drift[k]`` is the finite-difference mass derivative over record
    stride k minus the recruitment-mortality source, less the boundary
    outflow ``outflow[k]``, both evaluated at the stride's end state.
    With one step per record this is the backward-Euler identity, and
    the drift is solver roundoff.
    """

    drift: np.ndarray
    max_abs_drift: float
    outflow: np.ndarray


def _step_count(dt: float, T: float) -> int:
    """ceil(T/dt) steps; ConfigurationError unless 0 < dt < inf and
    0 <= T/dt <= 2^53."""
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if not 0 <= T / dt <= 2 ** 53:
        raise ConfigurationError(f"T must be >= 0 and T/dt at most 2^53, "
                                 f"got T={T}, dt={dt}")
    return 0 if T == 0 else math.ceil(T / dt - 1e-12)


def _steps(gen: DiscreteGenerator, x: np.ndarray, dt: float, nsteps: int):
    """Yield (x, u1 sum, u2 sum) after each of ``nsteps`` implicit steps
    from the stacked state x (dt already checked).

    The factor of I - dt*M is fetched once, before the first step (never
    when nsteps is 0), and certified once: StepSizeError unless
    dt*s_A < 1, where (I - dt*M)^{-1} >= 0.  Each x is a fresh array, and
    its phase sums (dot products with ones, one BLAS call each) double as
    the finiteness check: a non-finite entry makes its sum non-finite.
    """
    if nsteps < 1:
        return
    try:
        fact = gen.factorization(1.0 / dt, scale=1.0 / dt, above=True)
    except SpectralProximityError as exc:
        raise StepSizeError(f"implicit step at dt={dt:g} needs dt*s_A < 1 "
                            f"to keep states nonnegative: {exc}")
    n = gen.grid.n
    ones = np.ones(n)
    for _ in range(nsteps):
        x = fact.solve(x)
        s1, s2 = np.dot(x[:n], ones), np.dot(x[n:], ones)
        if not (math.isfinite(s1) and math.isfinite(s2)):
            raise StepSizeError(f"implicit step produced non-finite state at dt={dt:g}")
        yield x, s1, s2


def step_implicit(gen: DiscreteGenerator, U: StateVector, dt: float) -> StateVector:
    """One backward-Euler step: returns (I - dt*M)^{-1} U.

    The result's components are views of one fresh array.  The step and
    its checks are those of ``evolve``; a run of steps is faster there,
    with one factor fetch and no state built per step.
    """
    nsteps = _step_count(dt, dt)        # 1, once dt is checked
    x = next(_steps(gen, U.stacked(), dt, nsteps))[0]
    return StateVector.from_stacked(x, gen.grid)


def _terms(tb: float, K: int) -> int | None:
    """The randomized route's term count J <= K for K steps, or None.

    P^j x grows at most like beta^j (beta = |P|_1), so the part dropped
    from step K relative to the part kept is at most t_J r/(1 - r) over
    the sum of t_j, j <= J, where t_j are the weights of K steps with
    tb = theta*beta in place of theta and r = tb (J+K)/(J+1).  J is the
    first j from the mode of t where that is below TERMS_TOL, summing t
    from the mode only.
    """
    j = int((K - 1) * tb / (1 - tb))
    t = s = 1.0
    while j <= K:
        r = tb * (j + K) / (j + 1)
        if r < 1 and t * r <= TERMS_TOL * s * (1 - r):
            return j
        t *= r
        s += t
        j += 1
    return None


def _mode(k, theta: float):
    """The mode of the weights of step(s) k >= 1."""
    return np.floor((np.asarray(k) - 1) * theta / (1 - theta)).astype(int)


def _weights(ks: np.ndarray, theta: float, left: int, right: int):
    """The weights of the steps ``ks``, unnormalised (1 at the mode m),
    of j = m - left .. m + right, one row per step: cumulative products
    of the ratio outward from the mode, 0 for j < 0."""
    k = ks[:, None].astype(float)
    m = _mode(k, theta)
    up, down = m + np.arange(right), m - np.arange(1, left + 1)
    w_up = np.cumprod(theta * (up + k) / (up + 1), axis=1)
    w_down = np.cumprod(np.maximum(down + 1, 0)
                        / (theta * np.maximum(down + k, 1)), axis=1)
    return np.hstack([w_down[:, ::-1], np.ones(k.shape), w_up])


def _record_weights(ks: np.ndarray, theta: float, ends: np.ndarray):
    """Normalised weights of the steps ``ks`` on the columns 0..ends
    (both ascending), one row per step, 0 past its end."""
    m = _mode(ks, theta)
    top, right = int(m[-1]), int((ends - m).max())
    w = _weights(ks, theta, top, right)     # row r: j = m_r - top .. m_r + right
    j = np.arange(int(ends[-1]) + 1)
    w = np.take_along_axis(w, np.minimum(j + (top - m)[:, None], top + right),
                           axis=1)
    w[j > ends[:, None]] = 0.0
    return w / w.sum(axis=1, keepdims=True)


def _chunk_weights(k: np.ndarray, theta: float, hi: int):
    """Unnormalised weights of the consecutive steps k on the columns
    0..hi: the first row by ``_weights``, each later one from the row
    before by w_{k+1,j} = w_{k,j} (1 - theta)(j + k)/k."""
    m0 = int(_mode(k[0], theta))
    w = np.empty((k.size, hi + 1))
    w[0] = _weights(k[:1], theta, m0, hi - m0)
    np.add(np.arange(hi + 1.0), k[:-1, None], out=w[1:])
    w[1:] *= (1 - theta) / k[:-1, None]
    for i in range(1, k.size):      # faster than cumprod on wide rows
        w[i] *= w[i - 1]
    return w


def _fold(gen: DiscreteGenerator, x: np.ndarray, d: np.ndarray, q: float,
          J: int, ends: np.ndarray, w: np.ndarray):
    """The phase sums of P^j x, j <= J, with P x = (d x + (M - D) x)/q,
    D the transport and loss diagonal, and the records: x over the
    states w @ [P^j x], the rows of w 0 past their ``ends`` (ascending).
    The vectors come in blocks; each adds its share to the states that
    use it and is then dropped."""
    n = gen.grid.n
    states = np.zeros((len(w) + 1, 2 * n))
    states[0] = x
    block = max(1, min(J + 1, 2 ** 17 // (2 * n)))
    V, sums, v = np.empty((block, 2 * n)), np.empty((J + 1, 2)), x
    for b in range(0, J + 1, block):
        nb = min(block, J + 1 - b)
        for i in range(nb):
            v = V[i] = gen.apply(v, d) / q if b + i else v
        sums[b:b + nb] = V[:nb].reshape(nb, 2, n).sum(axis=2)
        r0 = np.searchsorted(ends, b)
        wb = w[r0:, b:b + nb]
        states[1 + r0:] += wb @ V[:wb.shape[1]]
    return sums, states


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a/b where b > 0, inf elsewhere."""
    return np.divide(a, b, out=np.full(np.shape(b), np.inf), where=b > 0)


def _cheaper(gen: DiscreteGenerator, dt: float, J: int, nsteps: int,
             entries: int, madds: int) -> bool:
    """Whether the randomized route (J products, ``entries`` weights,
    ``madds`` multiply-adds folding the records) is estimated to take no
    longer than ``nsteps`` loop steps, by microseconds per operation
    fitted to timed ``evolve`` runs of both routes (one BLAS thread, an
    Intel Xeon server core, numpy 2.4; n = 40 .. 2000, q dt = 0.02 ..
    0.5, 300 .. 8000 steps): a product 25 + 0.013 n, plus 4.5e-4 n^2 with
    a dense kernel; a step's weights 2, plus 0.005 per entry; a
    multiply-add 2e-4; a banded solve 12 + 0.024 n, a rank-1 kernel's
    step.  Another kernel's step is a banded solve and a product per term
    of its series, as many as ``next_generation_norm`` < 1 bounds; with
    no such bound the randomized route is taken.
    """
    n = gen.grid.n
    product = 25 + 0.013 * n + (4.5e-4 * n * n
                                if gen.kernel.dense is not None else 0.0)
    step = 12 + 0.024 * n
    if gen.kernel.rank_one is None:
        # the series ends once norm^k / (1 - norm) is below 4 n eps
        norm = gen.next_generation_norm(1.0 / dt)
        if not norm < 1:
            return True
        tol = (1 - norm) * _rounding_slack(n)
        terms = math.ceil(math.log(tol) / math.log(norm)) if norm else 0
        step = (terms + 1) * (step + product)
    return (J * product + 2 * nsteps + 0.005 * entries + 2e-4 * madds
            <= nsteps * step)


def _randomized(gen: DiscreteGenerator, x: np.ndarray, dt: float,
                nsteps: int, rec: np.ndarray):
    """The randomized route of the module docstring: (the records, x
    over the states of the steps ``rec`` as rows of one array, the phase
    sums of steps 1..nsteps, J, the tail bound), or None where the rule
    sends the run to the loop, which it does before the first product."""
    loss = (gen.outflow + gen.loss).ravel()
    q = float(loss.max())
    rho = float(gen.line_sums()[1].max())
    if nsteps < 1 or not (dt * rho < 1 and x.min() >= 0
                          and 0 < x.max() < math.inf):
        return None
    theta, beta = q * dt / (1 + q * dt), 1 + rho / q
    J = _terms(theta * beta, nsteps)
    # |P^j x|_1 <= beta^j |x|_1 stays finite, and so does every sum
    if J is None or J * math.log(beta) + math.log(x.sum()) > 650:
        return None
    # step k keeps the terms j <= m_k + R, m_k its mode, so the last
    # keeps j <= J.  Chunks of consecutive steps k0..k1 share the
    # columns 0..m_(k1) + R: at most k0 steps whose modes move by about
    # one standard deviation of the first's (so no weight of the first
    # underflows where a later step's does not), and at most 2^16 entries
    R = J - int(_mode(nsteps, theta))
    k0 = [1]
    while k0[-1] <= nsteps:
        k = k0[-1]
        k0.append(k + max(1, min(k, int(math.sqrt(k / theta)),
                                 2 ** 16 // (J + 1))))
    k0, k1 = np.array(k0[:-1]), np.minimum(np.array(k0[1:]) - 1, nsteps)
    hi = _mode(k1, theta) + R
    # the records take their chunk's columns; their weights are held at
    # once, so at most 2^19 of them (4 MB)
    ends = hi[np.searchsorted(k1, rec)]
    held = rec.size * (J + 1)
    if held > 2 ** 19 or not _cheaper(
            gen, dt, J, nsteps, int(((k1 - k0 + 1) * (hi + 1)).sum())
            + held, int((ends + 1).sum()) * 2 * gen.grid.n):
        return None
    sums, states = _fold(gen, x, q - loss, q, J, ends,
                         _record_weights(rec, theta, ends))
    pad = np.hstack([sums, np.ones((J + 1, 1))])   # row j: sums of j, and 1
    a, out, tail = sums.sum(axis=1), np.empty((nsteps, 2)), 0.0
    # the terms past a chunk's columns: the weights fall by r per term
    # there and the norms grow at most by beta
    for c in range(k0.size):
        k = np.arange(k0[c], k1[c] + 1)
        w = _chunk_weights(k, theta, hi[c])
        kept = w @ pad[:hi[c] + 1]
        r = theta * beta * (hi[c] + k) / (hi[c] + 1)
        dropped = w[:, -1] * a[hi[c]] * _quotient(r, 1 - r)
        tail = max(tail, _quotient(dropped, kept[:, 0] + kept[:, 1]).max())
        out[k0[c] - 1:k1[c]] = kept[:, :2] / kept[:, 2:]
    # the choice of J bounds the tail a priori; this guards it
    if not tail <= TAIL_TOL:
        return None
    return states, out, J, tail


def evolve(gen: DiscreteGenerator, U0: StateVector, dt: float, T: float,
           record_every: int = 1) -> Trajectory:
    """The backward-Euler states of ceil(T/dt) steps of size dt, recording
    profiles every ``record_every`` steps and at the last.

    Every number is that of the implicit steps, on either route of the
    module docstring: the randomized one where its rule holds, else the
    stepping loop, with one factor fetch per run, which writes each
    record into a row of one array.  ConfigurationError before any step
    unless 0 < dt < inf, 0 <= T/dt <= 2^53 and record_every >= 1.
    """
    if record_every < 1:
        raise ConfigurationError("record_every must be >= 1")
    nsteps = _step_count(dt, T)
    n = gen.grid.n
    x = U0.stacked()
    ones = np.ones(n)
    sums = np.empty((nsteps + 1, 2))
    sums[0] = np.dot(x[:n], ones), np.dot(x[n:], ones)
    rec = np.arange(record_every, nsteps + record_every, record_every)
    rec[-1:] = nsteps
    found = _randomized(gen, x, dt, nsteps, rec)
    if found is not None:
        records, sums[1:], terms, tail = found
    else:
        records, terms, tail = np.empty((rec.size + 1, 2 * n)), None, None
        records[0], r = x, 0
        for k, (y, s1, s2) in enumerate(_steps(gen, x, dt, nsteps), 1):
            sums[k] = s1, s2
            if k == rec[r]:
                r += 1
                records[r] = y
    h = gen.grid.h
    return Trajectory(times=np.concatenate([[0.0], rec * dt]),
                      records=records, grid=gen.grid,
                      step_times=np.arange(nsteps + 1) * dt,
                      step_masses=(sums[:, 0] + sums[:, 1]) * h,
                      step_phase_masses=sums * h, dt=dt,
                      route="steps" if found is None else "randomized",
                      terms=terms, tail_bound=tail)


def row_integrals(rows: np.ndarray, grid: SizeGrid) -> np.ndarray:
    """(sum of u1 + sum of u2) h for each row of stacked states on
    ``grid``, as ``StateVector.mass``: the records' masses, or their L1
    norms for rows >= 0."""
    sums = rows.reshape(len(rows), 2, grid.n).sum(axis=2)
    return (sums[:, 0] + sums[:, 1]) * grid.h


def mass_balance(traj: Trajectory, kernel: Kernel, params: ModelParams) -> MassBalanceReport:
    """Compare the mass derivative against the source less the outflow.

    The source at a state is sum_j (sum_i beta[i,j]*h - mu[j]) * u1[j] * h
    and the outflow the flux gamma1*u1 + gamma2*u2 through the right
    end, both evaluated at the end of each stride (matching backward
    Euler).  Requires at least two records with a uniform stride, except
    that the last may be shorter (the final record of a run whose stride
    does not divide the step count).
    """
    if len(traj.records) < 2:
        raise InsufficientDataError("mass balance needs at least 2 records")
    steps = np.diff(traj.times)
    if not (np.allclose(steps[:-1], steps[0], rtol=1e-9, atol=1e-12)
            and steps[-1] - steps[0] <= 1e-12 + 1e-9 * steps[0]):
        raise ConfigurationError("mass balance requires a uniform record "
                                 "stride (the last may be shorter)")
    h, n = kernel.grid.h, kernel.grid.n
    # per-parent net source rate: the integral of beta(., y) ds less mu
    net = kernel.column_sums() * h - params.mu
    ends = traj.records[1:]             # the state at each stride's end
    outflow = (params.gamma1_edges[-1] * ends[:, n - 1]
               + params.gamma2_edges[-1] * ends[:, -1])
    drift = (np.diff(row_integrals(traj.records, traj.grid)) / steps
             - (ends[:, :n] @ net * h - outflow))
    return MassBalanceReport(drift=drift,
                             max_abs_drift=float(np.abs(drift).max()),
                             outflow=outflow)
