"""Shared state constructors and independent oracles for the tests."""

import numpy as np

SQ2 = np.sqrt(2.0)


def haar_state(rng, n):
    """Random pure state: normalized complex normal vector."""
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def haar_unitary(rng, d):
    """Random unitary via QR of a complex normal matrix, phases fixed."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_density(rng, d, rank=None):
    """Random density matrix of the given (numerical) rank."""
    rank = d if rank is None else rank
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rand_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = a + a.conj().T
    return h / np.max(np.abs(h))


def bell_state():
    """(|00> + |11>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[[0, 3]] = 1.0 / SQ2
    return psi


def ghz_state():
    """Three-qubit (|000> + |111>)/sqrt(2)."""
    psi = np.zeros(8, dtype=complex)
    psi[[0, 7]] = 1.0 / SQ2
    return psi


def psi1_qutrit():
    """(|11> + |22> + |33>)/sqrt(3) in 1-based ket labels."""
    psi = np.zeros(9, dtype=complex)
    psi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    return psi


def werner_state(w):
    """w |Phi+><Phi+| + (1 - w) I/4."""
    psi = bell_state()
    return w * np.outer(psi, psi.conj()) + (1.0 - w) * np.eye(4) / 4.0


def wootters_concurrence(rho):
    """Independent two-qubit concurrence oracle.

    Uses the spin-flip construction rho (sy x sy) rho^* (sy x sy) with a
    general (non-Hermitian) eigensolver, deliberately not sharing any code
    with the library path.

    Accuracy: about 5e-14 on blocks of full rank, but only about 1.5e-8
    on rank-deficient ones (largest errors seen on blocks of 3x4 states
    under random local unitaries: 6.5e-9 at rank 3, 1.3e-8 at rank 2,
    1.5e-8 at rank 1).  The general eigensolver returns ~1e-17 for the
    zero eigenvalues of the product, and their square roots (~3e-9 each)
    enter x_1 - x_2 - x_3 - x_4.  So compare rank-deficient blocks at
    1e-7, or against a closed form.
    """
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    syy = np.kron(sy, sy)
    r = rho @ syy @ rho.conj() @ syy
    x = np.sort(np.sqrt(np.abs(np.real(np.linalg.eigvals(r)))))[::-1]
    return max(0.0, x[0] - x[1] - x[2] - x[3])


def expi_hermitian(h, angle):
    """exp(i * h * angle) through an explicit eigendecomposition."""
    from uniparam import herm_eig

    w, v = herm_eig(h)
    return (v * np.exp(1j * w * angle)) @ v.conj().T


def ptrace_loops(rho, d_a, d_b, keep_a=True):
    """Partial trace by explicit index contraction (oracle path)."""
    t = rho.reshape(d_a, d_b, d_a, d_b)
    if keep_a:
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for k in range(d_b):
                    out[i, j] += t[i, k, j, k]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                for k in range(d_a):
                    out[i, j] += t[k, i, k, j]
    return out


def pure_sigma_sum(psi, d):
    """Direct generator-pair sum for a pure d x d state (oracle path)."""
    from uniparam import kron, sigma

    total = 0.0
    for ka in range(1, d):
        for la in range(ka + 1, d + 1):
            for kb in range(1, d):
                for lb in range(kb + 1, d + 1):
                    m = kron(sigma(ka, la, d), sigma(kb, lb, d))
                    total += abs(np.vdot(psi, m @ psi.conj())) ** 2
    return total


def nelder_mead_reference(f, start, scale, max_iterations, f_tol, log=None):
    """One Nelder-Mead run from ``start``, one point at a time (oracle path).

    The textbook loop: sort, stop on spread, reflect, then expand,
    accept, contract or shrink.  Returns (x, f(x), steps, converged,
    trace of the best value before each step).  ``log``, when a list,
    receives (step, phase, point) for every evaluated point: step 0 is the
    simplex set-up, and the phases of a step are 0 reflect, 1 expand or
    contract, 2 shrink.
    """
    dim = start.size
    iters = 0

    def ev(x, phase):
        if log is not None:
            log.append((iters, phase, x.copy()))
        return f(x)

    pts = np.tile(start, (dim + 1, 1))
    for i in range(dim):
        pts[i + 1, i] += scale
    fs = np.array([ev(p, 0) for p in pts])
    converged, trace = False, []
    while iters < max_iterations:
        order = np.argsort(fs, kind="stable")
        pts, fs = pts[order], fs[order]
        trace.append(float(fs[0]))
        if fs[-1] - fs[0] < f_tol:
            converged = True
            break
        iters += 1
        centroid = pts[:-1].mean(axis=0)
        xr = centroid + (centroid - pts[-1])
        fr = ev(xr, 0)
        if fr < fs[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = ev(xe, 1)
            pts[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fs[-2]:
            pts[-1], fs[-1] = xr, fr
        else:
            toward = xr if fr < fs[-1] else pts[-1]
            xc = centroid + 0.5 * (toward - centroid)
            fc = ev(xc, 1)
            if fc < min(fr, fs[-1]):
                pts[-1], fs[-1] = xc, fc
            else:
                pts[1:] = pts[0] + 0.5 * (pts[1:] - pts[0])
                fs[1:] = [ev(p, 2) for p in pts[1:]]
    best = int(np.argmin(fs))
    return pts[best].copy(), float(fs[best]), iters, converged, tuple(trace)


def restart_starts(cfg, dim):
    """The starts of the restarts of ``cfg`` over R^dim: zero, then uniform draws from its seed."""
    rng = np.random.default_rng(cfg.seed)
    return [np.zeros(dim)] + [rng.uniform(0.0, 2 * np.pi, dim) for _ in range(cfg.restarts - 1)]


# steps allowed per Nelder-Mead reference run
NELDER_MEAD_MAX_ITERATIONS = 2000


def nelder_mead_restarts(f, dim, cfg, starts=None):
    """One ``nelder_mead_reference`` run of ``f`` from each start (oracle path).

    The starts default to those of ``cfg``'s restarts; each run takes at
    most NELDER_MEAD_MAX_ITERATIONS steps, with the simplex scale and
    tolerance of ``OptimizerConfig``.  Returns an
    ``OptimizerResult``: the first best run's point and value, the summed
    steps, every point evaluated plus one re-evaluation of the result, and
    as ``calls`` the rounds of a lockstep of the runs, in which each live
    run evaluates one (step, phase) group of its points per round.
    """
    import itertools

    from uniparam import OptimizerResult

    runs, rounds, points = [], [], 0
    for start in restart_starts(cfg, dim) if starts is None else starts:
        log = []
        runs.append(nelder_mead_reference(f, np.asarray(start, dtype=float), cfg.simplex_scale,
                                          NELDER_MEAD_MAX_ITERATIONS, cfg.f_tol, log))
        rounds.append(sum(1 for _ in itertools.groupby(log, key=lambda e: e[:2])))
        points += len(log)
    values = [run[1] for run in runs]
    best = values.index(min(values))
    return OptimizerResult(
        values[best], runs[best][0], sum(run[2] for run in runs), len(runs), runs[best][3],
        evaluations=points + 1, restart_values=tuple(values), best_restart=best,
        calls=max(rounds))
