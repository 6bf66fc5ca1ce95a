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


def assert_same_bits(a, b):
    """``a`` and ``b`` have one shape and dtype and the same bytes, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def product_pullback_reference(lam, u, grad, pairs):
    """Angle gradient of Re tr(G† U) by a full conjugation per factor (oracle path).

    The sweep of ``composite._product_pullback`` as first written: every
    factor's trig taken inside the loop, and Z <- F† Z F over all rows and
    columns, whether or not a later factor reads them.
    """
    axes = (-2, -1, *range(lam.ndim - 2))
    z = (grad @ np.swapaxes(u.conj(), -1, -2)).transpose(axes)
    ang = lam.transpose(axes)
    out = np.zeros(ang.shape)
    for m, n in pairs:
        m, n = m - 1, n - 1
        c, s = np.cos(ang[m, n]), np.sin(ang[m, n])
        e = np.exp(1j * ang[n, m])
        out[m, n] = (e * z[m, n]).real - (e.conj() * z[n, m]).real
        out[n, m] = z[n, n].imag
        zm, zn = z[m], z[n]
        z[m], z[n] = c * zm - (s * np.conj(e)) * zn, s * zm + (c * np.conj(e)) * zn
        zm, zn = z[:, m], z[:, n]
        z[:, m], z[:, n] = c * zm - (e * s) * zn, s * zm + (e * c) * zn
    return np.ascontiguousarray(out.transpose(*range(2, out.ndim), 0, 1))


# L^T (sy x sy) is L^T with its columns reversed, times these signs
_FLIP_SIGNS = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real[
    ::-1].diagonal()
_X_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def factor_gradients_reference(factors, x):
    """H with d(X^2) = Re tr(H dL) for each block R = L L†, all taken afresh (oracle path).

    The form the block gradients had before they reused the value pass:
    tau, L^T (sy x sy) and, past two columns, the SVD are recomputed from
    ``factors``, and K is assembled by stacking.
    """
    lt_flip = np.swapaxes(factors, -1, -2)[..., ::-1] * _FLIP_SIGNS
    if factors.shape[-1] == 2:
        (p0, q0), (p1, q1), (p2, q2), (p3, q3) = np.moveaxis(factors, (-2, -1), (0, 1))
        a = 2.0 * (p1 * p2 - p0 * p3)
        b = p1 * q2 + p2 * q1 - p0 * q3 - p3 * q0
        d = 2.0 * (q1 * q2 - q0 * q3)
        det = a * d - b * b
        mag = np.abs(det)
        w = np.where(mag > 0.0, det.conj() / np.where(mag > 0.0, mag, 1.0), 0.0)
        off = b.conj() + w * b
        k = np.stack([np.stack([a.conj() - w * d, off], -1),
                      np.stack([off, d.conj() - w * a], -1)], -2)
        k *= np.where(x > 0.0, 4.0, 0.0)[..., None, None]
        return k @ lt_flip
    u, _, vh = np.linalg.svd(lt_flip @ factors)
    k = (np.swapaxes(vh.conj(), -1, -2) * _X_SIGNS[:factors.shape[-1]]) @ np.swapaxes(
        u.conj(), -1, -2)
    return (2.0 * x[..., None, None]) * (k + np.swapaxes(k, -1, -2)) @ lt_flip


def _basis_reference(w_a, w_b):
    (d_a, m_a), (d_b, m_b) = w_a.shape[-2:], w_b.shape[-2:]
    w = w_a[..., :, None, :, None] * w_b[..., None, :, None, :]
    return w.reshape(w.shape[:-4] + (d_a * d_b, m_a * m_b))


def _blocks_reference(rho, w_a, w_b, idx):
    w = _basis_reference(w_a, w_b)
    rotated = np.swapaxes(w.conj(), -1, -2) @ rho @ w
    return rotated[..., idx[:, :, None], idx[:, None, :]]


def rotated_pullback_reference(rho, w_a, w_b, idx, g):
    """G = rho W (S + S†) of the block gradients ``g``, W rebuilt, S scattered (oracle path)."""
    from uniparam.entanglement import _scatter_add

    w = _basis_reference(w_a, w_b)
    m = w.shape[-1]
    s = _scatter_add(g.reshape(len(g), -1), (idx[:, :, None] * m + idx[:, None, :]).ravel(),
                     m * m).reshape(-1, m, m)
    return rho @ w @ (s + np.swapaxes(s.conj(), -1, -2))


def kind_pullback_reference(state, w_a, w_b, idx):
    """The gradient G on W that ``state.kind``'s pullback gives, recomputed (oracle path).

    Both kinds as first written: W and every block rebuilt, the factors'
    gradients from ``factor_gradients_reference`` and every block scattered,
    the whole rotated space included.
    """
    from uniparam.entanglement import (
        _cholesky_concurrences,
        _concurrences,
        _provably_ppt,
        _scatter_add,
    )

    if state.kind is _cholesky_concurrences:
        blocks = _blocks_reference(state.data, w_a, w_b, idx)
        kept = ~_provably_ppt(blocks) if len(idx) > 1 else ...
        factors = np.linalg.cholesky(blocks[kept])
        g = np.zeros(blocks.shape, dtype=complex)
        h = factor_gradients_reference(factors, _concurrences(factors)[0])
        g[kept] = np.linalg.solve(np.swapaxes(factors.conj(), -1, -2), h) / 2.0
        return rotated_pullback_reference(state.data, w_a, w_b, idx, g)
    psi = state.data
    w = _basis_reference(w_a, w_b)
    f = (np.swapaxes(w.conj(), -1, -2) @ psi)[..., idx, :]
    wide = psi.shape[-1] > 4
    factors = (np.swapaxes(np.linalg.qr(np.swapaxes(f.conj(), -1, -2), mode="r").conj(), -1, -2)
               if wide else f)
    h = factor_gradients_reference(factors, _concurrences(factors)[0])
    if wide:
        h = np.linalg.qr(np.swapaxes(f.conj(), -1, -2))[0] @ h
    h = np.moveaxis(h, -3, -2)
    n_rows, width = h.shape[:2]
    h_cols = _scatter_add(h.reshape(n_rows * width, -1), idx.ravel(), w.shape[-1])
    return psi @ h_cols.reshape(n_rows, width, -1)


def pt_surrogate_gradient_reference(rho, search, v):
    """(N, n) gradient of ``_pt_surrogate(rho, search)`` at rows ``v``, W rebuilt (oracle path)."""
    from uniparam.entanglement import _PT_COLS, _PT_ROWS

    w_a, w_b, back = search.rotations_vjp(v)
    idx = search.seed_idx
    blocks = _blocks_reference(rho, w_a, w_b, idx)[..., _PT_ROWS, _PT_COLS]
    e = np.linalg.eigh(blocks)[1][..., 0]
    m = e[..., :, None] * e[..., None, :].conj()
    return back(rotated_pullback_reference(rho, w_a, w_b, idx, m[..., _PT_ROWS, _PT_COLS]))
