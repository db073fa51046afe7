"""Independent numerical oracles used only by the test suite.

These deliberately take different routes from the production code.  The
time-domain correlation function C(t) (``bath_correlation``: frequency
quadrature, closed form at T = 0) lives only here, because production
takes every coefficient from the closed-form second integral Q of C and
never evaluates C(t); the tests check it against a Matsubara-series closed
form.  Window coefficients come one at a time from a spectral-domain single
integral (scipy.integrate.quad) instead of second differences of Q; and the
time-domain eta table integrates C(t - t') by nested Gauss rules over windows
it lays out itself, with C(t) itself from its own frequency quadrature (or
closed form at T = 0).  The window layout of each splitting lives only here:
production never forms a window, it takes second differences of Q on one
half-step grid.  The package has no quadrature: every Gauss-Legendre rule,
from the at most 192 nodes of the window rules to the 32768 of the
frequency quadrature, comes from Newton's method on P_order here.  The
time-domain route also takes synthetic correlation functions: the compact
support of ``bump_correlation`` makes truncated kernel propagation exact,
which isolates the discretization orders.  The path-sum reference gives
every forward-backward path its own weight, written out from the
definition, instead of building weights from factor matrices in blocks.
The convolution reference rebuilds a sequence from its kernels one matrix
product at a time, instead of one stacked product per step, and the
density-matrix recurrence runs the kernels on vectors one step at a time,
instead of by chunks of companion-matrix rows.
The per-cell CSV writer formats one float at a time, instead of one block
of rows per call.  The transfer tensors are also written out as their
expansion into 2^(k-1) signed products of maps, from the recursion run on
symbolic polynomials, instead of solved by back-substitution.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from ifkernels.bath import BathSpec, EtaTable
from ifkernels.kernels import propagate_blocks


class QuadratureError(RuntimeError):
    """An oracle quadrature did not converge ("quadrature_failed")."""


def _legendre(order: int, x: np.ndarray):
    """P_order(x) and its derivative by the three-term recurrence (|x| < 1)."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, order):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=64)
def _leggauss(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_order from x_k = cos(pi (4k - 1) / (4 order + 2)),
    for the nonnegative half of the nodes, mirrored; the weights are
    2 / ((1 - x^2) P'(x)^2).  O(order) memory and O(order^2) work, where
    the companion-matrix eigensolve takes an order x order matrix and
    O(order^3) work.
    """
    k = np.arange(1, (order + 1) // 2 + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * order + 2))
    for _ in range(20):  # 3 to 5 steps from these guesses up to 32768 nodes
        p, dp = _legendre(order, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:  # rounding level: steps settle near 1e-16
            break
    else:
        raise QuadratureError(f"quadrature_failed: Gauss-Legendre nodes of order {order}")
    _, dp = _legendre(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    mid = order % 2  # odd orders: the last node of the half is the origin
    if mid:
        x[-1] = 0.0
    return (
        np.concatenate((-x, x[::-1][mid:])),
        np.concatenate((w, w[::-1][mid:])),
    )


def _gauss_nodes(order: int, a: float, b: float):
    x, w = _leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# Frequency quadrature of C(t): node-doubling Gauss rule on [0, 40 omega_c].
OMEGA_CUTOFF_FACTOR = 40.0
OMEGA_NODES_START = 128
OMEGA_NODES_MAX = 32768
OMEGA_RTOL = 1e-11


def matsubara_correlation(alpha, wc, beta, t, nsum=2000):
    """C(t) for the ohmic-exponential bath via the Matsubara pole series."""
    base = wc**2 / (1.0 + 1j * wc * t) ** 2
    if np.isinf(beta):
        return 0.5 * alpha * base
    c = 1.0 / wc - 1j * t
    s = sum((c + n * beta) ** -2 for n in range(1, nsum + 1))
    z = c + (nsum + 1) * beta
    s += 1.0 / (beta * z) + 0.5 * z**-2 + (beta / 6.0) * z**-3
    return 0.5 * alpha * (base + 2 * s.real)


def _spectral_integral(alpha, wc, beta, phi):
    """(1/pi) * int J(w) [coth(beta w/2) Re phi - i Im phi] dw."""

    def j(w):
        return 0.5 * np.pi * alpha * w * np.exp(-w / wc)

    def coth(w):
        if np.isinf(beta):
            return 1.0
        return 1.0 / np.tanh(0.5 * beta * w)  # cosh/sinh overflows at large beta w

    def f_re(w):
        return (1.0 / np.pi) * j(w) * coth(w) * phi(w).real

    def f_im(w):
        return -(1.0 / np.pi) * j(w) * phi(w).imag

    # 32 equal pieces, one quad each: at separations of about 40 the window
    # phase has some 1300 periods on [0, 40 omega_c], more than one call's
    # subdivision limit resolves
    edges = np.linspace(0.0, 40.0 * wc, 33)
    kw = dict(limit=400, epsabs=1e-14 / 32, epsrel=1e-13)
    re = sum(quad(f_re, a, b, **kw)[0] for a, b in zip(edges[:-1], edges[1:]))
    im = sum(quad(f_im, a, b, **kw)[0] for a, b in zip(edges[:-1], edges[1:]))
    return complex(re, im)


def bath_correlation(bath: BathSpec, t, rtol: float = OMEGA_RTOL):
    """Bath correlation function C(t); accepts a scalar or an array of times.

    Zero temperature uses the closed form; finite temperature integrates over
    frequency on [0, 40 omega_c] with a node-doubling Gauss rule until the
    relative change drops below ``rtol``, raising QuadratureError on failure.
    """
    sd = bath.spectral_density
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    alpha, wc = sd.alpha, sd.omega_c
    if alpha == 0.0:
        out = np.zeros(t_arr.shape, dtype=complex)
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    if math.isinf(bath.beta):
        out = 0.5 * alpha * wc**2 / (1.0 + 1j * wc * t_arr) ** 2
    else:
        # chunk so the node-by-time phase arrays stay bounded in memory
        parts = [
            _correlation_quadrature(alpha, wc, bath.beta, t_arr[i : i + 4096], rtol)
            for i in range(0, t_arr.size, 4096)
        ]
        out = np.concatenate(parts) if parts else np.zeros(0, dtype=complex)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def _correlation_quadrature(alpha, wc, beta, t_arr, rtol):
    big_w = OMEGA_CUTOFF_FACTOR * wc
    prev = None
    n = OMEGA_NODES_START
    while n <= OMEGA_NODES_MAX:
        omega, w = _gauss_nodes(n, 0.0, big_w)
        # (alpha/2) * w * exp(-w/wc) * [coth(beta w/2) cos(wt) - i sin(wt)]
        coth = 1.0 / np.tanh(0.5 * beta * omega)
        base = 0.5 * alpha * omega * np.exp(-omega / wc) * w
        phase = np.outer(t_arr, omega)
        vals = np.cos(phase) @ (base * coth) - 1j * (np.sin(phase) @ base)
        if prev is not None:
            scale = max(np.max(np.abs(vals)), 1e-30)
            if np.max(np.abs(vals - prev)) <= rtol * scale:
                return vals
        prev = vals
        n *= 2
    raise QuadratureError("quadrature_failed: correlation integral did not converge")


# Window quadrature: the Gauss order grows until two values agree to WINDOW_RTOL.
WINDOW_GAUSS_ORDERS = (24, 32, 48, 64, 96, 128, 192)
WINDOW_RTOL = 1e-12


def _window_integral(corr, win_a, win_b=None):
    """Integral of C(t - t') over t in win_a and t' in win_b (disjoint windows),
    or over the triangle t' < t within win_a if there is no win_b."""
    a0, a1 = win_a
    prev = None
    for order in WINDOW_GAUSS_ORDERS:
        if win_b is None:
            # t - t' = u (1 - s) for u in [0, a1 - a0] and s in [0, 1], Jacobian u
            u, wu = _gauss_nodes(order, 0.0, a1 - a0)
            s, wy = _gauss_nodes(order, 0.0, 1.0)
            args, wx = np.multiply.outer(u, 1.0 - s), wu * u
        else:
            x, wx = _gauss_nodes(order, a0, a1)
            y, wy = _gauss_nodes(order, *win_b)
            args = np.subtract.outer(x, y)
        val = wx @ corr(args.ravel()).reshape(order, order) @ wy
        if prev is not None and abs(val - prev) <= WINDOW_RTOL * max(1.0, abs(val)):
            return complex(val)
        prev = val
    raise QuadratureError("quadrature_failed: window integral did not converge")


def _window_layout(grid, splitting):
    """The windows of every stored coefficient, as the bath module assigns them.

    Returns (interior, right): for m = 0..N, the window of the self triangle
    (m = 0) or the (later, earlier) windows of a pair m apart.  ``right`` is
    None under sym_sys and asym, whose measured end reads interior values.
    """
    dt, seps = grid.dt, range(1, grid.n_steps + 1)
    if splitting != "sym_env":
        # uniform windows [k dt, (k+1) dt)
        return [((0.0, dt),)] + [((m * dt, m * dt + dt), (0.0, dt)) for m in seps], None
    # centered windows; the measured end owns the trailing half window
    h = 0.5 * dt
    interior = [((-h, h),)] + [((m * dt - h, m * dt + h), (-h, h)) for m in seps]
    return interior, [((-h, 0.0),)] + [((m * dt - h, m * dt), (-h, h)) for m in seps]


def eta_table_from_correlation(corr, grid, splitting):
    """An EtaTable by time-domain window quadrature of any correlation function.

    ``corr`` takes an array of time differences >= 0 and returns the complex
    C values; the windows are those of ``_window_layout``.
    """
    interior, right = _window_layout(grid, splitting)
    interior = [_window_integral(corr, *win) for win in interior]
    right = interior if right is None else [_window_integral(corr, *win) for win in right]
    return EtaTable(splitting, grid.dt, interior, right)


def time_domain_eta_table(bath, grid, splitting):
    """The physical-bath eta table by time-domain window quadrature of C(t)."""

    def corr(tau):
        return np.asarray(bath_correlation(bath, tau), dtype=complex)

    return eta_table_from_correlation(corr, grid, splitting)


def bump_correlation(re_amp, im_amp, support):
    """An infinitely smooth correlation function supported on [0, support].

    C(u) = (re_amp - i im_amp u / support) * exp(1 - 1 / (1 - (u/support)^2))
    for 0 <= u < support and 0 beyond; every derivative vanishes at the
    support edge and Im C(0) = 0.  Influence coefficients built from it
    vanish identically beyond a known separation, which makes truncated
    kernel propagation exact: the discretization-order studies use it.
    """

    def corr(tau):
        x = np.asarray(tau, dtype=float) / support
        inside = (x >= 0.0) & (x < 1.0)
        xc = np.where(inside, x, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            profile = np.where(inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - xc * xc, 1e-300)), 0.0)
        return ((re_amp - 1j * im_amp * xc) * profile).astype(complex)

    return corr


def spectral_eta_pair(alpha, wc, beta, win_a, win_b):
    """eta over two disjoint windows via the spectral-domain form."""

    def hatw(w, a, b):
        return (np.exp(1j * w * b) - np.exp(1j * w * a)) / (1j * w)

    def phi(w):
        return hatw(w, *win_a) * np.conj(hatw(w, *win_b))

    return _spectral_integral(alpha, wc, beta, phi)


def spectral_eta_self(alpha, wc, beta, win):
    """eta over the triangle t' < t within one window, spectral-domain form."""
    width = win[1] - win[0]

    def phi(w):
        return (1.0 + 1j * w * width - np.exp(1j * w * width)) / w**2

    return _spectral_integral(alpha, wc, beta, phi)


def expm_series(h, tau, terms=80):
    """exp(-i h tau) by plain Taylor summation."""
    h = np.asarray(h, dtype=complex)
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ (-1j * tau * h) / k
        acc = acc + term
    return acc


def _path_eta(table, splitting, steps, k, kp, measured_end):
    """eta(k, k') of a ``steps``-step path; the measured end N is flavored or not."""
    if splitting == "asym" and kp == 0:
        return 0.0  # the initial point carries no influence factors
    if splitting == "sym_env" and measured_end and k == steps:
        return table.right[k - kp]  # the measured end owns the trailing half window
    return table.interior[k - kp]


def path_sum_reference(sys, dt, table, steps, measured_end=True):
    """Map of ``steps`` steps by visiting every forward-backward path.

    The weight of the path (f_0, b_0), ..., (f_N, b_N) is
    prod_j U[f_j, f_{j-1}] conj(U[b_j, b_{j-1}]) times
    exp(-sum_{k >= k'} (s_{f_k} - s_{b_k}) (eta(k, k') s_{f_k'} - eta(k, k')* s_{b_k'})),
    with U = exp(-i H dt) by Taylor series.  ``measured_end=False`` gives the
    auxiliary map (interior coefficients at N).  sym_sys full maps are the
    half-step-dressed auxiliary of one step fewer.  Every (forward, backward)
    pair gets its own weight; numpy evaluates them for a chunk of forward
    paths against all backward paths at a time, so memory stays at a few MiB.
    """
    splitting = table.splitting
    if splitting == "sym_sys" and measured_end:
        h = np.kron(expm_series(sys.hamiltonian, 0.5 * dt),
                    expm_series(sys.hamiltonian, 0.5 * dt).conj())
        inner = path_sum_reference(sys, dt, table, steps - 1, measured_end=False)
        return h @ inner @ h
    n = sys.n
    s = np.asarray(sys.coupling_eigenvalues, dtype=float)
    u = expm_series(sys.hamiltonian, dt)
    eta = np.zeros((steps + 1, steps + 1), dtype=complex)  # eta[k, k'], zero for k' > k
    for k in range(steps + 1):
        for kp in range(k + 1):
            eta[k, kp] = _path_eta(table, splitting, steps, k, kp, measured_end)
    paths = np.array(list(itertools.product(range(n), repeat=steps + 1)))  # one row per path
    hops = u[paths[:, 1:], paths[:, :-1]]  # U[a_j, a_{j-1}] along each path
    bwd_hops = hops.conj()
    vals = s[paths]
    bwd_sums = vals @ eta.conj().T  # sum_k' eta(k, k')* s_{b_k'}, one column per k
    out = np.zeros(n**4, dtype=complex)
    chunk = max(1, (1 << 16) // (len(paths) * (steps + 1)))
    for lo in range(0, len(paths), chunk):
        f = slice(lo, lo + chunk)
        amp = np.ones((len(paths[f]), len(paths)), dtype=complex)
        for j in range(steps):
            amp *= hops[f, None, j] * bwd_hops[None, :, j]
        ds = vals[f, None, :] - vals[None, :, :]
        phase = np.einsum("fbk,fbk->fb", ds, (vals[f] @ eta.T)[:, None, :] - bwd_sums[None])
        weight = amp * np.exp(-phase)
        row = paths[f, None, -1] * n + paths[None, :, -1]
        col = paths[f, None, 0] * n + paths[None, :, 0]
        flat = (row * n * n + col).ravel()
        out += np.bincount(flat, weight.real.ravel(), n**4)
        out += 1j * np.bincount(flat, weight.imag.ravel(), n**4)
    return out.reshape(n * n, n * n)


def convolution_reference(a, length, tail=None, b=None):
    """X_1..X_length of X_n = sum_{r=1}^{min(n-1,R)} A_r B_{n-r} + [n <= R] A_n tail.

    One matrix product per term, in a plain double loop; B is X itself
    unless ``b`` is given, and ``tail=None`` is the identity.
    """
    out = []
    for n in range(1, length + 1):
        acc = np.zeros_like(np.asarray(a[0], dtype=complex))
        for r in range(1, min(n - 1, len(a)) + 1):
            acc = acc + a[r - 1] @ (out if b is None else b)[n - r - 1]
        if n <= len(a):
            acc = acc + (a[n - 1] if tail is None else a[n - 1] @ tail)
        out.append(acc)
    return out


def propagate(kernels, horizon):
    """Maps U_1..U_horizon as one (horizon, d, d) array: the engine's blocks on the identity."""
    empty = np.empty((0, kernels.dim, kernels.dim), complex)
    return np.concatenate([empty, *propagate_blocks(kernels, horizon)])


def rho_recurrence(kset, n_steps, rho0):
    """rho_1..rho_{n_steps} as a (n_steps, n, n) array, one step at a time on vectors.

    x_n = sum_{r=1}^{min(n-1, R)} A_r x_{n-r} + [n <= R] A_n tail v runs the
    kernel set's sequence X (aux, or aux G_half for sym_sys, for smatpi; U
    for ttm) on the vector v = vec(rho_0), with the stored tail aux0 where
    the set has one and the identity otherwise; rho_n is x_n itself (ttm)
    or sum_r T_r x_{n-r} + [n <= R] T_n tail v (smatpi).  One matrix-vector
    product per term.
    """
    n = np.asarray(rho0).shape[0]
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    tail = v if kset.aux0 is None else kset.aux0 @ v

    def convolve(mats, xs, step):
        acc = np.zeros_like(v)
        for r in range(1, min(step - 1, len(mats)) + 1):
            acc = acc + mats[r - 1] @ xs[step - r - 1]
        return acc + mats[step - 1] @ tail if step <= len(mats) else acc

    xs, rhos = [], []
    for step in range(1, n_steps + 1):
        xs.append(convolve(kset.midpoint, xs, step))
        if kset.flavor == "ttm":
            rhos.append(xs[-1])
        else:
            rhos.append(convolve(kset.termination, xs, step))
    return np.array(rhos).reshape(n_steps, n, n)


def eta_truncated(table, max_separation):
    """Copy of a table with every coefficient beyond ``max_separation`` zeroed.

    A synthetic finite-memory bath ("the IF memory spans max_separation time
    steps") for the kernel nullity dichotomy.
    """
    keep = np.arange(table.horizon + 1) <= max_separation
    interior = np.where(keep, table.interior, 0.0j)
    right = interior if table.right is table.interior else np.where(keep, table.right, 0.0j)
    return EtaTable(table.splitting, table.dt, interior, right)


def term_census(k):
    """Term counts of ttm_terms_bruteforce(k) grouped by number of factors."""
    census = {}
    for factors in ttm_terms_bruteforce(k):
        census[len(factors)] = census.get(len(factors), 0) + 1
    return dict(sorted(census.items()))


def per_cell_csv(dt, tables):
    """CSV text of rows ``step, step * dt, re/im of each table's matrix``.

    ``tables`` are (prefix, matrices) pairs with one matrix per step 0, 1, ...;
    each matrix adds re_<prefix>_i_j, im_<prefix>_i_j columns, row-major.
    Every float goes through its own ``format(float(x), ".17g")`` call.
    """
    header = ["step", "t"]
    for prefix, mats in tables:
        dim = np.asarray(mats[0]).shape[0]
        for i in range(dim):
            for j in range(dim):
                header += [f"re_{prefix}_{i}_{j}", f"im_{prefix}_{i}_{j}"]
    lines = [",".join(header)]
    for step in range(len(tables[0][1])):
        row = [str(step), format(float(step * dt), ".17g")]
        for _, mats in tables:
            for v in np.asarray(mats[step]).ravel():
                row += [format(float(v.real), ".17g"), format(float(v.imag), ".17g")]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def per_element_kernel_block(name, mats):
    """Lines of one kernel-file block, one numpy scalar and ``repr`` at a time."""
    lines = [f"matrices = {name}"]
    for k, mat in enumerate(mats, start=1):
        m = np.asarray(mat)
        for row in range(m.shape[0]):
            for col in range(m.shape[1]):
                v = m[row, col]
                lines.append(f"{k},{row},{col},{float(v.real)!r},{float(v.imag)!r}")
    return lines


def catalan_recurrence(m):
    """Catalan numbers by the convolution recurrence C_{m+1} = sum C_i C_{m-i}."""
    cs = [1]
    for k in range(m):
        cs.append(sum(cs[i] * cs[k - i] for i in range(k + 1)))
    return cs[m]


def ttm_terms_bruteforce(k):
    """Signed compositions of the transfer-matrix expansion, as a dict.

    Represents T_k as {composition tuple: coefficient} by running the
    recursion on symbolic polynomials.
    """
    expansions = {}
    for kk in range(1, k + 1):
        poly = {(kk,): 1}
        for r in range(1, kk):
            for comp, coeff in expansions[r].items():
                key = comp + (kk - r,)
                poly[key] = poly.get(key, 0) - coeff
        expansions[kk] = poly
    return expansions[k]


def expansion_value(k, maps):
    """T_k as the signed sum over ttm_terms_bruteforce(k) of map products.

    A composition (c_1, ..., c_p) contributes U_{c_1} ... U_{c_p}, in the
    product order of the recursion; ``maps`` holds U_1..U_k.
    """
    out = 0
    for factors, coeff in ttm_terms_bruteforce(k).items():
        prod = maps[factors[0] - 1]
        for j in factors[1:]:
            prod = prod @ maps[j - 1]
        out = out + coeff * prod
    return out
