"""Independent numerical oracles used only by the test suite.

These deliberately take different routes from the production code.  The
time-domain correlation function C(t) (``bath_correlation``: frequency
quadrature, closed form at T = 0) lives only here, because production
integrates in the spectral form and never evaluates C(t); the tests check it
against a Matsubara-series closed form.  Window coefficients come one at a
time from a spectral-domain single integral (scipy.integrate.quad) instead
of one vectorised fixed-rule integral over all coefficients; and the
time-domain eta table integrates C(t - t') over the windows by nested Gauss
rules, with C(t) itself from its own frequency quadrature (or closed form at
T = 0), instead of moving the window integrals inside the frequency
integral.  The path-sum reference visits every forward-backward path one at
a time and writes its weight out from the definition, instead of building
weights from factor matrices in blocks.  The convolution reference rebuilds
a sequence from its kernels one matrix product at a time, instead of one
stacked product per step.  The per-cell CSV writer formats one float at a
time, instead of one block of rows per call.
"""

import cmath
import itertools
import math

import numpy as np
from scipy.integrate import quad

from ifkernels.bath import (
    OMEGA_CUTOFF_FACTOR,
    OMEGA_NODES_MAX,
    OMEGA_NODES_START,
    OMEGA_RTOL,
    BathSpec,
    _gauss_nodes,
    eta_table_from_correlation,
)
from ifkernels.errors import QuadratureError


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

    kw = dict(limit=400, epsabs=1e-14, epsrel=1e-13)
    re = quad(f_re, 0.0, 40.0 * wc, **kw)[0]
    im = quad(f_im, 0.0, 40.0 * wc, **kw)[0]
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


def time_domain_eta_table(bath, grid, splitting):
    """The physical-bath eta table by time-domain window quadrature of C(t)."""

    def corr(tau):
        return np.asarray(bath_correlation(bath, tau), dtype=complex)

    return eta_table_from_correlation(corr, grid, splitting)


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
    """Map of ``steps`` steps by visiting every forward-backward path one at a time.

    The weight of the path (f_0, b_0), ..., (f_N, b_N) is
    prod_j U[f_j, f_{j-1}] conj(U[b_j, b_{j-1}]) times
    exp(-sum_{k >= k'} (s_{f_k} - s_{b_k}) (eta(k, k') s_{f_k'} - eta(k, k')* s_{b_k'})),
    with U = exp(-i H dt) by Taylor series.  ``measured_end=False`` gives the
    auxiliary map (interior coefficients at N).  sym_sys full maps are the
    half-step-dressed auxiliary of one step fewer.
    """
    splitting = table.splitting
    if splitting == "sym_sys" and measured_end:
        h = np.kron(expm_series(sys.hamiltonian, 0.5 * dt),
                    expm_series(sys.hamiltonian, 0.5 * dt).conj())
        inner = path_sum_reference(sys, dt, table, steps - 1, measured_end=False)
        return h @ inner @ h
    n = sys.n
    s = sys.coupling_eigenvalues
    u = expm_series(sys.hamiltonian, dt)
    eta = {
        (k, kp): complex(_path_eta(table, splitting, steps, k, kp, measured_end))
        for k in range(steps + 1)
        for kp in range(k + 1)
    }
    out = np.zeros((n * n, n * n), dtype=complex)
    for fwd in itertools.product(range(n), repeat=steps + 1):
        for bwd in itertools.product(range(n), repeat=steps + 1):
            amp = 1.0 + 0.0j
            for j in range(1, steps + 1):
                amp *= u[fwd[j], fwd[j - 1]] * u[bwd[j], bwd[j - 1]].conjugate()
            phase = 0.0j
            for (k, kp), e in eta.items():
                ds = s[fwd[k]] - s[bwd[k]]
                phase += ds * (e * s[fwd[kp]] - e.conjugate() * s[bwd[kp]])
            out[fwd[-1] * n + bwd[-1], fwd[0] * n + bwd[0]] += amp * cmath.exp(-phase)
    return out


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
