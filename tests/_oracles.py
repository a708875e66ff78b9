"""Independent numerical oracles: dense-matrix references and cone cubature.

Everything here deliberately avoids the package's own spectral code paths:
dense checks go through numpy.linalg, integrals through tensor Gauss rules.
"""

import math

import numpy as np

from symcone.algebra import Algebra, Element
from symcone.wishart import WishartParams, log_density


def dense_jordan_product(xm, ym):
    return (xm @ ym + ym @ xm) / 2.0


def sym2_cone_integral(fn, n_radial=32, n_angular=24):
    """Integrate ``fn(coords)`` over the positive-definite cone of 2x2 real
    symmetric matrices in the package's coordinates (y1, y2, sqrt(2) y12).

    Substituting y12 = sin(theta) * sqrt(y1 y2) maps the cone onto
    (0, inf)^2 x (-pi/2, pi/2); radial directions use Gauss-Laguerre (the
    e^{-y} weight is divided back out in log space), the angle is handled by
    Gauss-Legendre.  ``fn`` must return log values.
    """
    xs, wx = np.polynomial.laguerre.laggauss(n_radial)
    log_wx = np.log(wx) + xs
    th, wt = np.polynomial.legendre.leggauss(n_angular)
    th = th * (math.pi / 2.0)
    wt = wt * (math.pi / 2.0)
    log_wt = np.log(wt) + np.log(np.cos(th))

    total = 0.0
    for i in range(n_radial):
        y1 = xs[i]
        for j in range(n_radial):
            y2 = xs[j]
            # coords carry sqrt(2) * y12 and y12 = sin(th) sqrt(y1 y2)
            base = log_wx[i] + log_wx[j] + 0.5 * math.log(2.0 * y1 * y2)
            c3 = np.sin(th) * math.sqrt(2.0 * y1 * y2)
            for k in range(n_angular):
                log_value = fn(np.array([y1, y2, c3[k]]))
                if log_value == float("-inf"):
                    continue
                total += math.exp(base + log_wt[k] + log_value)
    return total


def sym2_wishart_normalization(p, n_radial=32, n_angular=24):
    algebra = Algebra.sym_real(2)
    params = WishartParams.isotropic(algebra, p)
    return sym2_cone_integral(
        lambda coords: log_density(params, Element(algebra, coords)),
        n_radial=n_radial,
        n_angular=n_angular,
    )


def lorentz2_wishart_normalization(p, n_radial=40, n_angular=32, n_phi=8):
    """Same check on the three-dimensional Lorentz cone, which pins down the
    dot-product normalization of its multivariate gamma."""
    algebra = Algebra.lorentz(2)
    params = WishartParams.isotropic(algebra, p)
    xs, wx = np.polynomial.laguerre.laggauss(n_radial)
    log_wx = np.log(wx) + xs
    th, wt = np.polynomial.legendre.leggauss(n_angular)
    th = (th + 1.0) * (math.pi / 4.0)  # (0, pi/2); rho = x0 sin(theta)
    wt = wt * (math.pi / 4.0)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    w_phi = 2.0 * math.pi / n_phi

    total = 0.0
    for i in range(n_radial):
        x0 = xs[i]
        for k in range(n_angular):
            rho = x0 * math.sin(th[k])
            jacobian = x0 * math.cos(th[k]) * rho
            if jacobian == 0.0:
                continue
            for phi in phis:
                coords = np.array([x0, rho * math.cos(phi), rho * math.sin(phi)])
                log_value = log_density(params, Element(algebra, coords))
                if log_value == float("-inf"):
                    continue
                total += math.exp(log_wx[i] + log_value) * wt[k] * jacobian * w_phi
    return total


def naive_distance_correlation(x, y):
    """Textbook double-loop V-statistic, as an oracle for the vectorized one."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 1:
        x = x.T
    if y.shape[0] == 1:
        y = y.T
    n = x.shape[0]
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = math.sqrt(((x[i] - x[j]) ** 2).sum())
            b[i, j] = math.sqrt(((y[i] - y[j]) ** 2).sum())
    a = a - a.mean(0)[None, :] - a.mean(1)[:, None] + a.mean()
    b = b - b.mean(0)[None, :] - b.mean(1)[:, None] + b.mean()
    dcov2 = (a * b).mean()
    dvar_x = (a * a).mean()
    dvar_y = (b * b).mean()
    if dvar_x * dvar_y <= 0.0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0) / math.sqrt(dvar_x * dvar_y))


def full_gather_permutation_test(x, y, n_permutations, gen):
    """The permutation test as it read before the block-triangle kernel:
    separate row and column means, and each permutation gathers the whole
    permuted matrix.  Returns (statistic, p-value)."""

    def centred(z):
        z = np.asarray(z, dtype=float).reshape(len(z), -1)
        d = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1))
        return d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()

    a, b = centred(x), centred(y)
    observed = np.mean(a * b)
    exceed = 0
    for _ in range(n_permutations):
        pi = gen.permutation(len(a))
        if np.mean(a * b[pi[:, None], pi[None, :]]) >= observed:
            exceed += 1
    denom = math.sqrt(np.mean(a * a) * np.mean(b * b))
    statistic = math.sqrt(max(observed, 0.0) / denom) if denom > 0.0 else 0.0
    return statistic, (1.0 + exceed) / (1.0 + n_permutations)
