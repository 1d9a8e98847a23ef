"""Model-free threshold inference via a mixture over T (Sec. 3.7).

The histogram of estimated attempts ``T_l`` shows peaks at genome
occurrences alpha = 0, 1, 2, ...  (Fig. 3.3).  We fit

    T ~ pi_0 Gamma(a, b)  +  sum_g pi_g Normal(mu_g, s2_g)  +  pi_u Uniform

with the Negative-Binomial-motivated tying ``mu_g = g c1``,
``s2_g = g c2`` (the thesis's ``mu_g = g mu p/(1-p)``,
``s2_g = g mu p/(1-p)^2`` with ``c1 = mu p/(1-p)``,
``c2 = mu p/(1-p)^2``; note ``c2 >= c1`` iff ``p`` is valid).  The
Gamma component captures k-mers absent from the genome; the chosen
threshold separates it from the alpha=1 peak.  The number of Normal
components G is selected by BIC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import digamma, gammaln


@dataclass
class MixtureFit:
    """Fitted threshold mixture."""

    weights: np.ndarray  # (G + 2,): gamma, G normals, uniform
    gamma_shape: float
    gamma_rate: float
    c1: float  # per-copy mean increment  (mu_g = g * c1)
    c2: float  # per-copy variance increment (s2_g = g * c2)
    n_groups: int
    max_t: float
    log_likelihood: float
    bic: float

    @property
    def coverage_peak(self) -> float:
        """Estimated T of a single-copy k-mer (the alpha=1 peak)."""
        return self.c1

    def component_log_densities(self, t: np.ndarray) -> np.ndarray:
        """``(len(t), G+2)`` log densities of every component."""
        t = np.asarray(t, dtype=np.float64)
        G = self.n_groups
        out = np.full((t.size, G + 2), -np.inf)
        pos = t > 0
        a, b = self.gamma_shape, self.gamma_rate
        out[pos, 0] = (
            a * np.log(b) - gammaln(a) + (a - 1.0) * np.log(t[pos]) - b * t[pos]
        )
        for g in range(1, G + 1):
            mu = g * self.c1
            var = max(g * self.c2, 1e-12)
            out[:, g] = -0.5 * np.log(2 * np.pi * var) - (t - mu) ** 2 / (2 * var)
        out[:, G + 1] = -np.log(max(self.max_t, 1e-12))
        return out

    def posteriors(self, t: np.ndarray) -> np.ndarray:
        logd = self.component_log_densities(t) + np.log(
            np.maximum(self.weights, 1e-300)
        )
        logd -= logd.max(axis=1, keepdims=True)
        d = np.exp(logd)
        return d / d.sum(axis=1, keepdims=True)

    def error_posterior(self, t: np.ndarray) -> np.ndarray:
        """P(k-mer absent from genome | T) — the Gamma component."""
        return self.posteriors(t)[:, 0]

    @property
    def gamma_mean(self) -> float:
        """Mean of the error (Gamma) component."""
        return self.gamma_shape / max(self.gamma_rate, 1e-12)

    def threshold(self) -> float:
        """Boundary between the error mode and the single-copy peak.

        The last grid point below c1 where the error posterior still
        reaches 0.5 marks the upper edge of the error mass; the
        threshold sits one step past it.  (The posterior can start
        below 0.5 at T -> 0 when the fitted Gamma is sharply peaked,
        so the first-crossing rule would misfire.)
        """
        grid = np.linspace(1e-6, max(self.c1, 1.0), 512)
        post = self.error_posterior(grid)
        above = np.flatnonzero(post >= 0.5)
        if above.size == 0:
            return float(grid[0])
        last = int(above[-1])
        if last + 1 < grid.size:
            return float(grid[last + 1])
        return float(grid[-1])


def _fit_gamma_weighted(t: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Weighted Gamma MLE: solve ``ln a - psi(a) = ln(mean) - mean(ln)``."""
    wsum = w.sum()
    if wsum <= 0:
        return 1.0, 1.0
    mean = float(np.dot(w, t) / wsum)
    mean_log = float(np.dot(w, np.log(np.maximum(t, 1e-12))) / wsum)
    s = np.log(max(mean, 1e-12)) - mean_log
    if s <= 1e-10:
        return 100.0, 100.0 / max(mean, 1e-12)

    def f(a):
        return np.log(a) - digamma(a) - s

    lo, hi = 1e-3, 1e3
    try:
        a = brentq(f, lo, hi)
    except ValueError:
        a = (3 - s + np.sqrt((s - 3) ** 2 + 24 * s)) / (12 * s)
    b = a / max(mean, 1e-12)
    return float(a), float(b)


def fit_mixture(
    t_values: np.ndarray,
    n_groups: int = 2,
    max_iter: int = 200,
    tol: float = 1e-7,
    init_c1: float | None = None,
) -> MixtureFit:
    """EM fit of the Sec. 3.7 mixture with a fixed number of groups.

    ``init_c1`` seeds the coverage-peak location; when the error spike
    dominates the histogram the EM is sensitive to it, so
    :func:`infer_threshold` restarts from several candidates and keeps
    the best likelihood.
    """
    t = np.asarray(t_values, dtype=np.float64)
    t = np.maximum(t, 1e-9)
    n = t.size
    if n < 10:
        raise ValueError("need at least 10 values to fit the mixture")
    G = int(n_groups)
    max_t = float(t.max())

    if init_c1 is None:
        upper = t[t > np.median(t)]
        init_c1 = float(np.median(upper)) if upper.size else max(1.0, t.mean())
    c1 = max(float(init_c1), 1e-6)
    c2 = max(c1, 1.0)
    a, b = 1.0, 1.0
    weights = np.full(G + 2, 1.0 / (G + 2))

    fit = MixtureFit(
        weights=weights,
        gamma_shape=a,
        gamma_rate=b,
        c1=c1,
        c2=c2,
        n_groups=G,
        max_t=max_t,
        log_likelihood=-np.inf,
        bic=np.inf,
    )
    prev_ll = -np.inf
    for _ in range(max_iter):
        logd = fit.component_log_densities(t) + np.log(
            np.maximum(fit.weights, 1e-300)
        )
        m = logd.max(axis=1, keepdims=True)
        dens = np.exp(logd - m)
        total = dens.sum(axis=1, keepdims=True)
        ll = float((np.log(total) + m).sum())
        z = dens / total

        weights = z.mean(axis=0)
        a, b = _fit_gamma_weighted(t, z[:, 0])
        # Tied normal updates (closed form, see module docstring).
        gs = np.arange(1, G + 1, dtype=np.float64)
        zn = z[:, 1 : G + 1]
        denom_c1 = float((zn * gs[None, :]).sum())
        if denom_c1 > 0:
            c1 = float((zn * t[:, None]).sum() / denom_c1)
            resid = (t[:, None] - gs[None, :] * c1) ** 2 / gs[None, :]
            c2 = float((zn * resid).sum() / max(zn.sum(), 1e-300))
            # The Negative-Binomial tying requires variance >= mean
            # (c2 = c1/(1-p) with p in (0,1)); enforcing it also stops
            # a Normal component from collapsing onto the error spike.
            c2 = max(c2, c1, 1e-6)
        fit = MixtureFit(
            weights=weights,
            gamma_shape=a,
            gamma_rate=b,
            c1=c1,
            c2=c2,
            n_groups=G,
            max_t=max_t,
            log_likelihood=ll,
            bic=np.inf,
        )
        if abs(ll - prev_ll) <= tol * (abs(prev_ll) + 1.0):
            break
        prev_ll = ll

    n_params = (G + 1) + 2 + 2  # weights (free), gamma(a, b), (c1, c2)
    bic = -2.0 * fit.log_likelihood + n_params * np.log(n)
    return MixtureFit(
        weights=fit.weights,
        gamma_shape=fit.gamma_shape,
        gamma_rate=fit.gamma_rate,
        c1=fit.c1,
        c2=fit.c2,
        n_groups=G,
        max_t=max_t,
        log_likelihood=fit.log_likelihood,
        bic=bic,
    )


def infer_threshold(
    t_values: np.ndarray,
    group_range: range = range(1, 4),
    max_iter: int = 200,
) -> tuple[float, MixtureFit]:
    """Choose G by BIC over multiple restarts (Sec. 3.7).

    Restarts seed the coverage-peak at several quantiles of T so the
    fit escapes the error spike that dominates high-error datasets;
    within a G the best log-likelihood wins, across G the best BIC.
    """
    t = np.asarray(t_values, dtype=np.float64)
    positive = t[t > 1e-6]
    if positive.size == 0:
        positive = np.ones(1)
    inits = sorted(
        set(np.percentile(positive, (50, 75, 90, 97)).tolist())
        | {2.0 * float(positive.mean())}
    )
    def identifiable(fit: MixtureFit) -> bool:
        # The Gamma component must model the LOW (error) mode: a fit
        # whose coverage peak sits on top of the error spike explains
        # the histogram but inverts the components' roles.
        return fit.c1 > 2.0 * fit.gamma_mean

    best: MixtureFit | None = None
    fallback: MixtureFit | None = None
    for G in group_range:
        best_g: MixtureFit | None = None
        for c1 in inits:
            if c1 <= 0:
                continue
            fit = fit_mixture(
                t_values, n_groups=G, max_iter=max_iter, init_c1=c1
            )
            if fallback is None or fit.log_likelihood > fallback.log_likelihood:
                fallback = fit
            if not identifiable(fit):
                continue
            if best_g is None or fit.log_likelihood > best_g.log_likelihood:
                best_g = fit
        if best_g is None:
            continue
        if best is None or best_g.bic < best.bic:
            best = best_g
    if best is None:
        best = fallback
    assert best is not None
    return best.threshold(), best
