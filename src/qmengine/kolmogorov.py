"""Two-sided one-sample Kolmogorov-Smirnov test: the statistic D_n and its
p-value Pr(D_n >= d), exact except in the tail, where it is 2*Pr(D_n+ >= d).

numpy is the package's only runtime dependency, so what the KS check would
take from ``scipy.stats`` (about a second to import) and ``scipy.special``
is ported or written here.  ``two_sided_test`` computes D_n as
``scipy.stats._stats_py._compute_d`` does, and ``kstwo_sf`` is the survival
function that ``scipy.stats.kstwo.sf(d, n)`` evaluates, i.e. the
``cdf=False`` path of ``_kolmogn`` in ``scipy/stats/_ksstats.py``
(scipy 1.17.1).  The expressions, operand types (numpy scalars, 0-d arrays,
the long-double scale factors) and branch thresholds are scipy's.  The
algorithm selection follows Simard & L'Ecuyer, "Computing the Two-Sided
Kolmogorov-Smirnov Distribution", J. Stat. Softw. 39(11), 2011; the methods
are Ruben-Gambino at both ends, Durbin's matrix algorithm as computed by
Marsaglia, Tsang & Wang (J. Stat. Softw. 8(18), 2003), the Pomeranz
recursion (Comm. ACM 17(12), 1974), the Pelz-Good asymptotic series
(J. R. Stat. Soc. B 38(2), 1976) and, in the tail (d >= 1/2, or n*d**2 above
4 for n <= 140 and above 2.2 for larger n: p below about 0.024), twice the
Birnbaum-Tingey ``smirnov``, within 4e-13 relative of scipy's; D_n and every
other p-value match ``scipy.stats.kstest(method="exact")`` bit for bit.

The ported code carries SciPy's licence:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Scale factors for the intermediate results of DMTW and Pomeranz.  They are
# long doubles, as in scipy: scaling a float64 promotes it, and the
# remaining products of that branch are then taken in long double.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# If B_m are the Bernoulli numbers, the Stirling coefficients are
# B_{2j}/(2j)/(2j-1) for j = 8, ..., 1.
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def two_sided_test(
    samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.float64, np.float64]:
    """Statistic D_n = sup |F_n - F| of a float64 sample without NaN against
    ``cdf``, and its p-value Pr(D_n >= D) clipped to [0, 1]."""
    x = np.sort(samples)
    n = x.shape[-1]
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1, dtype=x.dtype) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n, dtype=x.dtype) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    return d, np.clip(kstwo_sf(d, n), 0.0, 1.0)


def kstwo_sf(d: float, n: int) -> np.float64:
    """Pr(D_n >= d) for a sample of size n, as ``scipy.stats.kstwo.sf``."""
    x = np.asarray(d, dtype=np.float64)
    if np.isnan(x):
        return np.float64(np.nan)
    if x <= 0.5 / n:
        return np.float64(1.0)
    if x >= 1.0:
        return np.float64(0.0)
    return np.float64(_kolmogn_sf(n, x))


def smirnov(n: int, d: float) -> float:
    """The one-sided Pr(D_n+ >= d), 1 < n*d < n - 1: the Birnbaum-Tingey sum
    d * sum_{0 <= j < n(1-d)} C(n, j) (1-d-j/n)**(n-j) (d+j/n)**(j-1)
    (Ann. Math. Stat. 22, 592, 1951) in log space, shifted by its largest
    term; above n = 10**6 scipy's asymptotic form exp(-(6nd+1)**2/(18n))."""
    if n > 10**6:
        a = 6.0 * n * d + 1
        return math.exp(-a * a / 18.0 / n)
    j = np.arange(math.ceil(n * (1 - d)), dtype=np.float64)
    p = d + j / n
    j, p = j[p < 1], p[p < 1]  # a term with d + j/n = 1 is zero
    # log C(n, j) is the running sum of log((n+1-j)/j); adding back the exact
    # rounding error of each step (TwoSum) takes the error against scipy at
    # n = 10**6 from 2e-8 to 4e-13
    ratio = np.log((n + 1 - j[1:]) / j[1:])
    log_c = np.concatenate(([0.0], np.cumsum(ratio)))
    step = log_c[1:] - log_c[:-1]
    log_c[1:] += np.cumsum((log_c[:-1] - (log_c[1:] - step)) + (ratio - step))
    log_terms = log_c + (n - j) * np.log1p(-p) + (j - 1) * np.log(p)
    top = log_terms.max()
    # positive terms: a pairwise sum is accurate (math.fsum took 1.5 s at 10**6)
    return d * math.exp(top) * float(np.sum(np.exp(log_terms - top)))


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n):
    # log(n!/n**n) by Stirling's series, with n*log(n) removed up front to
    # avoid subtractive cancellation:
    #    = log(n)/2 - n + log(sqrt(2pi)) + sum B_{2j}/(2j)/(2j-1)/n**(2j-1)
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _kolmogn_sf(n, x):
    """Pr(D_n >= x) for 1/(2n) < x < 1, x a 0-d float64 array (Simard &
    L'Ecuyer 2011)."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        prob = 2 * (1.0 - x)**n
        return _clip_prob(prob)
    if x >= 0.5:  # Exact: 2 * smirnov
        prob = 2 * smirnov(n, x)
        return _clip_prob(prob)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            prob = _kolmogn_DMTW(n, x)
            return _clip_prob(1.0 - prob)
        if nxsquared <= 4:
            prob = _kolmogn_Pomeranz(n, x)
            return _clip_prob(1.0 - prob)
        # Miller approximation of 2*smirnov
        prob = 2 * smirnov(n, x)
        return _clip_prob(prob)

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        prob = 2 * smirnov(n, x)
        return _clip_prob(prob)
    # scipy's cut at nxsquared >= 18 for the CDF is never reached here
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_DMTW(n, x)
    else:
        cdfprob = _kolmogn_PelzGood(n, x)
    return _clip_prob(1.0 - cdfprob)


def _kolmogn_DMTW(n, d):
    """Pr(D_n <= d) for 1/n < d < 1, clipped to [0, 1], by the MTW form of
    Durbin's matrix algorithm."""
    # Write d = (k-h)/n, where k is positive integer and 0 <= h < 1
    # Generate initial matrix H of size m*m where m=(2k-1)
    # Compute k-th row of (n!/n^n) * H^n, scaling intermediate results.
    # Requires memory O(m^2) and computation O(m^2 log(n)).
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # Initialize: v is first column (and last row) of H
    #  v[j] = (1-h^(j+1)/(j+1)!  (except for v[-1])
    #  w[j] = 1/(j)!
    # q = k-th row of H (actually i!/n^i*H^i)
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # This might underflow.  Isn't a problem.
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # Holds intermediate powers of H
    nn = n
    expnt = 0  # Scaling of Hpwr
    Hexpnt = 0  # Scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        # Scale as needed.
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # Multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    # unscale
    if expnt != 0:
        p = np.ldexp(p, expnt)

    return _clip_prob(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """Compute the endpoints of the interval for row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """Pr(D_n <= x), clipped to [0, 1], by the Pomeranz recursion."""
    # V is n*(2n+2) matrix.
    # Each row is convolution of the previous row and probabilities from a
    #  Poisson distribution.
    # Desired CDF probability is n! V[n-1, 2n+1]  (final entry in final row).
    # Only two rows are needed at any given stage:
    #  - Call them V0 and V1.
    #  - Swap each iteration
    # Only a few (contiguous) entries in each row can be non-zero.
    #  - Keep track of start and end (j1 and j2 below)
    #  - V0s and V1s track the start in the two rows
    # Scale intermediate results as needed.
    # Only a few different Poisson distributions can occur
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)    # Maximum number of powers needed in convolutions
    gpower = np.empty(npwrs)  # gpower = (g/n)^m/m!
    twogpower = np.empty(npwrs)  # twogpower = (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # onem2gpower = ((1-2g)/n)^m/m!
    # gpower etc are *almost* Poisson probs, just missing normalizing factor.

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # Preserve j1, V1, V1s, V0s from last iteration
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # First index to use from conv
            conv_len = j2 - j1 + 1  # Number of entries to use from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            # Scale to avoid underflow.
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    # Undo any intermediate scaling
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip_prob(ans)


def _kolmogn_PelzGood(n, x):
    """Pelz-Good approximation to Pr(D_n <= x) for 0 < x < 1.

    Start with the Li-Chien, Korolyuk approximation
        Prob(Dn <= x) ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n**1.5
    where z = x*sqrt(n), and transform each K_(z) using Jacobi theta
    functions into a form suitable for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # Coefficients of terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Use a Horner scheme to evaluate sum c_i q^(i^2)
    # Reduces to a sum over odd integers.
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # Now do the other sum over the other terms, all integers k
    # K_2:  (pi^2 k^2) q^(k^2),
    # K_3:  (3pi^2 k^2 z^2 - pi^4 k^4)*q^(k^2)
    # Don't expect much subtractive cancellation so use direct calculation
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    Ksum = sum(K0to3)
    return Ksum
