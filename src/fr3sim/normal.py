"""Scalar standard-normal quantile and log-CDF kernels on libm.

``ndtri`` follows the cephes rational approximations and ``ndtri_exp`` the
scipy inverse of the log CDF built on them, operation for operation, so
both return the same bits as ``scipy.special``.  ``log_ndtr`` rests on
``math.erfc`` and an asymptotic series in the far lower tail: within 5 ulp
of scipy's for x <= 0, while above 0 both lose the last bits of the tiny
upper tail to the rounding of x / sqrt(2).
"""

import math

S2PI = 2.50662827463100050242   # sqrt(2 pi)
EXP_M2 = 0.13533528323661269189  # exp(-2)
LOG_1M_EXP_M2 = math.log1p(-math.exp(-2.0))
DBL_MAX = 1.7976931348623157e308
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
LOG_NDTR_SERIES_BELOW = -37.0    # Phi(x) stays a normal double above it

# |y - 0.5| <= 3/8
P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
      -5.66762857469070293439E1, 1.39312609387279679503E1,
      -1.23916583867381258016E0)
Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
      8.63602421390890590575E1, -2.25462687854119370527E2,
      2.00260212380060660359E2, -8.20372256168333339912E1,
      1.59056225126211695515E1, -1.18331621121330003142E0)
# z = sqrt(-2 log y) in [2, 8)
P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
      5.71628192246421288162E1, 4.40805073893200834700E1,
      1.46849561928858024014E1, 2.18663306850790267539E0,
      -1.40256079171354495875E-1, -3.50424626827848203418E-2,
      -8.57456785154685413611E-4)
Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
      4.13172038254672030440E1, 1.50425385692907503408E1,
      2.50464946208309415979E0, -1.42182922854787788574E-1,
      -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# z = sqrt(-2 log y) in [8, 64]
P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
      3.93881025292474443415E0, 1.33303460815807542389E0,
      2.01485389549179081538E-1, 1.23716634817820021358E-2,
      3.01581553508235416007E-4, 2.65806974686737550832E-6,
      6.23974539184983293730E-9)
Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
      1.37702099489081330271E0, 2.16236993594496635890E-1,
      1.34204006088543189037E-2, 3.28014464682127739104E-4,
      2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    """Horner evaluation, leading coefficient first.  A leading 1 gives
    cephes' ``p1evl`` bits: its first step 1 * x + c is exact."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _tail(x):
    """The x - log(x)/x - correction of both tails, x = sqrt(-2 log y)."""
    z = 1.0 / x
    p, q = (P1, Q1) if x < 8.0 else (P2, Q2)
    return (x - math.log(x) / x) - z * _polevl(z, p) / _polevl(z, q)


def ndtri(y):
    """x with Phi(x) = y."""
    if not 0.0 < y < 1.0:
        return -math.inf if y == 0.0 else math.inf if y == 1.0 else math.nan
    upper = y > 1.0 - EXP_M2
    if upper:
        y = 1.0 - y
    if y > EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, P0) / _polevl(y2, Q0))) * S2PI
    x = _tail(math.sqrt(-2.0 * math.log(y)))
    return x if upper else -x


def ndtri_exp(y):
    """x with log Phi(x) = y, for y <= 0."""
    if y < -2.0:
        if y < -DBL_MAX:
            return -math.inf
        x = math.sqrt(-2.0 * y) if y >= -0.5 * DBL_MAX \
            else math.sqrt(2.0) * math.sqrt(-y)
        return -_tail(x)
    if y > LOG_1M_EXP_M2:
        return -ndtri(-math.expm1(y))
    return ndtri(math.exp(y))


def log_ndtr(x):
    """log Phi(x)."""
    t = x / math.sqrt(2.0)
    if x > 0.0:
        return math.log1p(-math.erfc(t) / 2.0)
    if x > LOG_NDTR_SERIES_BELOW:
        return math.log(math.erfc(-t) / 2.0)
    # Phi(x) = phi(x)/(-x) (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...)
    r, term, acc, k = 1.0 / (x * x), 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * r
        acc += term
        k += 1
    return -0.5 * x * x - math.log(-x) - HALF_LOG_2PI + math.log(acc)
