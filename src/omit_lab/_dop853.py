"""Dormand-Prince 8(5,3) with dense output, in numpy.

The explicit Runge-Kutta pair DOP853 of Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I: Nonstiff Problems*, 2nd ed.
(Springer, 1993), Sec. II.5 and II.6: twelve stages per step, an error
estimate that blends the fifth- and third-order embedded formulas, and a
seventh-degree interpolant from three extra stages.

The coefficients below and the step-size controller are those of SciPy's
``scipy.integrate`` DOP853 (BSD-3-Clause licence, copyright the SciPy
Developers).  :func:`dop853_steps` performs SciPy's floating-point
operations in SciPy's order, so each accepted step and its dense output
equal those of ``scipy.integrate.DOP853`` (``step()``, then
``dense_output()``) bit for bit; ``tests/test_oracle.py`` checks that.
Only what the time-domain oracle needs is kept: forward integration from
``t = 0``, a given first step, scalar tolerances, and output step by step,
which a caller may stop early.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergentError

__all__ = ["dop853_steps"]

_N_STAGES = 12
_N_EXT = 16
_N_DENSE = 7

# Nodes and stage matrix; stages 13-15 exist only for the dense output.
C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((_N_EXT, _N_EXT))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

# Eighth-order weights, then the weights of the embedded error estimates.
B = A[_N_STAGES, :_N_STAGES]

E3 = np.zeros(_N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(_N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# The last four interpolant coefficients; the dense output forms the first
# three from the step's end points and slopes.
D = np.zeros((_N_DENSE - 3, _N_EXT))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# Step-size controller: new step = old step * SAFETY * err^(-1/8), the
# factor clipped to [MIN_FACTOR, MAX_FACTOR] (and to <= 1 right after a
# rejection).
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0


def dop853_steps(fun, y0: np.ndarray, t_final: float, *,
                 first_step: float, rtol: float, atol: float):
    """Integrate ``y' = fun(t, y)`` from ``t = 0``, one accepted step at a time.

    Parameters
    ----------
    fun : callable
        ``fun(t, y)`` returns ``dy/dt`` as a float array shaped like ``y``.
    y0 : ndarray, shape (n,)
        Real initial state.
    t_final : float
        End time, > 0.
    first_step : float
        Size of the first trial step, in ``(0, t_final]``.
    rtol, atol : float
        Each step keeps its local error estimate below
        ``atol + rtol * max(|y_old|, |y_new|)``.

    Yields
    ------
    (t_old, t, y, dense)
        The span of each accepted step, the state ``y`` at its end (a new
        array each step) and its dense output: ``dense(times)`` returns
        the solution at ``times`` in ``[t_old, t]`` as an ndarray of shape
        ``(n, len(times))``.  It evaluates the interpolant's three extra
        stages when called, so a step nobody samples costs none; call it
        before advancing the generator, which reuses the step's storage.
        Stopping early (closing the generator, or raising from the loop
        that consumes it) is fine: the steps already taken do not depend
        on ``t_final``, only the last one is shortened to end on it.

    Raises
    ------
    NonConvergentError
        The error control asked for a step below ten ulps of ``t``.
    """
    y = y0
    n = y.size
    k_ext = np.empty((_N_EXT, n))
    k = k_ext[:_N_STAGES + 1]
    # k_t[s] is the transpose of the first s stages, rows[s] row s of A.
    k_t = [k_ext[:s].T for s in range(_N_EXT)]
    rows = [A[s, :s] for s in range(_N_EXT)]
    nodes = C.tolist()
    t = 0.0
    f = fun(t, y)
    h_abs = first_step
    while t < t_final:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise NonConvergentError(
                    f"time integration failed: the step size fell below "
                    f"{min_step:.3e} s at t = {t:.6e} s")
            t_new = t + h_abs
            if t_new > t_final:
                t_new = t_final
            h = t_new - t

            k[0] = f
            for s in range(1, _N_STAGES):
                k[s] = fun(t + nodes[s] * h,
                           y + np.dot(k_t[s], rows[s]) * h)
            y_new = y + h * np.dot(k_t[_N_STAGES], B)
            f_new = fun(t + h, y_new)
            k[-1] = f_new

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(k_t[_N_STAGES + 1], E5) / scale
            err3 = np.dot(k_t[_N_STAGES + 1], E3) / scale
            # Squared norms as ``np.linalg.norm(x) ** 2``: the sqrt round
            # trip can move the last bit, and with it the next step size.
            err5_sq = math.sqrt(err5.dot(err5)) ** 2
            err3_sq = math.sqrt(err3.dot(err3)) ** 2
            if err5_sq == 0.0 and err3_sq == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5_sq / math.sqrt(
                    (err5_sq + 0.01 * err3_sq) * n)

            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs = h * factor
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True

        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new

        def dense(times: np.ndarray) -> np.ndarray:
            # Three more stages, then the interpolant
            # sum_j F_j x^ceil(j/2) (1 - x)^floor(j/2) in Horner form.
            for s in range(_N_STAGES + 1, _N_EXT):
                k_ext[s] = fun(t_old + nodes[s] * h,
                               y_old + np.dot(k_t[s], rows[s]) * h)
            dy = y - y_old
            coeffs = np.empty((_N_DENSE, n))
            coeffs[0] = dy
            coeffs[1] = h * f_old - dy
            coeffs[2] = 2 * dy - h * (f + f_old)
            coeffs[3:] = h * np.dot(D, k_ext)
            x = ((times - t_old) / (t - t_old))[:, None]
            x_rest = 1 - x
            out = np.zeros((len(times), n))
            for j, c in enumerate(coeffs[::-1]):
                out += c
                out *= x if j % 2 == 0 else x_rest
            out += y_old
            return out.T

        yield t_old, t, y, dense

