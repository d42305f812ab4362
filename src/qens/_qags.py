"""QUADPACK's QAGS on Python floats, with the bits of scipy's `quad`.

A port of `dqagse` (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
*QUADPACK*, Springer 1983) with its 21-point Gauss-Kronrod rule `dqk21`,
the error ordering `dqpsrt` and the epsilon extrapolation `dqelg`, fixed
to the arguments of `scipy.integrate.quad(f, a, b, limit=200)`: epsabs =
epsrel = 1.49e-8.  Every floating-point operation follows QUADPACK's
order, so `qags_each(f, [(a, b)])[0][0]` is `quad(f, a, b, limit=200)[0]`
bit for bit (the arrays are 1-based, as in the Fortran, to keep the index
arithmetic comparable).

`_dqagse` is the routine as a generator: it yields the intervals whose
rules it needs, the first one and then both halves of each bisection, and
is sent their dqk21 results.  `qags_each` advances up to _BATCH of them in
lockstep and evaluates each round's rules in one vectorised `_dqk21`, one
row a rule, whose sums add each row's terms in QUADPACK's order: an
integration's bits do not depend on the others in its batch.

The one difference is the callback: `f` takes a 1-D float64 array that
holds the abscissae of whole rules, 21 each in the order dqk21 evaluates
them, and returns their values, so an elementwise integrand runs once a
round rather than once a point.
"""

from __future__ import annotations

import sys
from itertools import islice

import numpy as np

_EPSABS = _EPSREL = 1.49e-8
_LIMIT = 200
_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # dqelg's epsilon table holds at most this many terms
_BATCH = 128  # dqagse runs in flight: each unconverged one holds five 201-slot lists

# dqk21's abscissae, Kronrod weights and Gauss weights, as QUADPACK prints
# them: xgk(2j) are the 10-point Gauss nodes, xgk(11) = 0 is the centre
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# dqk21 evaluates f at the centre first, then at -xgk(j) and +xgk(j) for the
# Gauss nodes j = 2, 4, ..., 10 and then the Kronrod nodes j = 1, 3, ..., 9
# (1-based); its sums add the node pairs in the same order, but resasc's by j
_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_BY_J = [_ORDER.index(j) for j in range(10)]
# a rule's 21 abscissae on [-1, 1] in that order; centr + hlgth * (-x) is
# centr - hlgth * x exactly
_NODES = np.array([0.0, *[s * _XGK[j] for j in _ORDER for s in (-1.0, 1.0)]])
_WG_PAIRS = np.array(_WG)  # the Gauss pairs, the first five in _ORDER
_WGK_PAIRS = np.array([_WGK[10], *[_WGK[j] for j in _ORDER]])  # the centre, then the pairs
_WGK_BY_J = np.array([_WGK[10], *_WGK[:10]])


def _added_in_order(terms: np.ndarray) -> np.ndarray:
    """Each row's terms added from the left, as QUADPACK's loops add them
    (accumulate, unlike sum, never reassociates)."""
    return np.add.accumulate(terms, axis=1)[:, -1]


def _dqk21(f, intervals: list) -> list:
    """dqk21 on each (a, b) of intervals: a (result, abserr, resabs, resasc)
    each, from one call of f on the rules' abscissae, rule after rule.
    Each row adds its terms in QUADPACK's order, so every rule has the bits
    of the rule on its own."""
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf and NaN, silently
        a, b = np.array(intervals, dtype=np.float64).T
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        x = centr[:, None] + hlgth[:, None] * _NODES
    x[:, 0] = centr  # as QUADPACK's f(centr): hlgth * 0.0 is NaN for an infinite hlgth
    fv = f(x.ravel()).reshape(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        fc, fv1, fv2 = fv[:, :1], fv[:, 1::2], fv[:, 2::2]
        fsum = np.concatenate((fc, fv1 + fv2), axis=1)
        fabs = np.concatenate((np.abs(fc), np.abs(fv1) + np.abs(fv2)), axis=1)
        resg = 0.0 + _added_in_order(fsum[:, 1:6] * _WG_PAIRS)  # QUADPACK's resg starts at 0.0
        resk = _added_in_order(fsum * _WGK_PAIRS)
        resabs = _added_in_order(fabs * _WGK_PAIRS)  # wgk(11) * |fc| is |wgk(11) * fc| exactly
        reskh = (resk * 0.5)[:, None]
        dev = (np.abs(fv1 - reskh) + np.abs(fv2 - reskh))[:, _BY_J]
        resasc = _added_in_order(np.concatenate((np.abs(fc - reskh), dev), axis=1) * _WGK_BY_J)
        dhlgth = np.abs(hlgth)
        result = resk * hlgth
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = np.abs((resk - resg) * hlgth)
        scaled = (resasc != 0.0) & (abserr != 0.0)
        if scaled.any():
            # libm's pow, as QUADPACK's `**`, element by element: np.power may
            # take numpy's own SIMD code.  The base is at most a few thousand
            v = np.array([r**1.5 for r in (200.0 * abserr[scaled] / resasc[scaled]).tolist()])
            abserr[scaled] = resasc[scaled] * np.where(v < 1.0, v, 1.0)  # min(1.0, v), NaN too
        floor = (_EPMACH * 50.0) * resabs
        # max(floor, abserr), NaN too, where resabs is above the underflow limit
        abserr = np.where((resabs > _UFLOW / (50.0 * _EPMACH)) & ~(abserr > floor), floor, abserr)
    return list(zip(result.tolist(), abserr.tolist(), resabs.tolist(), resasc.tolist()))


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: keep iord descending in elist; (maxerr, errmax, nrmax) of the
    interval to bisect next."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        # a subdivision that raised the error moves maxerr up the list first
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the jupbn largest errors are kept in order
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # insert errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n];
    (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2, k3 = k1 - 1, k1 - 2
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k3], epstab[k2], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two elements are too close: drop the table's tail
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1  # irregular behaviour in the table
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        if not converged:
            # shift the table
            if n == _LIMEXP:
                n = 2 * (_LIMEXP // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
                res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, result, abserr, nres


def _dqagse(a: float, b: float):
    """dqagse on [a, b] as a generator: it yields the intervals whose rules
    it needs next, the first one and then the two halves of each bisection,
    is sent their dqk21 tuples in the same order, and returns (result,
    abserr, ier, last) as qags_each reports them."""
    epsabs, epsrel, limit = _EPSABS, _EPSREL, _LIMIT
    ier = ierro = 0

    # first approximation to the integral
    ((result, abserr, defabs, resabs),) = yield ((a, b),)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, last

    # the interval lists, built only when the first rule is not accepted
    alist, blist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    rlist, elist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1], blist[1] = a, b
    rlist[1], elist[1], iord[1] = result, abserr, 1
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax, maxerr = abserr, 1
    area, errsum = result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False  # True: the result is the sum over the intervals

    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = yield ((a1, b1), (a2, b2))

        # improve the previous approximations to integral and error
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the interval limit and bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the new intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the larger
            # intervals first, as long as any is left in the ordered list
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # the final result: the extrapolated value, or the sum over the intervals
    check_divergence = True
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                check_divergence = False
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif check_divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        if area == 0.0:  # result / area is an infinity, or NaN when result is 0
            diverges = result != 0.0 or errsum > 0.0
        else:
            diverges = 0.01 > result / area or result / area > 100.0 or errsum > abs(area)
        if diverges:
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier, last


def qags_each(f, intervals: list) -> list[tuple[float, float, int, int]]:
    """Integral of f over each (a, b) of intervals by dqagse, in their
    order: (result, abserr, ier, last) each, QUADPACK's outputs, with ier as
    dqagse returns it (0 converged, 1 the 200-interval limit, 2 roundoff, 3
    bad integrand behaviour, 4 no convergence, 5 probably divergent) and
    last the number of intervals.  The dqagse runs advance in lockstep, at
    most _BATCH of them at a time: each round evaluates the rules that
    every run in flight waits for in one call of f, and a run that ends
    makes room for the next interval."""
    out = [None] * len(intervals)
    pending = enumerate(intervals)
    running = []  # (index, dqagse run, the intervals it waits for)
    while True:
        for k, (a, b) in islice(pending, _BATCH - len(running)):
            run = _dqagse(a, b)
            running.append((k, run, next(run)))
        if not running:
            return out
        rules = iter(_dqk21(f, [ab for *_, wanted in running for ab in wanted]))
        still = []
        for k, run, wanted in running:
            try:
                still.append((k, run, run.send(list(islice(rules, len(wanted))))))
            except StopIteration as stop:
                out[k] = stop.value
        running = still

