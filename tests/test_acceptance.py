"""End-to-end acceptance checks.

One test per shipped claim, each printing an explicit PASS/FAIL line with
the measured figure next to the tolerance it is held to (run with -s to
see the lines for passing tests too).  Everything here goes through the
public API only.
"""

from fractions import Fraction

import numpy as np
import pytest

from solitonlab import (
    BARRIER_TOL,
    GridField,
    SolutionClassTag,
    TerminationKind,
    bowl_curve,
    bowl_series_coeffs,
    build_hybrid,
    build_spindle,
    build_wing,
    classify,
    classify_batch,
    compute_bowl,
    compute_separatrix,
    comparison_blowup_bound,
    convergence_order,
    critical_concavity,
    detect_blowup,
    eval_series,
    integrate_bidirectional,
    integrate_bidirectional_batch,
    residual_fund_eq,
    rotational,
    sample_radial_field,
    smoothness_scan,
)

ROT3 = rotational(3)

STRIP_TAGS = (SolutionClassTag.BELOW_BOWL, SolutionClassTag.ABOVE_BOWL,
              SolutionClassTag.BOWL)


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _oracle_coeffs(eps_tilde, eps_prime, c, order):
    """Exact rational Taylor coefficients by direct power matching."""
    et, ep, cc = Fraction(eps_tilde), Fraction(eps_prime), Fraction(c)
    a = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        w2 = sum(a[i] * a[k - 1 - i] for i in range(1, k - 1))
        w3 = Fraction(0)
        for i in range(1, k - 1):
            for j in range(1, k - i):
                m = k - i - j
                if 1 <= m <= order:
                    w3 += a[i] * a[j] * a[m]
        rhs_k = ep * w2 - ep * et * cc * w3
        if k == 1:
            rhs_k += et
        a[k] = rhs_k / (k + cc)
    return a


@pytest.fixture(scope="module")
def strip_grid():
    """Classification plus raw trajectory on the 20x20 strip grid, each as
    one batched call over the 400 starts (a lane is the same bit for bit
    as its start alone)."""
    starts = [(float(s0), float(w0)) for s0 in np.linspace(0.1, 5.0, 20)
              for w0 in np.linspace(-0.95, 0.95, 20)]
    verdicts = classify_batch(ROT3, starts)
    trajs = integrate_bidirectional_batch(ROT3, starts)
    for res in verdicts + trajs:
        if isinstance(res, Exception):
            raise res
    return [(s0, w0, sc, traj) for (s0, w0), sc, traj in zip(starts, verdicts, trajs)]


@pytest.fixture(scope="module")
def hybrid_triple():
    grids = [build_hybrid(nodes=n, extent=2.0)[1]
             for n in (101, 201, 401)]
    return grids


def test_criterion_1_center_regular_series():
    worst = 0.0
    for n in (2, 3, 5):
        params = rotational(n)
        oracle = _oracle_coeffs(+1, -1, n - 1, 13)
        got = bowl_series_coeffs(params, 13)
        assert oracle[1] == Fraction(1, n)
        assert oracle[3] == Fraction(-1, n ** 3 * (n + 2))
        diffs = [abs(float(oracle[k]) - got[k]) for k in range(14)]
        worst = max(worst, max(diffs))
    ok_series = worst < 1e-15

    bowl = compute_bowl(ROT3)
    series_w = eval_series(bowl_series_coeffs(ROT3, 13), 1e-3)
    anchor_err = abs(bowl.w_at(1e-3) - series_w)
    limit_err = abs(bowl.w_at(50.0) - 1.0)
    ok = ok_series and anchor_err <= 1e-9 and limit_err < 0.05
    _report(1, ok,
            f"oracle max coeff diff {worst:.2e} (<1e-15), "
            f"|w(1e-3)-series| = {anchor_err:.2e} (<=1e-9), "
            f"|w(50)-1| = {limit_err:.2e} (<0.05)")


def test_criterion_2_strip_classification(strip_grid):
    tags = [sc.tag for (_, _, sc, _) in strip_grid]
    all_tagged = all(t in STRIP_TAGS for t in tags)

    lim_err = 0.0
    crit_ok = True
    for (_, _, sc, _) in strip_grid:
        if sc.tag is SolutionClassTag.BELOW_BOWL:
            lim_err = max(lim_err, abs(sc.limit_at_zero + 1.0),
                          abs(sc.limit_at_infinity - 1.0))
        elif sc.tag is SolutionClassTag.ABOVE_BOWL:
            lim_err = max(lim_err, abs(sc.limit_at_zero - 1.0),
                          abs(sc.limit_at_infinity - 1.0))
            crit_ok = crit_ok and len(sc.critical_points) == 1
            crit_ok = crit_ok and critical_concavity(
                ROT3, sc.critical_points[0]) > 0.0

    ok = all_tagged and lim_err < 1e-3 and crit_ok
    counts = {t.value: tags.count(t) for t in set(tags)}
    _report(2, ok,
            f"400/400 tagged {counts}, worst limit error {lim_err:.2e} "
            f"(<1e-3), unique positive-concavity critical point on every "
            f"above-bowl orbit: {crit_ok}")


def test_criterion_3_blowup_inside_comparison_bound():
    traj = integrate_bidirectional(ROT3, 1.0, -2.0)
    s_star, sign = detect_blowup(traj)
    bound = comparison_blowup_bound(ROT3, 1.0, -2.0)
    ok = (sign == -1) and (1.0 < s_star < 1.5494) and s_star < bound
    _report(3, ok,
            f"s* = {s_star:.9f} in (1, 1.5494), analytic bound {bound:.9f}")


def test_criterion_4_separatrix():
    sep = compute_separatrix(ROT3)
    width = sep.bracket[1] - sep.bracket[0]
    defect = sep.asymptote_defect(50.0)

    offsets = (-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2)
    tags = [classify(ROT3, sep.anchor, sep.value + d).tag for d in offsets]
    monotone = all(
        t is (SolutionClassTag.GAMMA_PLUS_GLOBAL if d < 0
              else SolutionClassTag.GAMMA_PLUS_BLOWUP)
        for d, t in zip(offsets, tags))

    ok = width <= 1e-10 and defect < 0.05 and monotone
    _report(4, ok,
            f"bracket width {width:.2e} (<=1e-10), "
            f"|c*w(50)-50| = {defect:.4f} (<0.05), dichotomy monotone "
            f"across threshold: {monotone}")


def test_criterion_5_residual_convergence(hybrid_triple):
    prof = bowl_curve(rotational(2))
    bowl_fields = [sample_radial_field(prof.f_dense, extent=2.0, nodes=n)
                   for n in (101, 201, 401)]
    rep_r = convergence_order(*bowl_fields)
    ok_r = (rep_r.defined and rep_r.monotone
            and 1.7 <= rep_r.p_coarse <= 2.3 and 1.7 <= rep_r.p_fine <= 2.3)

    rep_l = convergence_order(*hybrid_triple)
    ok_l = (rep_l.defined and rep_l.monotone
            and 1.7 <= rep_l.p_coarse <= 2.3 and 1.7 <= rep_l.p_fine <= 2.3)

    ax = np.linspace(-1.0, 1.0, 21)
    const = GridField(axes=(ax, ax), signature=(1, 1), eps_prime=-1,
                      values=np.full((21, 21), 0.3))
    stats = residual_fund_eq(const)
    interior = stats.field[np.isfinite(stats.field)]
    ok_c = stats.max_abs == 1.0 and np.all(interior == -1.0)

    ok = ok_r and ok_l and ok_c
    _report(5, ok,
            f"bowl p = ({rep_r.p_coarse:.3f}, {rep_r.p_fine:.3f}), hybrid "
            f"p = ({rep_l.p_coarse:.3f}, {rep_l.p_fine:.3f}), both in "
            f"[1.7, 2.3]; constant control R = -1 exactly: {ok_c}")


def test_criterion_6_hybrid_gluing(hybrid_triple):
    o1 = _oracle_coeffs(+1, +1, 1, 11)
    o2 = _oracle_coeffs(-1, +1, 1, 11)
    # height coefficients F_j = a_{j-1}/j; even orders carry the glued field
    rel_exact = all(
        o2[2 * k - 1] / (2 * k) == (-1) ** k * (o1[2 * k - 1] / (2 * k))
        for k in range(1, 5))

    hyb, _ = build_hybrid(nodes=101, extent=2.0)
    float_err = max(abs(hyb.coeffs_f2[2 * k] - (-1) ** k * hyb.coeffs_f1[2 * k])
                    for k in range(0, 5))

    scans = [smoothness_scan(g, max_order=2) for g in hybrid_triple[:2]]
    zero_order_ok = scans[0][0] == 0.0 and scans[1][0] == 0.0
    decays = all(scans[1][q] <= scans[0][q] / 3.0 or scans[1][q] < 1e-8
                 for q in (1, 2))

    _, bad = build_hybrid(nodes=101, extent=2.0, f2_sign=-1)
    _, bad2 = build_hybrid(nodes=201, extent=2.0, f2_sign=-1)
    j1 = smoothness_scan(bad, max_order=2)[2]
    j2 = smoothness_scan(bad2, max_order=2)[2]
    mismatch_persists = j2 > 0.5 * j1 and j2 > 0.1

    rng = np.random.default_rng(3)
    inv_err = 0.0
    for theta in (-1.0, -0.4, 0.3, 0.8, 1.6):
        ch, sh = np.cosh(theta), np.sinh(theta)
        for _ in range(8):
            x, y = rng.uniform(-1.2, 1.2, 2)
            xb, yb = ch * x + sh * y, sh * x + ch * y
            a, b = hyb.u(x, y), hyb.u(xb, yb)
            if np.isfinite(a) and np.isfinite(b):
                inv_err = max(inv_err, abs(a - b))

    ok = (rel_exact and float_err < 1e-15 and zero_order_ok and decays
          and mismatch_persists and inv_err <= 1e-10)
    _report(6, ok,
            f"coefficient relation exact k<=4 (float err {float_err:.1e}); "
            f"matched jumps decay {scans[0][1]:.1e}->{scans[1][1]:.1e} / "
            f"{scans[0][2]:.1e}->{scans[1][2]:.1e}; mismatched order-2 jump "
            f"persists {j1:.3f}->{j2:.3f}; boost invariance {inv_err:.1e} "
            f"(<=1e-10)")


def test_criterion_7_spindle():
    spindle = build_spindle(ROT3, 1.0)
    finite = (spindle.contact == (True, True)
              and np.isfinite(spindle.contact_y[0])
              and np.isfinite(spindle.contact_y[1]))
    apex_ok = spindle.apex == (0.0, 1.0) and abs(spindle.alpha.max() - 1.0) < 1e-8
    slope_l = abs(spindle.alpha_prime[0])
    slope_r = abs(spindle.alpha_prime[-1])
    slopes_ok = abs(slope_l - 1.0) < 1e-2 and abs(slope_r - 1.0) < 1e-2
    ok = finite and apex_ok and slopes_ok
    _report(7, ok,
            f"profile closes on y in [{spindle.contact_y[0]:.4f}, "
            f"{spindle.contact_y[1]:.4f}], apex alpha = 1, endpoint |alpha'| "
            f"= ({slope_l:.6f}, {slope_r:.6f}) within 1e-2 of 1")


def test_criterion_8_no_tangency_principle():
    w1 = build_wing(ROT3, 1.0, y_span=0.5)
    w2 = build_wing(ROT3, 2.0, y_span=0.5)
    ys = np.linspace(-0.2, 0.2, 81)
    a1 = np.interp(ys, w1.wing.y, w1.wing.alpha)
    a2 = np.interp(ys, w2.wing.y, w2.wing.alpha)
    beta = a1 + (a2[40] - a1[40])
    off = np.abs(ys) > 1e-12
    gap = a2[off] - beta[off]
    ok = np.all(gap > 0.0)
    _report(8, ok,
            f"two profiles touch at y0 = 0 after vertical shift yet "
            f"beta < alpha_2 everywhere else: min gap {gap.min():.2e} > 0 "
            f"over 0 < |y| <= 0.2")


def test_criterion_9_global_extension(strip_grid):
    span_ok = True
    no_blowup = True
    excursion = 0.0
    for (s0, w0, _, traj) in strip_grid:
        left, right = traj.termination_left, traj.termination_right
        span_ok = (span_ok
                   and left.kind is TerminationKind.DOMAIN_BOUNDARY_ZERO
                   and right.kind is TerminationKind.REACHED_S_MAX
                   and traj.s[0] <= 1.01e-10 and traj.s[-1] >= 100.0 - 1e-9)
        no_blowup = no_blowup and detect_blowup(traj) is None
        excursion = max(excursion, float(np.abs(traj.w).max()) - 1.0)
    # |w| < 1 pointwise; the barrier-asymptotic tails saturate to +-1 in
    # double precision, so the sharp statement is: no sample ever exceeds
    # the barrier by more than the machine contact band
    inside = excursion <= BARRIER_TOL
    ok = span_ok and no_blowup and inside
    _report(9, ok,
            f"400/400 orbits span [1e-10, 100] with no blow-up; max "
            f"barrier excursion {excursion:.1e} (<= {BARRIER_TOL:.0e} "
            f"contact band)")
