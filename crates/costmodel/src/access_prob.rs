//! Access probability of a data page during nearest-neighbor search
//! (Section 2.2, eqs 2–5).
//!
//! A page `b_i` must be read iff none of the pages with higher priority
//! contains a point inside the *b_i-sphere* — the ball around the query
//! point touching `b_i` (radius `MINDIST(q, b_i)`). Under a uniform
//! within-page distribution, a page `b_k` holding `M_k` points avoids the
//! intersection with probability `(1 − V_int/V_MBR)^{M_k}` (eq 3), and the
//! access probability is the product over all higher-priority pages
//! (eq 2).

use iq_geometry::{Mbr, Metric};

/// The fraction of `mbr`'s volume that lies inside the metric ball of
/// radius `r` around `q` — `V_int/V_MBR` of eq 3, i.e. the probability
/// that a point uniformly distributed in the MBR falls inside the ball.
///
/// * **Maximum metric**: exact per-dimension clipping (eq 5 normalized).
/// * **Euclidean / Manhattan metrics**: the probability
///   `P(Σ g(x_i − q_i) ≤ budget)` (with `g = (·)²` resp. `|·|`) is computed
///   by discretized convolution of the exact per-dimension gap
///   distributions — accurate down to the small fractions the page
///   scheduler's decisions hinge on, where both fill-factor scalings
///   (collapse to 0 as `d` grows) and CLT tails (wrong by orders of
///   magnitude) fail.
///
/// Zero-extent dimensions contribute their deterministic gap.
pub fn fraction_in_ball(metric: Metric, mbr: &Mbr, q: &[f32], r: f64) -> f64 {
    debug_assert_eq!(q.len(), mbr.dim());
    if r <= 0.0 {
        return 0.0;
    }
    // Exact saturation at the boundaries (the convolution below only
    // needs to resolve the strict interior).
    if metric.mindist(q, mbr) > r {
        return 0.0;
    }
    if metric.maxdist(q, mbr) <= r {
        return 1.0;
    }
    match metric {
        Metric::Maximum => {
            let mut frac = 1.0f64;
            for (i, &qi) in q.iter().enumerate() {
                let qi = f64::from(qi);
                let lo = f64::from(mbr.lb(i)).max(qi - r);
                let hi = f64::from(mbr.ub(i)).min(qi + r);
                let clipped = (hi - lo).max(0.0);
                let ext = mbr.extent(i);
                if ext == 0.0 {
                    // Degenerate dimension: inside the slab or not.
                    let x = f64::from(mbr.lb(i));
                    if !(qi - r..=qi + r).contains(&x) {
                        return 0.0;
                    }
                } else {
                    frac *= clipped / ext;
                    if frac == 0.0 {
                        return 0.0;
                    }
                }
            }
            frac
        }
        Metric::Euclidean => conv_fraction(mbr, q, r * r, Gap::Squared),
        Metric::Manhattan => conv_fraction(mbr, q, r, Gap::Absolute),
    }
}

/// The per-dimension gap transform of the summed metric.
#[derive(Clone, Copy)]
enum Gap {
    /// `(x - q)²` — Euclidean.
    Squared,
    /// `|x - q|` — Manhattan.
    Absolute,
}

impl Gap {
    #[inline]
    fn apply(self, v: f64) -> f64 {
        match self {
            Gap::Squared => v * v,
            Gap::Absolute => v.abs(),
        }
    }

    /// The positive root `s` with `gap(s) = t`.
    #[inline]
    fn root(self, t: f64) -> f64 {
        match self {
            Gap::Squared => t.sqrt(),
            Gap::Absolute => t,
        }
    }
}

/// Number of convolution bins: the resolution of the small fractions the
/// page scheduler's decisions hinge on.
const CONV_BINS: usize = 64;

/// Output bins the convolution accumulates side by side. Each bin's sum is
/// a serial chain of adds; eight independent chains (four two-wide
/// vectors on the baseline x86-64 target) keep the adder busy while each
/// waits on its previous add.
const LANES: usize = 8;

/// Zero padding on each side of the mass buffer, so every lane of a block
/// reads a valid (zero) mass outside the band instead of branching.
const PAD: usize = LANES - 1;

/// `P(Σ_i gap(x_i − q_i) ≤ budget)` for `x` uniform in `mbr`, by
/// convolving the discretized per-dimension gap distributions
/// (round-to-nearest binning; mass beyond the budget is dropped — under a
/// non-negative sum it can never come back).
///
/// Cost: each dimension costs O(|pmf support| · |mass band|) multiply-adds
/// (at most `CONV_BINS²`), plus a binary search for the band where that
/// dimension's CDF lies strictly between 0 and 1; the per-bin gap roots
/// are computed once per call. The buffers live on the stack.
///
/// Bit-identity contract: the result is the same `f64`, bit for bit, as
/// the plain input-major convolution over all bins (kept as the test
/// oracle `conv_fraction_reference`, compared by the proptest
/// `prop_kernel_is_bit_identical_to_oracle`). Every output bin adds its terms in
/// ascending pmf index, starting from `0.0`; the only terms left out or
/// added are exact zeros, which cannot change such a sum.
fn conv_fraction(mbr: &Mbr, q: &[f32], budget: f64, gap: Gap) -> f64 {
    if budget <= 0.0 {
        return 0.0;
    }
    let b = CONV_BINS;
    let h = budget / b as f64;
    // The bin representatives `(k + ½)·h` depend only on the budget. Bins
    // whose representative underflows to 0 (`k < nonpos`) take the CDF's
    // `t <= 0` branch.
    let mut roots = [0.0f64; CONV_BINS];
    let mut nonpos = 0;
    for (k, s) in roots.iter_mut().enumerate() {
        let t = (k as f64 + 0.5) * h;
        if t <= 0.0 {
            nonpos = k + 1;
        }
        *s = gap.root(t);
    }
    let mut bufs = ([0.0f64; CONV_BINS], [0.0f64; CONV_BINS]);
    let (mut pmf, mut next) = (&mut bufs.0, &mut bufs.1);
    pmf[0] = 1.0;
    // `pmf` is zero outside `plo..phi`; nothing reads it there.
    let (mut plo, mut phi) = (0usize, 1usize);
    // `mass[PAD + k]` is bin k's mass, zero outside the band `mlo..mhi`.
    let mut mass = [0.0f64; CONV_BINS + 2 * PAD];
    let mut cdf = [0.0f64; CONV_BINS + 1];
    let (mut mlo, mut mhi) = (0usize, 0usize);
    for (i, &qi) in q.iter().enumerate() {
        let lo = f64::from(mbr.lb(i)) - f64::from(qi);
        let hi = f64::from(mbr.ub(i)) - f64::from(qi);
        let w = hi - lo;
        if w <= 0.0 {
            // Deterministic gap: shift the whole pmf.
            let shift = (gap.apply(lo) / h).round() as usize;
            if shift > 0 {
                if shift >= b {
                    return 0.0;
                }
                let end = (phi + shift).min(b);
                if plo + shift < end {
                    pmf.copy_within(plo..end - shift, plo + shift);
                    plo += shift;
                } else {
                    plo = end;
                }
                phi = end;
            }
            continue;
        }
        // CDF of gap(x - q): {gap ≤ t} = [-s, s] with s the positive root,
        // so the clipped interval length is exact. It is monotone in the
        // bin: 0 below `k0`, and exactly 1 (the clip is the whole extent)
        // from `k1` on.
        let clip = |s: f64| (hi.min(s) - lo.max(-s)).max(0.0);
        let k0 = if nonpos > 0 {
            0
        } else {
            roots.partition_point(|&s| clip(s) <= 0.0)
        };
        let k1 = nonpos + roots[nonpos..].partition_point(|&s| !(s >= hi && -s <= lo));
        // Per-dimension bin masses with round-to-nearest representatives:
        // `cdf[k + 1]` is bin k's CDF, `cdf[k0]` the zero below the band.
        let top = (k1 + 1).min(b);
        cdf[k0] = 0.0;
        let split = nonpos.clamp(k0, k1);
        cdf[k0 + 1..split + 1].fill(f64::from(lo <= 0.0 && 0.0 <= hi));
        for (c, &s) in cdf[split + 1..k1 + 1].iter_mut().zip(&roots[split..k1]) {
            *c = (clip(s) / w).min(1.0);
        }
        if k1 < b {
            cdf[k1 + 1] = 1.0;
        }
        mass[PAD + mlo..PAD + mhi].fill(0.0);
        for (m, c) in mass[PAD + k0..PAD + top]
            .iter_mut()
            .zip(cdf[k0..=top].windows(2))
        {
            *m = (c[1] - c[0]).max(0.0);
        }
        (mlo, mhi) = (k0, top);
        // Convolve output-major over the supports, dropping mass that
        // exceeds the budget: `next[n] = Σ_j pmf[j]·mass[n − j]`, ascending
        // in j. Blocks of LANES outputs share each `pmf[j]`; a lane's terms
        // outside its own range hit zero mass.
        let nlo = plo + mlo;
        let nhi = (phi + mhi).saturating_sub(1).min(b);
        if nlo >= nhi {
            return 0.0;
        }
        let mut n = nlo;
        while n < nhi {
            // The last block may overlap the one before it, recomputing the
            // same values, so that it never runs past the last bin.
            let n0 = n.min(b - LANES);
            let jlo = plo.max((n0 + 1).saturating_sub(mhi));
            let jhi = (phi - 1).min(n0 + LANES - 1 - mlo);
            let mut acc = [0.0f64; LANES];
            // Mass windows, last first: `pmf[j]` meets `mass[n0 - j..]`.
            let windows = mass[PAD + n0 - jhi..PAD + n0 - jlo + LANES]
                .windows(LANES)
                .rev();
            for (&pj, m) in pmf[jlo..=jhi].iter().zip(windows) {
                for (a, &mk) in acc.iter_mut().zip(m) {
                    *a += pj * mk;
                }
            }
            next[n0..n0 + LANES].copy_from_slice(&acc);
            n = n0 + LANES;
        }
        std::mem::swap(&mut pmf, &mut next);
        (plo, phi) = (nlo, nhi);
        // The in-order sum of non-negative bins is at least each bin, so
        // one bin at or above the threshold settles the check without the
        // serial sum.
        let live = &pmf[plo..phi];
        if live.iter().all(|&x| x < 1e-15) && support_sum(live) < 1e-15 {
            return 0.0;
        }
    }
    support_sum(&pmf[plo..phi]).clamp(0.0, 1.0)
}

/// The in-order sum of a pmf's support: the full-array sum, since every
/// bin outside the support is `+0.0`.
fn support_sum(support: &[f64]) -> f64 {
    support.iter().fold(0.0, |s, &x| s + x)
}

/// Eq 2: the probability that page `target` must be accessed, given the
/// pages ahead of it in the priority list (each with its MBR and point
/// count). `r` is the target's MINDIST from the query — the b_i-sphere
/// radius.
pub fn access_probability<'a>(
    metric: Metric,
    q: &[f32],
    r: f64,
    higher_priority: impl Iterator<Item = (&'a Mbr, usize)>,
) -> f64 {
    let mut p = 1.0f64;
    for (mbr, m) in higher_priority {
        if m == 0 {
            continue;
        }
        let frac = fraction_in_ball(metric, mbr, q, r);
        if frac >= 1.0 {
            return 0.0;
        }
        // Eq 3: probability that none of the m points falls in the
        // intersection.
        p *= (1.0 - frac).powi(m as i32);
        if p < 1e-12 {
            return 0.0;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original input-major convolution, kept verbatim as the
    /// bit-identity oracle for [`conv_fraction`].
    fn conv_fraction_reference(mbr: &Mbr, q: &[f32], budget: f64, gap: Gap) -> f64 {
        if budget <= 0.0 {
            return 0.0;
        }
        let b = CONV_BINS;
        let h = budget / b as f64;
        let mut pmf = vec![0.0f64; b];
        pmf[0] = 1.0;
        let mut scratch = vec![0.0f64; b];
        let mut mass = vec![0.0f64; b];
        for (i, &qi) in q.iter().enumerate() {
            let lo = f64::from(mbr.lb(i)) - f64::from(qi);
            let hi = f64::from(mbr.ub(i)) - f64::from(qi);
            let w = hi - lo;
            if w <= 0.0 {
                // Deterministic gap: shift the whole pmf.
                let shift = (gap.apply(lo) / h).round() as usize;
                if shift > 0 {
                    if shift >= b {
                        return 0.0;
                    }
                    for j in (0..b).rev() {
                        pmf[j] = if j >= shift { pmf[j - shift] } else { 0.0 };
                    }
                }
                continue;
            }
            // CDF of gap(x - q): {gap ≤ t} = [-s, s] with s the positive root,
            // so the clipped interval length is exact.
            let cdf = |t: f64| -> f64 {
                if t <= 0.0 {
                    return f64::from(lo <= 0.0 && 0.0 <= hi);
                }
                let s = gap.root(t);
                ((hi.min(s) - lo.max(-s)).max(0.0) / w).min(1.0)
            };
            // Per-dimension bin masses with round-to-nearest representatives.
            let mut prev = 0.0f64;
            for (k, mk) in mass.iter_mut().enumerate() {
                let c = cdf((k as f64 + 0.5) * h);
                *mk = (c - prev).max(0.0);
                prev = c;
            }
            // Convolve, dropping mass that exceeds the budget.
            scratch.fill(0.0);
            for (j, &pj) in pmf.iter().enumerate() {
                if pj <= 0.0 {
                    continue;
                }
                for (k, &mk) in mass.iter().take(b - j).enumerate() {
                    scratch[j + k] += pj * mk;
                }
            }
            std::mem::swap(&mut pmf, &mut scratch);
            if pmf.iter().sum::<f64>() < 1e-15 {
                return 0.0;
            }
        }
        pmf.iter().sum::<f64>().clamp(0.0, 1.0)
    }

    fn unit(d: usize) -> Mbr {
        Mbr::from_bounds(vec![0.0; d], vec![1.0; d])
    }

    #[test]
    fn no_competitors_means_certain_access() {
        let p = access_probability(Metric::Euclidean, &[0.5, 0.5], 0.3, std::iter::empty());
        assert_eq!(p, 1.0);
    }

    #[test]
    fn engulfed_competitor_prunes() {
        // A competitor fully inside the sphere definitely holds a closer
        // point -> access probability 0.
        let inner = Mbr::from_bounds(vec![0.45, 0.45], vec![0.55, 0.55]);
        let p = access_probability(
            Metric::Maximum,
            &[0.5, 0.5],
            0.2,
            [(&inner, 10usize)].into_iter(),
        );
        assert_eq!(p, 0.0);
    }

    #[test]
    fn disjoint_competitor_is_irrelevant() {
        let far = Mbr::from_bounds(vec![10.0, 10.0], vec![11.0, 11.0]);
        let p = access_probability(
            Metric::Euclidean,
            &[0.5, 0.5],
            0.2,
            [(&far, 1000usize)].into_iter(),
        );
        assert_eq!(p, 1.0);
    }

    #[test]
    fn more_points_lower_probability() {
        let m = unit(2);
        let q = [0.5f32, 0.5];
        let p10 = access_probability(Metric::Maximum, &q, 0.25, [(&m, 10usize)].into_iter());
        let p100 = access_probability(Metric::Maximum, &q, 0.25, [(&m, 100usize)].into_iter());
        assert!(p100 < p10);
        assert!(p10 < 1.0);
    }

    #[test]
    fn max_metric_fraction_exact() {
        // Ball of radius 0.25 centered in the unit square covers a 0.5x0.5
        // box -> fraction 0.25.
        let f = fraction_in_ball(Metric::Maximum, &unit(2), &[0.5, 0.5], 0.25);
        assert!((f - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_mbr_inside_and_outside() {
        let flat = Mbr::from_bounds(vec![0.5, 0.0], vec![0.5, 1.0]);
        // Slab [0.3, 0.7] covers x = 0.5.
        let f = fraction_in_ball(Metric::Maximum, &flat, &[0.5, 0.5], 0.2);
        assert!((f - 0.4).abs() < 1e-12); // y-clip 0.4 / extent 1.0
                                          // Slab [0.0, 0.2] misses x = 0.5.
        let f = fraction_in_ball(Metric::Maximum, &flat, &[0.1, 0.5], 0.1);
        assert_eq!(f, 0.0);
    }

    #[test]
    fn zero_radius_zero_fraction() {
        assert_eq!(
            fraction_in_ball(Metric::Euclidean, &unit(3), &[0.5; 3], 0.0),
            0.0
        );
    }

    #[test]
    fn euclidean_fraction_matches_qmc() {
        // The convolution estimate must track a quasi-Monte-Carlo ground
        // truth across regimes (small ball, half-covering ball, off-center
        // query) and dimensions.
        use iq_geometry::volume::box_ball_intersection_qmc;
        for d in [2usize, 4, 8] {
            let m = unit(d);
            for (q_off, r_frac) in [(0.5f32, 0.3), (0.5, 0.8), (0.2, 0.5), (0.9, 0.2)] {
                let q = vec![q_off; d];
                let r = r_frac * (d as f64).sqrt() * 0.5;
                let est = fraction_in_ball(Metric::Euclidean, &m, &q, r);
                let truth = box_ball_intersection_qmc(Metric::Euclidean, &m, &q, r, 100_000);
                let err = (est - truth).abs();
                assert!(
                    err < 0.05 || (truth > 1e-6 && (est / truth) < 2.5 && (truth / est) < 2.5),
                    "d={d} q={q_off} r={r:.3}: est {est} vs qmc {truth}"
                );
            }
        }
    }

    #[test]
    fn manhattan_fraction_matches_qmc() {
        use iq_geometry::volume::box_ball_intersection_qmc;
        let d = 4;
        let m = unit(d);
        let q = vec![0.4f32; d];
        for r in [0.5, 1.0, 1.5] {
            let est = fraction_in_ball(Metric::Manhattan, &m, &q, r);
            let truth = box_ball_intersection_qmc(Metric::Manhattan, &m, &q, r, 100_000);
            assert!((est - truth).abs() < 0.05, "r={r}: {est} vs {truth}");
        }
    }

    #[test]
    fn kernel_matches_oracle_on_edge_cases() {
        let check = |m: &Mbr, q: &[f32], budget: f64| {
            for gap in [Gap::Squared, Gap::Absolute] {
                let got = conv_fraction(m, q, budget, gap);
                let want = conv_fraction_reference(m, q, budget, gap);
                assert_eq!(got.to_bits(), want.to_bits(), "budget {budget:e} q {q:?}");
            }
        };
        // Budgets so small that the first bin representatives `(k + ½)·h`
        // underflow to 0 take the CDF's `t <= 0` branch.
        let m = Mbr::from_bounds(vec![-0.5, 0.0, 0.25], vec![0.5, 0.0, 0.75]);
        for budget in [5e-324, 1e-322, 3e-321, 1e-320, f64::MIN_POSITIVE] {
            for q in [[0.0f32, 0.0, 0.5], [0.0, 0.0, 0.25], [1.0, 0.0, 0.5]] {
                check(&m, &q, budget);
            }
        }
        // A zero-extent dimension shifts the whole support past the last
        // bin, before another dimension or as the last one.
        let top = Mbr::from_bounds(vec![0.9, 0.2, 0.0], vec![1.0, 0.2, 1.0]);
        check(&top, &[0.0, 0.0, 0.0], 1.0);
        let last = Mbr::from_bounds(vec![0.9, 0.2], vec![1.0, 0.2]);
        check(&last, &[0.0, 0.0], 1.0);
    }

    proptest! {
        /// The fraction is always a probability, and it saturates correctly
        /// when the box is entirely inside or entirely outside the ball.
        #[test]
        fn prop_fraction_is_probability(
            q in proptest::collection::vec(-0.5f32..1.5, 4),
            r in 0.0f64..2.0,
        ) {
            let m = unit(4);
            for metric in [Metric::Euclidean, Metric::Maximum, Metric::Manhattan] {
                let f = fraction_in_ball(metric, &m, &q, r);
                prop_assert!((0.0..=1.0).contains(&f), "{metric:?}: {f}");
                if metric.maxdist(&q, &m) <= r {
                    prop_assert!(f > 0.99, "{metric:?}: box inside ball, f = {f}");
                }
                if metric.mindist(&q, &m) > r {
                    prop_assert!(f < 0.01, "{metric:?}: box outside ball, f = {f}");
                }
            }
        }

        /// The band-limited, output-major kernel returns the oracle's bits
        /// for both summed metrics: d ∈ 1..=32, boxes with zero-extent
        /// dimensions, queries inside and outside, and radii from below
        /// MINDIST to beyond MAXDIST (both sides of saturation).
        #[test]
        fn prop_kernel_is_bit_identical_to_oracle(
            d in 1usize..=32,
            dims in proptest::collection::vec(
                (-1.0f32..1.0, 0.0f32..1.0, 0u8..5, -1.5f32..2.5, 0.0f32..1.0),
                32,
            ),
            inside in proptest::bool::ANY,
            r_frac in -0.2f64..1.3,
        ) {
            let dims = &dims[..d];
            // One dimension in five has zero extent.
            let lb: Vec<f32> = dims.iter().map(|t| t.0).collect();
            let ub: Vec<f32> = dims
                .iter()
                .map(|&(lo, ext, flat, _, _)| if flat == 0 { lo } else { lo + ext })
                .collect();
            let q: Vec<f32> = dims
                .iter()
                .zip(lb.iter().zip(&ub))
                .map(|(&(_, _, _, out, u), (&lo, &hi))| {
                    if inside { lo + u * (hi - lo) } else { out }
                })
                .collect();
            let m = Mbr::from_bounds(lb, ub);
            for (metric, gap) in [(Metric::Euclidean, Gap::Squared), (Metric::Manhattan, Gap::Absolute)] {
                let (near, far) = (metric.mindist(&q, &m), metric.maxdist(&q, &m));
                let r = (near + r_frac * (far - near)).max(0.0);
                let budget = gap.apply(r);
                let got = conv_fraction(&m, &q, budget, gap);
                let want = conv_fraction_reference(&m, &q, budget, gap);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{:?} d={} r={}: {} vs oracle {}", metric, d, r, got, want
                );
            }
        }

        /// Access probability is monotone: growing the sphere radius can
        /// only decrease it.
        #[test]
        fn prop_access_monotone_in_radius(
            r1 in 0.01f64..0.5,
            dr in 0.0f64..0.5,
        ) {
            let m1 = Mbr::from_bounds(vec![0.2, 0.2], vec![0.6, 0.6]);
            let m2 = Mbr::from_bounds(vec![0.5, 0.1], vec![0.9, 0.5]);
            let q = [0.4f32, 0.4];
            let hp = || [(&m1, 20usize), (&m2, 35usize)].into_iter();
            let p_small = access_probability(Metric::Euclidean, &q, r1, hp());
            let p_big = access_probability(Metric::Euclidean, &q, r1 + dr, hp());
            prop_assert!(p_big <= p_small + 1e-12);
        }
    }
}
