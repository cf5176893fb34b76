//! Committee-size analysis (§7.5, Figure 3).
//!
//! BA⋆ needs its per-step committee to satisfy two constraints with
//! overwhelming probability, where `g` and `b` are the honest and malicious
//! selected sub-user counts:
//!
//! * **liveness**: `g > T·τ` — honest members alone can cross the vote
//!   threshold;
//! * **safety**: `½·g + b ≤ T·τ` — the adversary, even replaying honest
//!   votes to half the network, cannot push two different values past the
//!   threshold.
//!
//! Sortition selects each of the W sub-users independently with probability
//! τ/W, so for large W the counts are Poisson: `g ~ Poisson(h·τ)` and
//! `b ~ Poisson((1−h)·τ)`. This module computes the violation probability
//! for a given (τ, T, h), finds the optimal threshold T, and solves for the
//! minimal committee size τ achieving a target violation probability — the
//! computation behind Figure 3, where h = 80% yields τ ≈ 2000 with
//! T ≈ 0.685.

use crate::binomial::{ln_choose, poisson_cdf, poisson_ln_pmf, poisson_sf};

/// The violation probability of the BA⋆ step constraints for one step.
///
/// Returns `P[g ≤ T·τ] + P[½·g + b > T·τ]` (union bound over the liveness
/// and safety failure events).
pub fn violation_probability(tau: f64, threshold: f64, honest_fraction: f64) -> f64 {
    let lambda_g = honest_fraction * tau;
    let lambda_b = (1.0 - honest_fraction) * tau;
    let vote_threshold = threshold * tau;
    // Liveness failure: honest votes alone do not exceed the threshold.
    let p_liveness = poisson_cdf(vote_threshold.floor() as u64, lambda_g);
    // Safety failure: P[g/2 + b > T·τ] = Σ_b pmf(b) · P[g > 2(T·τ − b)].
    // Precompute the g survival function as suffix sums over the pmf so the
    // b loop is O(1) per term.
    let g_hi = ((2.0 * vote_threshold).ceil() as u64).max(1) + 2;
    let g_sf = {
        // sf[k] = P[g > k]; build pmf by the multiplicative recurrence then
        // take suffix sums, using the exact tail beyond the table edge.
        let mut pmf = vec![0.0f64; g_hi as usize + 1];
        for (k, v) in pmf.iter_mut().enumerate() {
            *v = poisson_ln_pmf(k as u64, lambda_g).exp();
        }
        let mut sf = vec![0.0f64; g_hi as usize + 2];
        sf[g_hi as usize + 1] = poisson_sf(g_hi, lambda_g);
        for k in (0..=g_hi as usize).rev() {
            sf[k] = sf[k + 1] + pmf[k];
        }
        // sf[k] currently holds P[g ≥ k]; shift to P[g > k] on lookup.
        sf
    };
    let g_tail = |k: u64| -> f64 {
        // P[g > k] = P[g ≥ k+1].
        let idx = (k + 1).min(g_hi + 1) as usize;
        g_sf[idx]
    };
    // Truncate the b sum where the pmf mass becomes negligible.
    let b_hi = (lambda_b + 20.0 * lambda_b.sqrt().max(3.0)).ceil() as u64;
    let mut p_safety = 0.0f64;
    for b in 0..=b_hi {
        let pb = poisson_ln_pmf(b, lambda_b).exp();
        let tail = if (b as f64) > vote_threshold {
            // Even g = 0 violates safety for this b.
            1.0
        } else {
            let g_needed = 2.0 * (vote_threshold - b as f64);
            g_tail(g_needed.floor() as u64)
        };
        p_safety += pb * tail;
    }
    // Mass of b beyond the truncation point (violates safety almost surely
    // there, but the pmf is already below ~1e-60; include it as a bound).
    p_safety += poisson_sf(b_hi, lambda_b);
    (p_liveness + p_safety).min(1.0)
}

/// The best threshold T and its violation probability for a given (τ, h).
///
/// Scans T over (2/3, 0.95); the optimum balances the liveness tail
/// (favours small T) against the safety tail (favours large T).
pub fn best_threshold(tau: f64, honest_fraction: f64) -> (f64, f64) {
    let mut best = (0.7, 1.0f64);
    let mut t = 0.667;
    while t <= 0.95 {
        let p = violation_probability(tau, t, honest_fraction);
        if p < best.1 {
            best = (t, p);
        }
        t += 0.0025;
    }
    best
}

/// Minimal committee size τ meeting a violation-probability target.
///
/// Returns `(τ, T)` — the Figure 3 y-value for `x = honest_fraction` — or
/// `None` if no committee up to `max_tau` suffices (h too close to 2/3).
pub fn solve_committee_size(
    honest_fraction: f64,
    target_violation: f64,
    max_tau: u64,
) -> Option<(u64, f64)> {
    // The violation probability is monotone decreasing in τ once feasible;
    // binary search over integers.
    let feasible = |tau: u64| -> Option<f64> {
        let (t, p) = best_threshold(tau as f64, honest_fraction);
        (p <= target_violation).then_some(t)
    };
    feasible(max_tau)?;
    let (mut lo, mut hi) = (1u64, max_tau);
    // Invariant: feasible(hi) holds; feasible(lo) unknown/false.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let t = feasible(hi)?;
    Some((hi, t))
}

/// One row of the Figure 3 curve.
#[derive(Clone, Copy, Debug)]
pub struct CommitteeSizePoint {
    /// The weighted fraction of honest users (x-axis).
    pub honest_fraction: f64,
    /// The sufficient committee size τ (y-axis).
    pub tau: u64,
    /// The vote threshold T at which τ suffices.
    pub threshold: f64,
}

/// Computes the Figure 3 curve: τ versus h at the paper's violation target
/// of 5×10⁻⁹.
pub fn figure3_curve(h_values: &[f64]) -> Vec<CommitteeSizePoint> {
    h_values
        .iter()
        .filter_map(|&h| {
            solve_committee_size(h, 5e-9, 100_000).map(|(tau, threshold)| CommitteeSizePoint {
                honest_fraction: h,
                tau,
                threshold,
            })
        })
        .collect()
}

/// Violation probability for the *final*-step committee (§C.1 regime).
///
/// The final step uses a larger committee (τ_final = 10,000, T_final =
/// 0.74) so that safety holds under weak synchrony across all MaxSteps
/// steps of a round. This helper exposes the per-step probability at those
/// parameters so benches can confirm the margin.
pub fn final_step_violation(tau_final: f64, t_final: f64, honest_fraction: f64) -> f64 {
    violation_probability(tau_final, t_final, honest_fraction)
}

/// Log₁₀ upper bound on the probability that the adversary alone crosses a
/// step's vote threshold — the §8.3 certificate-forgery attack.
///
/// An adversary holding a `1 − h` weight fraction draws
/// `b ~ Poisson((1−h)·τ)` committee seats per step; forging a certificate
/// for some step needs `b > T·τ`. The paper: "For τ_step > 1000, the
/// probability of this attack is less than 2⁻¹⁶⁶ at every step". The tail
/// is far below `f64` range, so we bound it in log space by the largest
/// term times a geometric factor:
/// `P[X ≥ k] ≤ pmf(k) / (1 − λ/k)` for `k > λ`.
pub fn certificate_forgery_log10_bound(tau: f64, threshold: f64, honest_fraction: f64) -> f64 {
    let lambda = (1.0 - honest_fraction) * tau;
    let k = (threshold * tau).floor() + 1.0;
    debug_assert!(k > lambda, "threshold must exceed the adversary's mean");
    // ln pmf(k; λ) = −λ + k ln λ − lnΓ(k+1).
    let ln_pmf = -lambda + k * lambda.ln() - ln_gamma(k + 1.0);
    let ln_tail = ln_pmf - (1.0 - lambda / k).ln();
    ln_tail / std::f64::consts::LN_10
}

use crate::binomial::ln_gamma;

/// Upper-tail probability below which [`committee_upper_bound`] stops.
pub const COMMITTEE_TAIL: f64 = 1e-12;

/// Smallest `k ≥ min(⌊τ⌋, W)` whose binomial upper tail
/// `P[Binomial(W, τ/W) > k]` falls below [`COMMITTEE_TAIL`] — the §7.5
/// bound an invariant monitor enforces on the deduplicated committee
/// weight of any (round, step).
///
/// The masses are computed once, in log space, from `⌊τ⌋ + 1` (the mode)
/// up to where they vanish, so `(1 − p)^W` never underflows at large
/// stake; the tail is then summed from the top down. The cost is O(σ)
/// terms rather than the O(k²) of re-summing the CDF for every `k`.
pub fn committee_upper_bound(total_weight: u64, tau: f64) -> u64 {
    let w = total_weight.max(1);
    let p = (tau / w as f64).min(1.0);
    let floor = (tau as u64).min(w);
    if p <= 0.0 {
        return floor;
    }
    if p >= 1.0 {
        // All mass sits at W.
        return w;
    }
    // Past the mode, a term below e^−69 (1e-30) ends the sum: the rest
    // decays geometrically and cannot reach COMMITTEE_TAIL.
    const LN_NEGLIGIBLE: f64 = -69.0;
    let mode = (((w + 1) as f64 * p) as u64).min(w);
    let ln_ratio = p.ln() - (-p).ln_1p();
    let mut terms = Vec::new();
    let mut j = floor + 1;
    let mut ln_term = if j <= w {
        ln_choose(w, j) + j as f64 * p.ln() + (w - j) as f64 * (-p).ln_1p()
    } else {
        f64::NEG_INFINITY
    };
    while j <= w && (j <= mode || ln_term >= LN_NEGLIGIBLE) {
        terms.push(ln_term.exp());
        ln_term += ln_ratio + ((w - j) as f64).ln() - ((j + 1) as f64).ln();
        j += 1;
    }
    // terms[i] = P[X = floor + 1 + i]; scanning down, `tail` becomes
    // P[X > k] for k = floor + i.
    let mut tail = 0.0;
    for (i, term) in terms.iter().enumerate().rev() {
        tail += term;
        if tail >= COMMITTEE_TAIL {
            return floor + 1 + i as u64;
        }
    }
    floor
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The previous bound: re-sums the CDF from k = 0 for every k.
    fn committee_upper_bound_by_cdf(total_weight: u64, tau: f64) -> u64 {
        use crate::binomial::binomial_cdf;
        let w = total_weight.max(1);
        let p = (tau / w as f64).min(1.0);
        let mut k = (tau as u64).min(w);
        while k < w && 1.0 - binomial_cdf(k, w, p) >= COMMITTEE_TAIL {
            k += 1;
        }
        k
    }

    /// Grid points where the CDF search was wrong, with the exact answer
    /// from rational arithmetic (P[X > k] < 1e-12 ≤ P[X > k − 1]). Off by
    /// one: `1 − cdf` cancels to ~1e-13 absolute error. Stuck at W:
    /// `pmf(0) = (1 − p)^W` underflows to 0, so the CDF never grows.
    const CDF_SEARCH_WRONG: [(u64, f64, u64); 8] = [
        (333, 300.0, 330),    // P[X > 330] = 5.7e-13; CDF search: W
        (1_000, 700.0, 798),  // P[X > 798] = 8.6e-13; CDF search: W
        (4_000, 99.9, 177),   // P[X > 176] = 1.03e-12; CDF search: 176
        (4_000, 250.0, 364),  // P[X > 364] = 9.7e-13; CDF search: 365
        (4_000, 300.0, 424),  // P[X > 423] = 1.10e-12; CDF search: 423
        (4_000, 700.0, 874),  // P[X > 874] = 8.8e-13; CDF search: W
        (10_000, 250.0, 367), // P[X > 367] = 8.9e-13; CDF search: 368
        (10_000, 300.0, 427), // P[X > 427] = 9.3e-13; CDF search: 428
    ];

    #[test]
    fn committee_upper_bound_matches_the_cdf_search_on_small_inputs() {
        let check = |w: u64, tau: f64| {
            let got = committee_upper_bound(w, tau);
            let old = committee_upper_bound_by_cdf(w, tau);
            match CDF_SEARCH_WRONG
                .iter()
                .find(|(ww, t, _)| (*ww, *t) == (w, tau))
            {
                Some(&(_, _, exact)) => {
                    assert_eq!(got, exact, "W={w} τ={tau}");
                    assert_ne!(old, exact, "W={w} τ={tau}: CDF search now right");
                }
                None => assert_eq!(got, old, "W={w} τ={tau}"),
            }
        };
        // Scaled parameters: τ_step = W/2 and τ_final = 0.6·W, clamped to
        // [10, 250] and [12, 300] — the values both callers derive for the
        // default node (5 × 10), the benchmark node (5 × 100) and
        // simulator populations of 12 to 1,000 users at stake 10.
        for w in [50u64, 120, 500, 1_000, 2_000, 10_000] {
            let wf = w as f64;
            check(w, (wf * 0.5).clamp(10.0, 250.0));
            check(w, (wf * 0.6).clamp(12.0, 300.0));
        }
        for w in [0u64, 1, 2, 3, 5, 10, 17, 40, 100, 333, 1_000, 4_000] {
            for tau in [0.0, 0.5, 1.0, 2.5, 10.0, 26.0, 99.9, 250.0, 300.0, 700.0] {
                check(w, tau);
            }
        }
    }

    #[test]
    fn committee_upper_bound_is_fast_at_large_stake() {
        // 5 users × 100,000 stake; τ past e^−τ underflow (≈745) too.
        let start = std::time::Instant::now();
        for tau in [250.0f64, 300.0, 2_000.0, 10_000.0] {
            let k = committee_upper_bound(500_000, tau);
            let sigma = tau.sqrt();
            // A 1e-12 tail sits about 7σ above the mean.
            assert!(
                (k as f64) > tau + 5.0 * sigma && (k as f64) < tau + 9.0 * sigma,
                "τ={tau} k={k}"
            );
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn forgery_bound_matches_paper_claim() {
        // Paper (§8.3): for τ_step > 1000 the per-step forgery probability
        // is below 2⁻¹⁶⁶ ≈ 10⁻⁴⁹·⁹. At the chosen τ_step = 2000 the bound
        // is much smaller still.
        let log10 = certificate_forgery_log10_bound(2000.0, 0.685, 0.80);
        assert!(log10 < -50.0, "log10 bound {log10} (paper: < -49.9)");
        // Even over MaxSteps = 150 steps the union bound stays negligible.
        let with_steps = log10 + (150.0f64).log10();
        assert!(with_steps < -45.0);
    }

    #[test]
    fn forgery_bound_weakens_with_smaller_committees() {
        let big = certificate_forgery_log10_bound(2000.0, 0.685, 0.80);
        let small = certificate_forgery_log10_bound(200.0, 0.685, 0.80);
        assert!(small > big, "small committee must be easier to forge");
    }

    #[test]
    fn paper_point_h80_tau2000() {
        // §7.5: at h = 80%, τ_step = 2000 with T_step = 0.685 achieves a
        // violation probability below 5×10⁻⁹.
        let p = violation_probability(2000.0, 0.685, 0.80);
        assert!(p < 5e-9, "violation probability at paper params: {p:e}");
    }

    #[test]
    fn smaller_committee_at_h80_fails_harder() {
        let p_2000 = violation_probability(2000.0, 0.685, 0.80);
        let p_500 = violation_probability(500.0, 0.685, 0.80);
        assert!(p_500 > p_2000 * 100.0, "p_500={p_500:e} p_2000={p_2000:e}");
    }

    #[test]
    fn violation_probability_decreases_with_h() {
        let p_77 = best_threshold(2000.0, 0.77).1;
        let p_80 = best_threshold(2000.0, 0.80).1;
        let p_85 = best_threshold(2000.0, 0.85).1;
        assert!(p_77 > p_80, "p77={p_77:e} p80={p_80:e}");
        assert!(p_80 > p_85, "p80={p_80:e} p85={p_85:e}");
    }

    #[test]
    fn solved_committee_size_near_paper_value_at_h80() {
        let (tau, t) = solve_committee_size(0.80, 5e-9, 20_000).expect("feasible");
        // The paper reports τ_step = 2000 at h = 80%; our solver must land
        // in the same regime (the paper rounds τ and T).
        assert!(
            (1200..=2600).contains(&tau),
            "solved τ = {tau} (paper: 2000)"
        );
        assert!((0.6..0.8).contains(&t), "solved T = {t} (paper: 0.685)");
    }

    #[test]
    fn committee_size_grows_as_h_approaches_two_thirds() {
        let tau_78 = solve_committee_size(0.78, 5e-9, 100_000).unwrap().0;
        let tau_82 = solve_committee_size(0.82, 5e-9, 100_000).unwrap().0;
        let tau_90 = solve_committee_size(0.90, 5e-9, 100_000).unwrap().0;
        assert!(tau_78 > tau_82, "τ(78)={tau_78} τ(82)={tau_82}");
        assert!(tau_82 > tau_90, "τ(82)={tau_82} τ(90)={tau_90}");
        // Figure 3 shows the curve rising steeply below 80%: τ(78%) should
        // be well above τ(90%).
        assert!(tau_78 > 2 * tau_90, "τ(78)={tau_78} τ(90)={tau_90}");
    }

    #[test]
    fn infeasible_when_h_too_close_to_two_thirds() {
        // Just above 2/3 the required committee exceeds any practical bound.
        assert!(solve_committee_size(0.667, 5e-9, 5_000).is_none());
    }

    #[test]
    fn final_step_params_have_margin() {
        // τ_final = 10,000 with T_final = 0.74 must give a much smaller
        // violation probability than the per-step parameters, since it has
        // to hold across up to MaxSteps = 150 steps.
        let p_final = final_step_violation(10_000.0, 0.74, 0.80);
        let p_step = violation_probability(2000.0, 0.685, 0.80);
        assert!(p_final < p_step, "final {p_final:e} vs step {p_step:e}");
        assert!(
            p_final * 150.0 < 5e-9,
            "final-step margin too small: {p_final:e}"
        );
    }

    #[test]
    fn figure3_curve_is_monotone_decreasing() {
        let hs = [0.78, 0.80, 0.84, 0.88];
        let curve = figure3_curve(&hs);
        assert_eq!(curve.len(), hs.len());
        for pair in curve.windows(2) {
            assert!(
                pair[0].tau >= pair[1].tau,
                "τ must not increase with h: {:?}",
                curve
            );
        }
    }
}
