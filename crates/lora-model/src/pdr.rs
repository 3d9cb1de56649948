//! Closed-form packet delivery and reception ratios (paper Eq. 5, 10, 13).
//!
//! Under Rayleigh fading (`g ~ Exp(1)`), the probability that a link clears
//! both reception conditions of Eq. (7) factors into the exponential closed
//! form of Eq. (10):
//!
//! ```text
//! PDR_{i,k} = exp(−(th_{s_i}·(h_i·Ī_{i,k} + N₀) + ss_k) / (p_i·a(d_{i,k})))
//! ```
//!
//! with everything in linear (mW) units: `th` the SNR threshold as a ratio,
//! `h_i` the contention overlap probability, `Ī` the mean co-group
//! interference power, `N₀` the noise power and `ss` the sensitivity.
//! The multi-gateway reception ratio then combines the per-gateway PDRs
//! weighted by the capacity probabilities `θ` (Eq. 13).

use serde::{Deserialize, Serialize};

/// Which analytical form computes the per-gateway PDR.
///
/// Paper Eq. (10) multiplies the survival probabilities of the SNR
/// condition and the sensitivity condition as if they were independent.
/// They are not: both are events on the *same* exponential fading gain
/// `g`, and by Eq. (11) the sensitivity equals `th · N₀`, so without
/// interference the two conditions coincide and the product *squares* the
/// true probability. [`PdrForm::JointExponential`] computes the exact
/// joint probability `P{g ≥ max(a, b)} = exp(−max(a, b))` instead, which
/// matches the packet-level simulator at the coverage boundary and is
/// the form [`crate::NetworkModel`] always evaluates; the paper's literal
/// form remains available for fidelity comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PdrForm {
    /// The paper's literal Eq. (10): product of the two survival terms.
    PaperEq10,
    /// The exact joint probability over the shared fading gain (default).
    #[default]
    JointExponential,
}

/// Per-gateway packet delivery ratio in the selected form, linear units.
///
/// See [`pdr`] for the parameter meanings.
pub fn pdr_with(
    form: PdrForm,
    mean_rx_mw: f64,
    snr_threshold_lin: f64,
    overlap_probability: f64,
    mean_interference_mw: f64,
    noise_mw: f64,
    sensitivity_mw: f64,
) -> f64 {
    if mean_rx_mw <= 0.0 {
        return 0.0;
    }
    match form {
        PdrForm::PaperEq10 => pdr(
            mean_rx_mw,
            snr_threshold_lin,
            overlap_probability,
            mean_interference_mw,
            noise_mw,
            sensitivity_mw,
        ),
        PdrForm::JointExponential => {
            let snr_term =
                snr_threshold_lin * (overlap_probability * mean_interference_mw + noise_mw);
            (-snr_term.max(sensitivity_mw) / mean_rx_mw).exp()
        }
    }
}

/// Per-gateway packet delivery ratio, paper Eq. (10), linear units.
///
/// * `mean_rx_mw` — `p_i · a(d_{i,k})`, the mean received power;
/// * `snr_threshold_lin` — `th_{s_i}` as a linear ratio;
/// * `overlap_probability` — `h_i` (paper Eq. 14);
/// * `mean_interference_mw` — `Ī_{i,k}`;
/// * `noise_mw` — `N₀`;
/// * `sensitivity_mw` — `ss_k` for the device's SF.
///
/// Returns a probability in `[0, 1]`; a zero `mean_rx_mw` (unreachable
/// gateway) gives 0.
pub fn pdr(
    mean_rx_mw: f64,
    snr_threshold_lin: f64,
    overlap_probability: f64,
    mean_interference_mw: f64,
    noise_mw: f64,
    sensitivity_mw: f64,
) -> f64 {
    debug_assert!(mean_rx_mw >= 0.0);
    debug_assert!((0.0..=1.0).contains(&overlap_probability));
    debug_assert!(mean_interference_mw >= 0.0 && noise_mw >= 0.0 && sensitivity_mw >= 0.0);
    if mean_rx_mw <= 0.0 {
        return 0.0;
    }
    let numerator = snr_threshold_lin * (overlap_probability * mean_interference_mw + noise_mw)
        + sensitivity_mw;
    (-numerator / mean_rx_mw).exp()
}

/// Multi-gateway packet reception ratio, paper Eq. (13):
/// `PRR = 1 − Π_k (1 − θ_{i,k}·PDR_{i,k})`.
///
/// `per_gateway` yields `(θ, PDR)` pairs; both must be probabilities.
///
/// ```
/// // Two mediocre gateways beat one: 1 − 0.5² = 0.75.
/// let prr = lora_model::pdr::prr([(1.0, 0.5), (1.0, 0.5)]);
/// assert!((prr - 0.75).abs() < 1e-12);
/// ```
pub fn prr(per_gateway: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut miss_all = 1.0;
    for (theta, pdr) in per_gateway {
        debug_assert!((0.0..=1.0).contains(&theta), "theta out of range: {theta}");
        debug_assert!((0.0..=1.0).contains(&pdr), "pdr out of range: {pdr}");
        miss_all *= 1.0 - theta * pdr;
    }
    (1.0 - miss_all).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOISE: f64 = 2e-12; // ≈ −117 dBm in mW
    const SENS7: f64 = 5.01e-13; // ≈ −123 dBm
    const TH7: f64 = 0.251; // −6 dB

    #[test]
    fn strong_link_without_interference_is_near_perfect() {
        let p = pdr(1e-7, TH7, 0.0, 0.0, NOISE, SENS7);
        assert!(p > 0.999_9, "{p}");
    }

    #[test]
    fn at_sensitivity_boundary_pdr_is_exp_minus_two_ish() {
        // Mean rx exactly at sensitivity: the two independent survival
        // factors of Eq. (10) each cost ≈ e⁻¹ (since ss ≈ th·N₀).
        let p = pdr(SENS7, TH7, 0.0, 0.0, NOISE, SENS7);
        let expected = (-(TH7 * NOISE + SENS7) / SENS7).exp();
        assert!((p - expected).abs() < 1e-12);
        assert!((0.1..0.2).contains(&p), "{p}");
    }

    #[test]
    fn pdr_monotone_in_power_and_antitone_in_interference() {
        let base = pdr(1e-10, TH7, 0.5, 1e-10, NOISE, SENS7);
        assert!(pdr(2e-10, TH7, 0.5, 1e-10, NOISE, SENS7) > base);
        assert!(pdr(1e-10, TH7, 0.5, 2e-10, NOISE, SENS7) < base);
        assert!(pdr(1e-10, TH7, 0.8, 1e-10, NOISE, SENS7) < base);
    }

    #[test]
    fn unreachable_gateway_gives_zero() {
        assert_eq!(pdr(0.0, TH7, 0.0, 0.0, NOISE, SENS7), 0.0);
    }

    #[test]
    fn prr_improves_with_gateways() {
        let one = prr([(1.0, 0.6)]);
        let two = prr([(1.0, 0.6), (1.0, 0.6)]);
        let three = prr([(1.0, 0.6), (1.0, 0.6), (1.0, 0.6)]);
        assert!(one < two && two < three);
        assert!((one - 0.6).abs() < 1e-12);
    }

    #[test]
    fn theta_scales_gateway_contribution() {
        // A fully busy gateway (θ = 0) contributes nothing.
        assert_eq!(prr([(0.0, 1.0)]), 0.0);
        let limited = prr([(0.5, 0.8)]);
        assert!((limited - 0.4).abs() < 1e-12);
    }

    #[test]
    fn prr_of_empty_gateway_set_is_zero() {
        assert_eq!(prr(std::iter::empty()), 0.0);
    }

    #[test]
    fn joint_form_is_exp_minus_one_at_boundary() {
        // Without interference the two conditions coincide, so the exact
        // probability at mean rx == sensitivity is e^−(ss/ss)·(th·N0 vs ss
        // whichever larger) ≈ e^−1 — what the packet simulator measures.
        let p = pdr_with(
            PdrForm::JointExponential,
            SENS7,
            TH7,
            0.0,
            0.0,
            NOISE,
            SENS7,
        );
        let expected = (-(TH7 * NOISE).max(SENS7) / SENS7).exp();
        assert!((p - expected).abs() < 1e-12);
        assert!((0.3..0.4).contains(&p), "{p}");
    }

    #[test]
    fn paper_form_squares_the_boundary_probability() {
        let joint = pdr_with(
            PdrForm::JointExponential,
            SENS7,
            TH7,
            0.0,
            0.0,
            NOISE,
            SENS7,
        );
        let paper = pdr_with(PdrForm::PaperEq10, SENS7, TH7, 0.0, 0.0, NOISE, SENS7);
        // th·N0 ≈ ss here, so the product ≈ joint².
        assert!(
            (paper - joint * joint).abs() < 0.01,
            "{paper} vs {}",
            joint * joint
        );
        assert!(paper < joint);
    }

    #[test]
    fn forms_agree_when_interference_dominates() {
        // With heavy interference th·(h·Ī + N0) ≫ ss: the sensitivity term
        // is negligible and both forms converge.
        let rx = 1e-9;
        let heavy = 1e-7;
        let joint = pdr_with(PdrForm::JointExponential, rx, TH7, 1.0, heavy, NOISE, SENS7);
        let paper = pdr_with(PdrForm::PaperEq10, rx, TH7, 1.0, heavy, NOISE, SENS7);
        assert!(
            (joint - paper).abs() / joint.max(1e-30) < 0.1,
            "{joint} vs {paper}"
        );
    }

    #[test]
    fn joint_form_is_still_a_probability_and_monotone() {
        let base = pdr_with(
            PdrForm::JointExponential,
            1e-10,
            TH7,
            0.5,
            1e-10,
            NOISE,
            SENS7,
        );
        assert!((0.0..=1.0).contains(&base));
        assert!(
            pdr_with(
                PdrForm::JointExponential,
                2e-10,
                TH7,
                0.5,
                1e-10,
                NOISE,
                SENS7
            ) > base
        );
        assert!(
            pdr_with(
                PdrForm::JointExponential,
                1e-10,
                TH7,
                0.5,
                3e-10,
                NOISE,
                SENS7
            ) < base
        );
        assert_eq!(
            pdr_with(PdrForm::JointExponential, 0.0, TH7, 0.0, 0.0, NOISE, SENS7),
            0.0
        );
    }
}
