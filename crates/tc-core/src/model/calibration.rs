//! Calibration of the intensity model against the simulator — the
//! reproduction of Section 5.3 (Figures 8 and 9).
//!
//! The paper runs `nvprof` over micro-kernels to measure `BW(d̃)` and the
//! compute-headroom `p_c(d̃)`, then fits λ from the balance-point relation
//! `m = λ · (p_c · c)`. We run the same sweep against `tc-gpusim`'s
//! profiler and perform the same origin-constrained least-squares fit.

use crate::model::intensity::{BwCurve, ModelParams};
use tc_gpusim::profiler::{profile_lengths, standard_lengths, ProfilePoint};
use tc_gpusim::GpuConfig;

/// Full calibration output: the fitted parameters plus the raw sweep, so
/// experiments can print the Figure 8 / Figure 9 series.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Fitted model parameters.
    pub params: ModelParams,
    /// The raw profile sweep (Figure 8's two series).
    pub profile: Vec<ProfilePoint>,
    /// The (x = p_c·F_c, y = F_m) pairs behind the λ fit (Figure 9).
    pub fit_points: Vec<(f64, f64)>,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

/// Runs the sweep and fit on the given GPU configuration.
pub fn calibrate(gpu: &GpuConfig) -> Calibration {
    calibrate_with_lengths(gpu, &standard_lengths())
}

/// Calibration over an explicit length grid (tests use a small one).
pub fn calibrate_with_lengths(gpu: &GpuConfig, lengths: &[usize]) -> Calibration {
    let profile = profile_lengths(gpu, lengths);
    let bw_curve = BwCurve::new(
        profile
            .iter()
            .map(|p| (p.list_len, p.shared_bandwidth))
            .collect(),
    );

    // Balance point: m = λ · (p_c · c), with m = √BW(d) and c = √(1/d)
    // (Equation 22). Only memory-dominated lengths (p_c > 0) constrain λ.
    let mut fit_points = Vec::new();
    for p in &profile {
        if p.p_c == 0 {
            continue;
        }
        let c = (1.0 / p.list_len.max(1) as f64).sqrt();
        let m = p.shared_bandwidth.max(0.0).sqrt();
        fit_points.push((p.p_c as f64 * c, m));
    }

    let (lambda, r_squared) = fit_through_origin(&fit_points);
    Calibration {
        params: ModelParams {
            // Guard against degenerate sweeps (e.g. all compute-bound):
            // fall back to the analytic default slope.
            lambda: if lambda.is_finite() && lambda > 0.0 {
                lambda
            } else {
                2.0
            },
            bw_curve,
        },
        profile,
        fit_points,
        r_squared,
    }
}

/// Least squares for `y = λx` through the origin:
/// `λ = Σxy / Σx²`. Returns `(λ, R²)`.
fn fit_through_origin(points: &[(f64, f64)]) -> (f64, f64) {
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    if sxx == 0.0 {
        return (f64::NAN, 0.0);
    }
    let lambda = sxy / sxx;
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / points.len().max(1) as f64;
    let ss_tot: f64 = points.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|(x, y)| (y - lambda * x).powi(2)).sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    (lambda, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_slope() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.5 * i as f64)).collect();
        let (lambda, r2) = fit_through_origin(&pts);
        assert!((lambda - 3.5).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_handles_empty_and_degenerate_input() {
        let (l, _) = fit_through_origin(&[]);
        assert!(l.is_nan());
        let (l, _) = fit_through_origin(&[(0.0, 1.0)]);
        assert!(l.is_nan());
    }

    #[test]
    fn calibration_produces_usable_params() {
        let cal = calibrate_with_lengths(&GpuConfig::titan_xp_like(), &[4, 32, 256, 2048]);
        assert!(cal.params.lambda > 0.0);
        assert_eq!(cal.profile.len(), 4);
        // The fitted curve must preserve the Figure 8 shape.
        assert!(cal.params.bw_curve.eval(2048) > cal.params.bw_curve.eval(4));
    }

    /// Golden values of the default calibration: λ, every `p_c`, every
    /// baseline and every bandwidth, pinned bit for bit. Any change to the
    /// sweep's cost must leave these untouched.
    #[test]
    fn default_calibration_is_pinned() {
        let cal = calibrate(&GpuConfig::default());
        assert_eq!(
            cal.params.lambda.to_bits(),
            24.356274899833963f64.to_bits(),
            "lambda {}",
            cal.params.lambda
        );
        let lengths: Vec<usize> = cal.profile.iter().map(|p| p.list_len).collect();
        assert_eq!(lengths, standard_lengths());
        let p_c: Vec<u32> = cal.profile.iter().map(|p| p.p_c).collect();
        assert_eq!(p_c, [1, 1, 1, 2, 2, 2, 2, 2, 16, 8, 7, 10, 21]);
        let baseline: Vec<u64> = cal.profile.iter().map(|p| p.baseline_cycles).collect();
        assert_eq!(
            baseline,
            [4142, 4398, 4654, 4910, 5166, 5166, 5422, 5678, 7100, 8305, 9125, 10536, 13202]
        );
        let bandwidth: Vec<u64> = cal
            .profile
            .iter()
            .map(|p| p.shared_bandwidth.to_bits())
            .collect();
        assert_eq!(
            bandwidth,
            [
                0x401daab53701daab, // 2: 7.416706904876871
                0x402bf0a20d45802d, // 4: 13.969986357435198
                0x403a67312cfeca34, // 8: 26.40309411259132
                0x404906c72b466310, // 16: 50.05295315682281
                0x4057c94aa126f337, // 32: 95.1451800232288
                0x40676a2576a2576a, // 64: 187.3170731707317
                0x4070d20335eb6a0c, // 128: 269.1257838436002
                0x407578ebe43a1237, // 256: 343.55759070095104
                0x40757fa3b21e498e, // 512: 343.9774647887324
                0x407614093f585025, // 1024: 353.25225767609874
                0x407775f86cda442c, // 2048: 375.3731506849315
                0x40773c1053f90095, // 4096: 371.753986332574
                0x4074de9bd37a6f4e, // 8192: 333.9130434782609
            ]
        );
    }

    #[test]
    fn calibration_is_deterministic() {
        let gpu = GpuConfig::titan_xp_like();
        let a = calibrate_with_lengths(&gpu, &[8, 64, 512]);
        let b = calibrate_with_lengths(&gpu, &[8, 64, 512]);
        assert_eq!(a.params, b.params);
    }
}
