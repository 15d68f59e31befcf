//! Spatial covariance kernels (Matérn family), the θ of the application.

/// Hyper-parameters of the spatial covariance — the θ that ExaGeoStat's
/// outer loop optimizes by maximum likelihood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CovParams {
    /// Partial sill (process variance) σ².
    pub variance: f64,
    /// Range parameter φ > 0 (correlation length).
    pub range: f64,
    /// Matérn smoothness ν ∈ {0.5, 1.5, 2.5} (half-integer forms).
    pub smoothness: f64,
}

/// The Matérn covariance function at half-integer smoothness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Covariance {
    /// Parameters θ.
    pub params: CovParams,
}

impl Covariance {
    /// Build from parameters.
    ///
    /// # Panics
    /// Panics if parameters are not positive or smoothness is not one of
    /// the supported half-integers.
    pub fn new(params: CovParams) -> Self {
        assert!(params.variance > 0.0, "variance must be positive");
        assert!(params.range > 0.0, "range must be positive");
        assert!(
            [0.5, 1.5, 2.5].contains(&params.smoothness),
            "supported smoothness: 0.5, 1.5, 2.5 (got {})",
            params.smoothness
        );
        Covariance { params }
    }

    /// Covariance at distance `d`.
    pub fn cov(&self, d: f64) -> f64 {
        let d = d.abs();
        let s2 = self.params.variance;
        if d == 0.0 {
            return s2;
        }
        let r = d / self.params.range;
        match self.params.smoothness {
            // ν = 1/2: exponential.
            0.5 => s2 * (-r).exp(),
            // ν = 3/2.
            1.5 => {
                let s = 3.0_f64.sqrt() * r;
                s2 * (1.0 + s) * (-s).exp()
            }
            // ν = 5/2.
            _ => {
                let s = 5.0_f64.sqrt() * r;
                s2 * (1.0 + s + s * s / 3.0) * (-s).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_is_variance() {
        for nu in [0.5, 1.5, 2.5] {
            let c = Covariance::new(CovParams { variance: 2.5, range: 0.3, smoothness: nu });
            assert_eq!(c.cov(0.0), 2.5);
        }
    }

    #[test]
    fn exponential_form_at_half() {
        let c = Covariance::new(CovParams { variance: 1.0, range: 2.0, smoothness: 0.5 });
        assert!((c.cov(2.0) - (-1.0_f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn decreasing_in_distance() {
        for nu in [0.5, 1.5, 2.5] {
            let c = Covariance::new(CovParams { variance: 1.0, range: 0.5, smoothness: nu });
            let mut prev = c.cov(0.0);
            for k in 1..50 {
                let v = c.cov(k as f64 * 0.1);
                assert!(v <= prev + 1e-15, "nu={nu}");
                assert!(v > 0.0);
                prev = v;
            }
        }
    }

    #[test]
    fn smoother_kernels_flatter_near_origin() {
        let d = 0.02;
        let v: Vec<f64> = [0.5, 1.5, 2.5]
            .iter()
            .map(|&nu| {
                Covariance::new(CovParams { variance: 1.0, range: 0.5, smoothness: nu }).cov(d)
            })
            .collect();
        assert!(v[0] < v[1] && v[1] < v[2]);
    }

    #[test]
    #[should_panic(expected = "supported smoothness")]
    fn unsupported_smoothness_panics() {
        Covariance::new(CovParams { variance: 1.0, range: 1.0, smoothness: 1.0 });
    }
}
