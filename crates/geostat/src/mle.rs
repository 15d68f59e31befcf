//! Outer-loop optimizers for the likelihood: the application's own
//! hyper-parameter search (every evaluation = one multi-phase iteration).

/// Golden-section search for the maximum of a unimodal function on
/// `[lo, hi]`; returns `(argmax, max)` after `iters` shrink steps.
pub fn golden_section_max(
    mut f: impl FnMut(f64) -> f64,
    mut lo: f64,
    mut hi: f64,
    iters: usize,
) -> (f64, f64) {
    assert!(hi > lo, "invalid bracket");
    let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for _ in 0..iters {
        if f1 >= f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = f(x2);
        }
    }
    if f1 >= f2 {
        (x1, f1)
    } else {
        (x2, f2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_peak() {
        let (x, v) = golden_section_max(|x| -(x - 2.5).powi(2) + 7.0, 0.0, 10.0, 40);
        assert!((x - 2.5).abs() < 1e-6);
        assert!((v - 7.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_handles_boundary_max() {
        let (x, _) = golden_section_max(|x| x, 0.0, 1.0, 40);
        assert!(x > 0.99);
    }
}
