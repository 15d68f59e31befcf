//! The snapshot itself and its binary codec.

use crate::codec::{Reader, Writer};
use crate::crc32;
use crate::error::StoreError;
use crate::signature::{GroupSig, PlatformSignature};

/// File magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"ADSS";

/// Current snapshot format version. Decoders accept any version up to
/// this one; a higher version is [`StoreError::FutureVersion`].
pub const FORMAT_VERSION: u32 = 1;

/// Fitted GP hyper-parameters, as carried across sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct GpHyper {
    /// Kernel family name (`"exponential"` or `"squared-exponential"`).
    pub kernel_family: String,
    /// Correlation length θ.
    pub theta: f64,
    /// Process variance α.
    pub process_var: f64,
    /// Observation-noise (nugget) variance.
    pub noise_var: f64,
    /// GLS trend coefficients, in the trend's basis order.
    pub trend_coefficients: Vec<f64>,
}

/// Everything a GP strategy knows at the end of a session, in a form a
/// later session can start from.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateSnapshot {
    /// The platform/workload this was fitted on.
    pub signature: PlatformSignature,
    /// Canonical strategy name the fit belongs to.
    pub strategy: String,
    /// Action-space size (`1..=max_nodes`) the fit is defined over.
    pub max_nodes: usize,
    /// Homogeneous groups as 1-based inclusive `(first, last)` ranges.
    pub groups: Vec<(usize, usize)>,
    /// LP lower-bound curve, one value per action, if the space had one.
    pub lp: Option<Vec<f64>>,
    /// The session's `(action, duration)` history, in iteration order.
    pub observations: Vec<(usize, f64)>,
    /// Fitted hyper-parameters, when the strategy had a fitted model.
    pub hyper: Option<GpHyper>,
}

// Section tags.
const SEC_SIGN: [u8; 4] = *b"SIGN";
const SEC_META: [u8; 4] = *b"META";
const SEC_SPAC: [u8; 4] = *b"SPAC";
const SEC_HIST: [u8; 4] = *b"HIST";
const SEC_HYPR: [u8; 4] = *b"HYPR";

impl SurrogateSnapshot {
    /// Encode to the on-disk byte form (magic, version, CRC-32, sections).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Writer::new();

        let mut sign = Writer::new();
        sign.u64(self.signature.workload);
        sign.u32(self.signature.groups.len() as u32);
        for g in &self.signature.groups {
            sign.u32(g.count);
            sign.f64(g.speed);
            sign.f64(g.bw);
        }
        body.section(&SEC_SIGN, &sign.into_bytes());

        let mut meta = Writer::new();
        meta.str(&self.strategy);
        body.section(&SEC_META, &meta.into_bytes());

        let mut spac = Writer::new();
        spac.u64(self.max_nodes as u64);
        spac.u32(self.groups.len() as u32);
        for &(lo, hi) in &self.groups {
            spac.u64(lo as u64);
            spac.u64(hi as u64);
        }
        match &self.lp {
            None => spac.u8(0),
            Some(lp) => {
                spac.u8(1);
                spac.u64(lp.len() as u64);
                for &v in lp {
                    spac.f64(v);
                }
            }
        }
        body.section(&SEC_SPAC, &spac.into_bytes());

        let mut hist = Writer::new();
        hist.u64(self.observations.len() as u64);
        for &(a, y) in &self.observations {
            hist.u64(a as u64);
            hist.f64(y);
        }
        body.section(&SEC_HIST, &hist.into_bytes());

        if let Some(h) = &self.hyper {
            let mut hypr = Writer::new();
            hypr.str(&h.kernel_family);
            hypr.f64(h.theta);
            hypr.f64(h.process_var);
            hypr.f64(h.noise_var);
            hypr.u64(h.trend_coefficients.len() as u64);
            for &c in &h.trend_coefficients {
                hypr.f64(c);
            }
            body.section(&SEC_HYPR, &hypr.into_bytes());
        }

        let body = body.into_bytes();
        let mut out = Vec::with_capacity(12 + body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode from the on-disk byte form. Every failure is a typed
    /// [`StoreError`]; corrupt input never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<SurrogateSnapshot, StoreError> {
        if bytes.len() < 4 {
            return Err(StoreError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        if bytes.len() < 12 {
            return Err(StoreError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version > FORMAT_VERSION {
            return Err(StoreError::FutureVersion { found: version });
        }
        let expected = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let body = &bytes[12..];
        let found = crc32(body);
        if found != expected {
            return Err(StoreError::BadChecksum { expected, found });
        }

        let mut signature = None;
        let mut strategy = None;
        let mut space = None;
        let mut observations = None;
        let mut hyper = None;

        let mut r = Reader::new(body);
        while !r.is_empty() {
            let (tag, mut s) = r.section()?;
            match tag {
                SEC_SIGN => {
                    let workload = s.u64()?;
                    let n = s.u32()? as usize;
                    let mut groups = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        groups.push(GroupSig { count: s.u32()?, speed: s.f64()?, bw: s.f64()? });
                    }
                    signature = Some(PlatformSignature { workload, groups });
                }
                SEC_META => strategy = Some(s.str()?),
                SEC_SPAC => {
                    let max_nodes = s.len()?;
                    let n = s.u32()? as usize;
                    let mut groups = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        groups.push((s.len()?, s.len()?));
                    }
                    let lp = match s.u8()? {
                        0 => None,
                        1 => {
                            let k = s.len()?;
                            let mut lp = Vec::with_capacity(k.min(1 << 16));
                            for _ in 0..k {
                                lp.push(s.f64()?);
                            }
                            Some(lp)
                        }
                        other => {
                            return Err(StoreError::Corrupt(format!("bad lp flag {other}")));
                        }
                    };
                    space = Some((max_nodes, groups, lp));
                }
                SEC_HIST => {
                    let n = s.len()?;
                    let mut obs = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        obs.push((s.len()?, s.f64()?));
                    }
                    observations = Some(obs);
                }
                SEC_HYPR => {
                    let kernel_family = s.str()?;
                    let theta = s.f64()?;
                    let process_var = s.f64()?;
                    let noise_var = s.f64()?;
                    let n = s.len()?;
                    let mut trend_coefficients = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        trend_coefficients.push(s.f64()?);
                    }
                    hyper = Some(GpHyper {
                        kernel_family,
                        theta,
                        process_var,
                        noise_var,
                        trend_coefficients,
                    });
                }
                _ => {} // unknown section within a known version: skip
            }
        }

        let (max_nodes, groups, lp) =
            space.ok_or_else(|| StoreError::Corrupt("missing SPAC section".into()))?;
        Ok(SurrogateSnapshot {
            signature: signature
                .ok_or_else(|| StoreError::Corrupt("missing SIGN section".into()))?,
            strategy: strategy.ok_or_else(|| StoreError::Corrupt("missing META section".into()))?,
            max_nodes,
            groups,
            lp,
            observations: observations
                .ok_or_else(|| StoreError::Corrupt("missing HIST section".into()))?,
            hyper,
        })
    }

    /// Check that this snapshot's action space is exactly the live one.
    ///
    /// A snapshot fitted on a different space — most concretely, one
    /// taken *before* a fault shrank the platform — carries observations
    /// at actions the live space no longer has; folding those in
    /// verbatim would let the surrogate propose excluded actions. Exact
    /// warm-start paths must call this and refuse on `Err`; deliberate
    /// cross-platform transfer goes through
    /// [`project_onto`](SurrogateSnapshot::project_onto) instead.
    pub fn matches_space(
        &self,
        max_nodes: usize,
        groups: &[(usize, usize)],
    ) -> Result<(), StoreError> {
        if self.max_nodes != max_nodes {
            return Err(StoreError::SpaceMismatch(format!(
                "snapshot has {} actions, live space has {max_nodes}",
                self.max_nodes
            )));
        }
        if self.groups != groups {
            return Err(StoreError::SpaceMismatch(format!(
                "snapshot groups {:?} differ from live groups {groups:?}",
                self.groups
            )));
        }
        Ok(())
    }

    /// Project this snapshot onto a *different* live space — the
    /// deliberate cross-platform transfer transformation.
    ///
    /// Actions are mapped by relative position (`a' = round(a·N'/N)`,
    /// clamped into `1..=N'`) and durations rescaled by the LP-bound
    /// ratio `LP'(a') / LP(a)` where both curves are available (the LP
    /// bound is the problem's work/capacity scale, so this transfers the
    /// curve *shape* and lets the ratio absorb the platform's absolute
    /// speed). Hyper-parameters follow: θ scales with the action-axis
    /// stretch, variances with the squared mean duration scale. The
    /// result's space fields equal the target space, so it passes
    /// [`matches_space`](SurrogateSnapshot::matches_space) — projected
    /// priors can never propose out-of-space actions.
    pub fn project_onto(
        &self,
        max_nodes: usize,
        groups: &[(usize, usize)],
        lp: Option<&[f64]>,
    ) -> SurrogateSnapshot {
        let n_from = self.max_nodes.max(1) as f64;
        let n_to = max_nodes.max(1) as f64;
        let mut observations = Vec::with_capacity(self.observations.len());
        let mut scales = Vec::new();
        for &(a, y) in &self.observations {
            let a_to = ((a as f64 * n_to / n_from).round() as usize).clamp(1, max_nodes);
            let scale = match (lp, &self.lp) {
                (Some(lp_to), Some(lp_from))
                    if a_to <= lp_to.len() && a <= lp_from.len() && lp_from[a - 1] > 0.0 =>
                {
                    lp_to[a_to - 1] / lp_from[a - 1]
                }
                _ => 1.0,
            };
            scales.push(scale);
            observations.push((a_to, y * scale));
        }
        let mean_scale =
            if scales.is_empty() { 1.0 } else { scales.iter().sum::<f64>() / scales.len() as f64 };
        let hyper = self.hyper.as_ref().map(|h| GpHyper {
            kernel_family: h.kernel_family.clone(),
            theta: h.theta * n_to / n_from,
            process_var: h.process_var * mean_scale * mean_scale,
            noise_var: h.noise_var * mean_scale * mean_scale,
            trend_coefficients: Vec::new(), // trend shape does not transfer
        });
        SurrogateSnapshot {
            signature: self.signature.clone(),
            strategy: self.strategy.clone(),
            max_nodes,
            groups: groups.to_vec(),
            lp: lp.map(|v| v.to_vec()),
            observations,
            hyper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> SurrogateSnapshot {
        SurrogateSnapshot {
            signature: PlatformSignature::new(
                42,
                vec![
                    GroupSig { count: 2, speed: 500.0, bw: 100.0 },
                    GroupSig { count: 6, speed: 200.0, bw: 100.0 },
                ],
            ),
            strategy: "GP-discontinuous".into(),
            max_nodes: 8,
            groups: vec![(1, 2), (3, 8)],
            lp: Some((1..=8).map(|n| 30.0 / n as f64).collect()),
            observations: vec![(8, 4.5), (1, 30.25), (4, 8.0), (8, 4.625)],
            hyper: Some(GpHyper {
                kernel_family: "exponential".into(),
                theta: 1.0,
                process_var: 2.5,
                noise_var: 0.01,
                trend_coefficients: vec![3.0, -0.25, 0.5],
            }),
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = SurrogateSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn no_hyper_no_lp_round_trips() {
        let mut snap = sample();
        snap.hyper = None;
        snap.lp = None;
        let back = SurrogateSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(SurrogateSnapshot::from_bytes(&bytes), Err(StoreError::BadMagic)));
        assert!(matches!(SurrogateSnapshot::from_bytes(b"PK"), Err(StoreError::Truncated)));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match SurrogateSnapshot::from_bytes(&bytes) {
            Err(StoreError::FutureVersion { found }) => assert_eq!(found, FORMAT_VERSION + 1),
            other => panic!("expected FutureVersion, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = SurrogateSnapshot::from_bytes(&bytes[..cut])
                .expect_err("truncated snapshot must not decode");
            assert!(
                matches!(
                    err,
                    StoreError::Truncated | StoreError::BadChecksum { .. } | StoreError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_in_the_body_trips_the_checksum() {
        let bytes = sample().to_bytes();
        for i in (12..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                matches!(
                    SurrogateSnapshot::from_bytes(&corrupt),
                    Err(StoreError::BadChecksum { .. })
                ),
                "flip at {i} went undetected"
            );
        }
    }

    #[test]
    fn matches_space_accepts_equal_and_rejects_shrunk() {
        let snap = sample();
        assert!(snap.matches_space(8, &[(1, 2), (3, 8)]).is_ok());
        assert!(matches!(
            snap.matches_space(7, &[(1, 2), (3, 7)]),
            Err(StoreError::SpaceMismatch(_))
        ));
        assert!(matches!(snap.matches_space(8, &[(1, 8)]), Err(StoreError::SpaceMismatch(_))));
    }

    #[test]
    fn projection_lands_inside_the_target_space() {
        let snap = sample();
        let lp_to: Vec<f64> = (1..=5).map(|n| 60.0 / n as f64).collect();
        let p = snap.project_onto(5, &[(1, 5)], Some(&lp_to));
        assert!(p.matches_space(5, &[(1, 5)]).is_ok());
        assert!(p.observations.iter().all(|&(a, _)| (1..=5).contains(&a)));
        // LP ratio doubles the duration level (60/n vs 30/n at same n).
        let (a, y) = p.observations[2]; // source (4, 8.0) -> a' = round(4*5/8) = 3
        assert_eq!(a, 3);
        assert!((y - 8.0 * (60.0 / 3.0) / (30.0 / 4.0)).abs() < 1e-12);
    }

    proptest! {
        /// Random snapshots round-trip bit-identically (floats compared
        /// by `to_bits`, including non-finite values).
        #[test]
        fn prop_round_trip_bit_identical(
            workload in 0u64..(1 << 62),
            n_groups in 0usize..4,
            max_nodes in 1usize..40,
            n_obs in 0usize..30,
            lp_flag in 0u32..2,
            hyper_flag in 0u32..2,
            raw in collection::vec(0u64..(1 << 63), 0..200),
        ) {
            let with_lp = lp_flag == 1;
            let with_hyper = hyper_flag == 1;
            // Derive all content deterministically from the raw pool so
            // the generator stays simple.
            let mut pool = raw.into_iter().cycle();
            let mut f = || f64::from_bits(pool.next().unwrap_or(0x3FF0_0000_0000_0000));
            let signature = PlatformSignature::new(
                workload,
                (0..n_groups)
                    .map(|i| GroupSig { count: i as u32 + 1, speed: f(), bw: f() })
                    .collect(),
            );
            let snap = SurrogateSnapshot {
                signature,
                strategy: format!("strategy-{}", workload % 7),
                max_nodes,
                groups: vec![(1, max_nodes)],
                lp: with_lp.then(|| (0..max_nodes).map(|_| f()).collect()),
                observations: (0..n_obs).map(|i| (i % max_nodes + 1, f())).collect(),
                hyper: with_hyper.then(|| GpHyper {
                    kernel_family: "exponential".into(),
                    theta: f(),
                    process_var: f(),
                    noise_var: f(),
                    trend_coefficients: (0..3).map(|_| f()).collect(),
                }),
            };
            let back = SurrogateSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            // PartialEq on f64 fails for NaN; compare the byte encodings,
            // which is exactly the to_bits comparison everywhere.
            prop_assert_eq!(back.to_bytes(), snap.to_bytes());
        }
    }
}
