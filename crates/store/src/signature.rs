//! Platform signatures: what makes two tuning problems "the same
//! machine", and how alike two different machines are.

/// One homogeneous node group of a platform, fastest group first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSig {
    /// Nodes in the group.
    pub count: u32,
    /// Per-node peak compute (GFlop/s); `0.0` when unknown.
    pub speed: f64,
    /// Per-node network bandwidth (MB/s); `0.0` when unknown.
    pub bw: f64,
}

/// The key a snapshot is stored under: a workload identifier plus the
/// platform's homogeneous group structure (counts, speeds, bandwidths),
/// fastest group first.
///
/// Two signatures with equal [`key`](PlatformSignature::key)s describe
/// the same tuning problem; [`similarity`](PlatformSignature::similarity)
/// grades how transferable a fit from one is to the other.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSignature {
    /// Workload identifier (e.g. a hash of matrix size and scale);
    /// `0` when unknown.
    pub workload: u64,
    /// Homogeneous groups, fastest first.
    pub groups: Vec<GroupSig>,
}

impl PlatformSignature {
    /// A signature with known workload and groups.
    pub fn new(workload: u64, groups: Vec<GroupSig>) -> Self {
        PlatformSignature { workload, groups }
    }

    /// Total node count across all groups.
    pub fn n_nodes(&self) -> usize {
        self.groups.iter().map(|g| g.count as usize).sum()
    }

    /// Deterministic 64-bit key (FNV-1a over the canonical encoding) —
    /// the store's filename component. Equal signatures, equal keys;
    /// float features hash by bit pattern.
    pub fn key(&self) -> u64 {
        let mut w = crate::codec::Writer::new();
        w.u64(self.workload);
        w.u64(self.groups.len() as u64);
        for g in &self.groups {
            w.u32(g.count);
            w.f64(g.speed);
            w.f64(g.bw);
        }
        crate::fnv1a(&w.into_bytes())
    }

    /// Field-for-field equality with floats compared by bit pattern —
    /// unlike `==`, true of a signature and itself even with a NaN
    /// feature.
    pub(crate) fn same_bits(&self, other: &PlatformSignature) -> bool {
        self.workload == other.workload
            && self.groups.len() == other.groups.len()
            && self.groups.iter().zip(&other.groups).all(|(a, b)| {
                a.count == b.count
                    && a.speed.to_bits() == b.speed.to_bits()
                    && a.bw.to_bits() == b.bw.to_bits()
            })
    }

    /// How transferable a fit on `other` is to `self`, in `[0, 1]`.
    ///
    /// Identical signatures score `1.0`. Groups are compared position by
    /// position (both are fastest-first): each contributes the product
    /// of min/max ratios of count, speed and bandwidth; a group present
    /// on only one side contributes `0`. A feature that is unknown
    /// (`<= 0`) on either side is neutral — so signatures built from a
    /// bare action space (no hardware knowledge) still rank platforms
    /// with similar group structure above dissimilar ones. A workload
    /// mismatch halves the score: the response *shape* transfers across
    /// matrix sizes even when the absolute level does not.
    pub fn similarity(&self, other: &PlatformSignature) -> f64 {
        let ratio = |a: f64, b: f64| -> f64 {
            if a <= 0.0 || b <= 0.0 {
                1.0
            } else if a < b {
                a / b
            } else {
                b / a
            }
        };
        let n = self.groups.len().max(other.groups.len());
        if n == 0 {
            return 0.0;
        }
        let mut structure = 0.0;
        for i in 0..n {
            // An unmatched group (present on only one side) contributes 0.
            if let (Some(a), Some(b)) = (self.groups.get(i), other.groups.get(i)) {
                structure += ratio(a.count as f64, b.count as f64)
                    * ratio(a.speed, b.speed)
                    * ratio(a.bw, b.bw);
            }
        }
        let structure = structure / n as f64;
        let workload = if self.workload == other.workload { 1.0 } else { 0.5 };
        workload * structure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(workload: u64, groups: &[(u32, f64, f64)]) -> PlatformSignature {
        PlatformSignature::new(
            workload,
            groups.iter().map(|&(count, speed, bw)| GroupSig { count, speed, bw }).collect(),
        )
    }

    #[test]
    fn identical_signatures_have_equal_keys_and_unit_similarity() {
        let a = sig(7, &[(2, 500.0, 100.0), (6, 200.0, 100.0)]);
        let b = a.clone();
        assert_eq!(a.key(), b.key());
        assert_eq!(a.similarity(&b), 1.0);
    }

    #[test]
    fn key_value_is_pinned() {
        // File names embed the key: a store written by an earlier build
        // must keep resolving. Value computed outside this crate (the
        // hash of `crate::fnv1a` over workload, group count, then
        // count/speed bits/bw bits, all LE).
        let a = sig(7, &[(2, 500.0, 100.0), (6, 200.0, 100.0)]);
        assert_eq!(a.key(), 0xcb0c_baf0_f21d_9802);
    }

    #[test]
    fn any_field_change_changes_the_key() {
        let base = sig(7, &[(2, 500.0, 100.0)]);
        assert_ne!(base.key(), sig(8, &[(2, 500.0, 100.0)]).key());
        assert_ne!(base.key(), sig(7, &[(3, 500.0, 100.0)]).key());
        assert_ne!(base.key(), sig(7, &[(2, 501.0, 100.0)]).key());
        assert_ne!(base.key(), sig(7, &[(2, 500.0, 101.0)]).key());
        assert_ne!(base.key(), sig(7, &[(2, 500.0, 100.0), (1, 1.0, 1.0)]).key());
    }

    #[test]
    fn similar_platforms_rank_above_dissimilar_ones() {
        let target = sig(7, &[(2, 500.0, 100.0), (6, 200.0, 100.0)]);
        let close = sig(7, &[(2, 500.0, 100.0), (8, 200.0, 100.0)]); // 6 vs 8 small nodes
        let far = sig(7, &[(64, 50.0, 10.0)]);
        let s_close = target.similarity(&close);
        let s_far = target.similarity(&far);
        assert!(s_close > s_far, "close {s_close} vs far {s_far}");
        assert!((0.0..1.0).contains(&s_close));
    }

    #[test]
    fn workload_mismatch_halves_similarity() {
        let a = sig(7, &[(4, 100.0, 10.0)]);
        let b = sig(9, &[(4, 100.0, 10.0)]);
        assert_eq!(a.similarity(&b), 0.5);
    }

    #[test]
    fn unknown_features_are_neutral() {
        // A signature built from a bare action space (speeds/bws = 0)
        // still matches its richly-described twin on structure.
        let bare = sig(0, &[(2, 0.0, 0.0), (6, 0.0, 0.0)]);
        let rich = sig(0, &[(2, 500.0, 100.0), (6, 200.0, 100.0)]);
        assert_eq!(bare.similarity(&rich), 1.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = sig(7, &[(2, 500.0, 100.0), (6, 200.0, 100.0)]);
        let b = sig(7, &[(3, 450.0, 100.0), (10, 180.0, 50.0), (4, 90.0, 50.0)]);
        assert_eq!(a.similarity(&b).to_bits(), b.similarity(&a).to_bits());
    }
}
