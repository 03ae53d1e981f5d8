//! Reference values reported by the paper, echoed by the harnesses next to
//! the measured numbers so every table prints paper-vs-measured side by
//! side.
//!
//! Sources: Fig. 3, Fig. 6, Table II, Table III and Table IV of
//! "zkVC: Fast Zero-Knowledge Proof for Private and Verifiable Computing"
//! (DAC 2025, arXiv:2504.12217).

/// Table II (matmul micro-benchmark on the `[49,320] x [320,512]` patch
/// embedding): (CRPC, PSQ, groth16 prove s, groth16 verify s, spartan prove
/// s, spartan verify s).
pub const TABLE_II: [(bool, bool, f64, f64, f64, f64); 4] = [
    (false, false, 9.12, 0.002, 9.04, 0.36),
    (false, true, 8.69, 0.002, 8.95, 0.32),
    (true, false, 1.01, 0.002, 1.79, 0.08),
    (true, true, 0.73, 0.002, 1.75, 0.05),
];

/// Fig. 3 headline numbers for `[49,64] x [64,128]`: vCNN takes ~9 s and
/// zkVC achieves a ~12.5x reduction over it.
pub const FIG3_VCNN_SECONDS: f64 = 9.0;
/// The speed-up over vCNN the paper reports for the same shape.
pub const FIG3_ZKVC_SPEEDUP: f64 = 12.5;

/// A Table III row: (dataset, model/schedule, top-1 accuracy %, P_G seconds,
/// P_S seconds). Accuracy is echoed from the paper (substitution S4) —
/// it is a training-time property this repository does not re-measure.
pub type VisionRow = (&'static str, &'static str, f64, f64, f64);

/// Table III as reported in the paper.
pub const TABLE_III: [VisionRow; 12] = [
    ("CIFAR-10", "SoftApprox.", 93.5, 725.2, 1006.2),
    ("CIFAR-10", "SoftFree-S", 88.3, 568.4, 742.8),
    ("CIFAR-10", "SoftFree-P", 75.1, 262.7, 300.6),
    ("CIFAR-10", "zkVC", 91.6, 458.6, 591.0),
    ("Tiny-ImageNet", "SoftApprox.", 60.5, 1609.6, 2197.4),
    ("Tiny-ImageNet", "SoftFree-S", 51.4, 1004.9, 1348.8),
    ("Tiny-ImageNet", "SoftFree-P", 42.7, 443.7, 503.6),
    ("Tiny-ImageNet", "zkVC", 55.8, 879.3, 1161.4),
    ("ImageNet", "SoftApprox.", 81.0, 10700.0, 12857.7),
    ("ImageNet", "SoftFree-S", 78.5, 4521.3, 5812.7),
    ("ImageNet", "SoftFree-P", 77.2, 2904.0, 3667.8),
    ("ImageNet", "zkVC", 80.3, 3457.1, 4417.1),
];

/// A Table IV row: (schedule, [MNLI, QNLI, SST-2, MRPC] accuracy %, P_G
/// seconds, P_S seconds).
pub type NlpRow = (&'static str, [f64; 4], f64, f64);

/// Table IV as reported in the paper.
pub const TABLE_IV: [NlpRow; 4] = [
    ("SoftApprox.", [74.5, 83.9, 85.8, 71.2], 1299.5, 1793.3),
    ("SoftFree-S", [72.7, 81.1, 85.2, 70.4], 917.1, 1201.4),
    ("SoftFree-L", [67.3, 75.3, 84.5, 68.7], 680.8, 782.0),
    ("zkVC", [70.8, 80.2, 84.7, 69.3], 798.9, 992.2),
];

/// Fig. 6 proving-time speed-up range of zkVC over the vanilla groth16 /
/// Spartan baselines reported in §V-A.
pub const FIG6_SPEEDUP_RANGE: (f64, f64) = (5.0, 12.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_trends() {
        // CRPC alone gives ~9x on groth16; CRPC+PSQ gives ~12x.
        let base = TABLE_II[0].2;
        let crpc = TABLE_II[2].2;
        let full = TABLE_II[3].2;
        assert!(base / crpc > 8.0);
        assert!(base / full > 12.0);
    }

    #[test]
    fn zkvc_is_never_slowest_in_end_to_end_tables() {
        for chunk in TABLE_III.chunks(4) {
            let zkvc = chunk.iter().find(|r| r.1 == "zkVC").unwrap();
            let softapprox = chunk.iter().find(|r| r.1 == "SoftApprox.").unwrap();
            assert!(zkvc.3 < softapprox.3);
            assert!(zkvc.4 < softapprox.4);
        }
        let zkvc = TABLE_IV.iter().find(|r| r.0 == "zkVC").unwrap();
        assert!(zkvc.2 < TABLE_IV[0].2);
    }
}
