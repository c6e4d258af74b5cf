//! Calibration anchors and the paper's published claims.
//!
//! The simulator is calibrated once, against a single anchor from the
//! paper's prose (Sect. 5.2): *"the job execution time for 16 GB shuffle
//! data size reduces from 128 to 107 s for IPoIB (32 Gbps) when key/value
//! sizes are increased from 100 bytes to 1 KB"*. Every other number in
//! this module is a **target**, not an input: the benches in
//! `crates/bench` measure how closely the model reproduces them, and
//! `EXPERIMENTS.md` records the outcome.

/// The calibration anchor: MR-AVG, Cluster A, 4 slaves, 16 maps /
/// 8 reduces, 1 KiB key/value `BytesWritable`, 16 GB shuffle, IPoIB QDR.
pub const ANCHOR_IPOIB_16GB_1KB_SECS: f64 = 107.0;

/// Same configuration with 100-byte key/values (Fig. 4(a) at 16 GB).
pub const ANCHOR_IPOIB_16GB_100B_SECS: f64 = 128.0;

/// Paper claims for the Cluster A MRv1 experiments (Sect. 5.2 prose).
pub mod claims {
    /// MR-AVG: job time decreases ~17 % switching 1 GigE → 10 GigE.
    pub const AVG_10GIGE_IMPROVEMENT_PCT: f64 = 17.0;
    /// MR-AVG: up to ~24 % switching 1 GigE → IPoIB QDR.
    pub const AVG_IPOIB_IMPROVEMENT_PCT: f64 = 24.0;
    /// MR-RAND: ~16 % for 10 GigE.
    pub const RAND_10GIGE_IMPROVEMENT_PCT: f64 = 16.0;
    /// MR-RAND: up to ~22 % for IPoIB QDR.
    pub const RAND_IPOIB_IMPROVEMENT_PCT: f64 = 22.0;
    /// MR-SKEW: ~11 % for 10 GigE, ~12 % for IPoIB.
    pub const SKEW_IMPROVEMENT_PCT: f64 = 12.0;
    /// Skewed distribution roughly doubles job time vs MR-AVG (MRv1).
    pub const SKEW_VS_AVG_FACTOR_MRV1: f64 = 2.0;
    /// On YARN (8 slaves / 32 maps / 16 reduces) skew costs > 3x.
    pub const SKEW_VS_AVG_FACTOR_YARN: f64 = 3.0;
    /// YARN runs: ~11 % (10 GigE) and ~18 % (IPoIB) for MR-AVG.
    pub const YARN_AVG_10GIGE_PCT: f64 = 11.0;
    /// See [`YARN_AVG_10GIGE_PCT`].
    pub const YARN_AVG_IPOIB_PCT: f64 = 18.0;
    /// Fig. 7(b) peak receive throughputs in MB/s.
    pub const PEAK_RX_MBPS_GIGE1: f64 = 110.0;
    /// See [`PEAK_RX_MBPS_GIGE1`].
    pub const PEAK_RX_MBPS_GIGE10: f64 = 520.0;
    /// See [`PEAK_RX_MBPS_GIGE1`].
    pub const PEAK_RX_MBPS_IPOIB: f64 = 950.0;
    /// Sect. 6: MRoIB beats IPoIB FDR by 28-30 % on 8 slaves.
    pub const RDMA_IMPROVEMENT_8SLAVES_PCT: f64 = 29.0;
    /// Sect. 6: and by ~20-30 % on 16 slaves.
    pub const RDMA_IMPROVEMENT_16SLAVES_PCT: f64 = 25.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_paper_values() {
        assert_eq!(ANCHOR_IPOIB_16GB_1KB_SECS, 107.0);
        assert_eq!(ANCHOR_IPOIB_16GB_100B_SECS, 128.0);
        let faster_network_claims_more =
            claims::AVG_IPOIB_IMPROVEMENT_PCT > claims::AVG_10GIGE_IMPROVEMENT_PCT;
        let peaks_ordered = claims::PEAK_RX_MBPS_IPOIB > claims::PEAK_RX_MBPS_GIGE10;
        assert!(faster_network_claims_more && peaks_ordered);
    }
}
