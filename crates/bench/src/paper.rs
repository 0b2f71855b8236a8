//! Reference values transcribed from the paper, used for side-by-side
//! comparison in every regenerated table and figure of the paper's die.

use serscale_soc::PlatformSpec;

/// Whether `spec` is the die the paper measured — the built-in X-Gene 2
/// (`platforms/xgene2.json`), by value — and so the only one whose reports
/// and self-check compare against the numbers below.
pub fn is_papers_die(spec: &PlatformSpec) -> bool {
    *spec == PlatformSpec::xgene2()
}

/// One Table 2 row:
/// `(pmd_mv, duration_min, fluence, nyc_years, error_events,
///   error_rate_per_min, memory_upsets, upset_rate_per_min, ser_fit_mbit)`.
pub type Table2Row = (u32, f64, f64, f64, u64, f64, u64, f64, f64);

/// Table 2: the four beam test sessions.
pub const TABLE2: [Table2Row; 4] = [
    (980, 1651.0, 1.49e11, 1.30e6, 95, 5.75e-2, 1669, 1.011, 2.08),
    (930, 1618.0, 1.46e11, 1.28e6, 97, 5.99e-2, 1743, 1.077, 2.22),
    (920, 453.0, 4.08e10, 3.58e5, 141, 3.11e-1, 506, 1.117, 2.30),
    (790, 165.0, 1.48e10, 1.30e5, 13, 7.87e-2, 195, 1.182, 2.45),
];

/// Table 3: voltage levels `(label, freq_mhz, pmd_mv, soc_mv)`.
pub const TABLE3: [(&str, u32, u32, u32); 4] = [
    ("Nominal", 2400, 980, 950),
    ("Safe", 2400, 930, 925),
    ("Vmin", 2400, 920, 920),
    ("Vmin", 900, 790, 950),
];

/// Figure 4 anchors: `(freq_mhz, safe_vmin_mv, full_failure_mv)`.
pub const FIGURE4: [(u32, u32, u32); 2] = [(2400, 920, 900), (900, 790, 780)];

/// Figure 5: upsets/minute per benchmark at (980, 930, 920) mV, 2.4 GHz.
pub const FIGURE5: [(&str, [f64; 3]); 7] = [
    ("CG", [0.87, 0.84, 0.58]),
    ("LU", [1.15, 1.09, 1.03]),
    ("FT", [1.11, 1.21, 1.37]),
    ("EP", [1.03, 1.22, 1.17]),
    ("MG", [0.94, 1.02, 1.32]),
    ("IS", [1.03, 1.11, 1.28]),
    ("Total", [1.01, 1.08, 1.12]),
];

/// Figure 6: corrected upsets/minute per cache level at
/// (980, 930, 920) mV, 2.4 GHz, plus the L3 uncorrected column.
/// Rows: TLBs, L1, L2, L3 corrected, L3 uncorrected.
pub const FIGURE6: [(&str, [f64; 3]); 5] = [
    ("TLBs CE", [0.016, 0.011, 0.009]),
    ("L1 CE", [0.028, 0.037, 0.026]),
    ("L2 CE", [0.157, 0.178, 0.194]),
    ("L3 CE", [0.765, 0.809, 0.841]),
    ("L3 UE", [0.038, 0.041, 0.035]),
];

/// Figure 7: upsets/minute per level at 790 mV / 900 MHz.
pub const FIGURE7: [(&str, f64); 5] = [
    ("TLBs CE", 0.03),
    ("L1 CE", 0.07),
    ("L2 CE", 0.29),
    ("L3 CE", 0.83),
    ("L3 UE", 0.04),
];

/// Figure 8: failure-class shares (AppCrash, SysCrash, SDC) per voltage.
pub const FIGURE8: [(u32, [f64; 3]); 3] = [
    (980, [0.179, 0.516, 0.305]),
    (930, [0.072, 0.371, 0.557]),
    (920, [0.021, 0.057, 0.922]),
];

/// Figure 9: `(pmd_mv, freq_mhz, power_w, upsets_per_min)`.
pub const FIGURE9: [(u32, u32, f64, f64); 4] = [
    (980, 2400, 20.40, 1.01),
    (930, 2400, 18.63, 1.08),
    (920, 2400, 18.15, 1.12),
    (790, 900, 10.59, 1.18),
];

/// Figure 10: `(pmd_mv, freq_mhz, power_savings, susceptibility_increase)`.
pub const FIGURE10: [(u32, u32, f64, f64); 3] = [
    (930, 2400, 0.087, 0.069),
    (920, 2400, 0.110, 0.109),
    (790, 900, 0.481, 0.168),
];

/// Figure 11: FIT per class at (980, 930, 920) mV, 2.4 GHz.
/// Rows: AppCrash, SysCrash, SDC, Total.
pub const FIGURE11: [(&str, [f64; 3]); 4] = [
    ("AppCrash", [1.49, 0.62, 0.96]),
    ("SysCrash", [4.29, 3.21, 2.55]),
    ("SDC", [2.54, 4.82, 41.43]),
    ("Total", [8.31, 8.66, 54.83]),
];

/// Figure 12: SDC FIT (without, with) hardware notification at
/// (980, 930, 920) mV, 2.4 GHz.
pub const FIGURE12: [(u32, f64, f64); 3] =
    [(980, 1.84, 0.70), (930, 3.84, 0.98), (920, 39.2, 2.23)];

/// Figure 13: SDC FIT (without, with) notification at 790 mV / 900 MHz.
pub const FIGURE13: (f64, f64) = (4.39, 0.88);

/// Headline claims: `(description, value)`.
pub const HEADLINES: [(&str, f64); 4] = [
    ("max SRAM upset-rate increase at Vmin (MG benchmark)", 0.404),
    ("average SRAM upset-rate increase at safe Vmin", 0.109),
    ("total FIT ratio Vmin/nominal", 6.6),
    ("SDC FIT ratio Vmin/nominal", 16.3),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_internal_consistency() {
        // Rates are count/duration.
        for (_, mins, _, _, events, rate, upsets, upset_rate, _) in TABLE2 {
            assert!((events as f64 / mins - rate).abs() / rate < 0.01);
            assert!((upsets as f64 / mins - upset_rate).abs() / upset_rate < 0.01);
        }
    }

    #[test]
    fn figure8_shares_sum_to_one() {
        for (_, shares) in FIGURE8 {
            let s: f64 = shares.iter().sum();
            assert!((s - 1.0).abs() < 0.01);
        }
    }

    #[test]
    fn figure11_total_is_class_sum() {
        for i in 0..2 {
            let sum = FIGURE11[0].1[i] + FIGURE11[1].1[i] + FIGURE11[2].1[i];
            assert!((sum - FIGURE11[3].1[i]).abs() < 0.05, "column {i}");
        }
        // The paper's 920 mV column is internally inconsistent: the class
        // FITs sum to 44.94 while the reported total is 54.83 (which *is*
        // 6.6 × the 8.31 nominal total, the ratio quoted in the abstract).
        // We transcribe both numbers as printed.
        let sum_920 = FIGURE11[0].1[2] + FIGURE11[1].1[2] + FIGURE11[2].1[2];
        assert!((sum_920 - 44.94).abs() < 0.05);
        assert!((FIGURE11[3].1[2] - 54.83).abs() < 0.05);
    }

    #[test]
    fn headline_sdc_ratio_matches_figure11() {
        let ratio = FIGURE11[2].1[2] / FIGURE11[2].1[0];
        assert!((ratio - 16.3).abs() < 0.05);
    }
}
