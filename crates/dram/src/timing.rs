//! HBM2 timing parameters.
//!
//! All parameters are expressed in memory-bus clock cycles (`tCK`). The
//! paper's PIM-HBM runs the bus at 1.0–1.2 GHz (2.0–2.4 Gbps/pin, Table V);
//! the default parameter set below corresponds to the 1.2 GHz operating
//! point. The DRAM core (and the PIM execution unit) runs at bus/4 =
//! 300 MHz, which is why back-to-back column commands to the same bank group
//! are spaced tCCD_L = 4 tCK apart while commands to different bank groups
//! may issue every tCCD_S = 2 tCK (Section III-B).

/// A point in time, in memory-bus clock cycles.
pub type Cycle = u64;

/// The complete set of DRAM timing parameters used by the simulator.
///
/// Values follow JESD235 HBM2 at 2.4 Gbps with typical latencies from the
/// 20nm HBM2 design the paper builds on (Sohn et al., JSSC 2017 \[51\]).
/// Absolute values shift results by constants; every paper result we
/// reproduce is a *ratio*, which depends on the structural parameters
/// (tCCD_S vs tCCD_L, burst length, bank count) that are exact.
///
/// # Example
///
/// ```
/// use pim_dram::TimingParams;
/// let t = TimingParams::hbm2();
/// assert_eq!(t.t_ccd_l, 2 * t.t_ccd_s);
/// assert_eq!(t.peak_pch_bandwidth_gbs(), 19.2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingParams {
    /// Bus clock frequency in MHz (data rate is 2× this).
    pub bus_mhz: u64,
    /// ACT to internal read/write delay (row to column delay).
    pub t_rcd: Cycle,
    /// PRE to ACT delay (row precharge time).
    pub t_rp: Cycle,
    /// ACT to PRE minimum (row active time).
    pub t_ras: Cycle,
    /// ACT to ACT to the same bank (== tRAS + tRP).
    pub t_rc: Cycle,
    /// Column command to column command, different bank group.
    pub t_ccd_s: Cycle,
    /// Column command to column command, same bank group.
    pub t_ccd_l: Cycle,
    /// ACT to ACT, different bank group.
    pub t_rrd_s: Cycle,
    /// ACT to ACT, same bank group.
    pub t_rrd_l: Cycle,
    /// Four-activate window: at most 4 ACTs per pseudo channel in this window.
    pub t_faw: Cycle,
    /// Read CAS latency (column command to first data beat).
    pub t_cl: Cycle,
    /// Write CAS latency.
    pub t_wl: Cycle,
    /// Burst length in cycles (BL4 on a 64-bit pCH bus → 32 bytes).
    pub t_bl: Cycle,
    /// Write recovery: last write data beat to PRE.
    pub t_wr: Cycle,
    /// Read to PRE delay.
    pub t_rtp: Cycle,
    /// Write data end to read command, same pseudo channel.
    pub t_wtr: Cycle,
    /// Read command to write command spacing (bus turnaround).
    pub t_rtw: Cycle,
    /// Average refresh interval.
    pub t_refi: Cycle,
    /// Refresh cycle time (all banks busy).
    pub t_rfc: Cycle,
}

impl TimingParams {
    /// HBM2 at 2.4 Gbps/pin (bus 1.2 GHz), the paper's Table V operating
    /// point.
    pub fn hbm2() -> TimingParams {
        TimingParams {
            bus_mhz: 1200,
            t_rcd: 17,
            t_rp: 17,
            t_ras: 40,
            t_rc: 57,
            t_ccd_s: 2,
            t_ccd_l: 4,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 16,
            t_cl: 17,
            t_wl: 7,
            t_bl: 4,
            t_wr: 19,
            t_rtp: 5,
            t_wtr: 9,
            t_rtw: 8,
            t_refi: 4680,
            t_rfc: 312,
        }
    }

    /// HBM2 at 2.0 Gbps/pin (bus 1.0 GHz), the paper's lower operating point
    /// (Table V: 1–1.2 GHz external clocking).
    pub fn hbm2_2gbps() -> TimingParams {
        let mut t = TimingParams::hbm2();
        t.bus_mhz = 1000;
        // Latency in nanoseconds is constant; in cycles it scales with
        // frequency. 1.0/1.2 of the 2.4 Gbps values, rounded up.
        t.t_rcd = 15;
        t.t_rp = 15;
        t.t_ras = 34;
        t.t_rc = 49;
        t.t_cl = 15;
        t.t_wr = 16;
        t.t_refi = 3900;
        t.t_rfc = 260;
        t
    }

    /// GDDR6 at 16 Gbps/pin (bus 8 GHz effective; modeled at the command
    /// clock). The paper notes the architecture "is applicable to any
    /// standard DRAM such as DDR, LPDDR, and GDDR DRAM with a few changes"
    /// (Section III); these presets quantify the claim — see the
    /// `dram_generations` binary.
    pub fn gddr6() -> TimingParams {
        TimingParams {
            bus_mhz: 2000, // command clock (WCK runs 4x)
            t_rcd: 24,
            t_rp: 24,
            t_ras: 52,
            t_rc: 76,
            t_ccd_s: 2,
            t_ccd_l: 4,
            t_rrd_s: 6,
            t_rrd_l: 8,
            t_faw: 24,
            t_cl: 24,
            t_wl: 8,
            t_bl: 4,
            t_wr: 24,
            t_rtp: 6,
            t_wtr: 10,
            t_rtw: 10,
            t_refi: 7800,
            t_rfc: 560,
        }
    }

    /// LPDDR5 at 6.4 Gbps/pin.
    pub fn lpddr5() -> TimingParams {
        TimingParams {
            bus_mhz: 800,
            t_rcd: 15,
            t_rp: 15,
            t_ras: 34,
            t_rc: 49,
            t_ccd_s: 2,
            t_ccd_l: 4,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 16,
            t_cl: 15,
            t_wl: 7,
            t_bl: 8, // BL16 on a 16-bit channel
            t_wr: 14,
            t_rtp: 6,
            t_wtr: 8,
            t_rtw: 8,
            t_refi: 3100,
            t_rfc: 224,
        }
    }

    /// DDR5-4800.
    pub fn ddr5() -> TimingParams {
        TimingParams {
            bus_mhz: 2400,
            t_rcd: 39,
            t_rp: 39,
            t_ras: 77,
            t_rc: 116,
            t_ccd_s: 8,
            t_ccd_l: 16,
            t_rrd_s: 8,
            t_rrd_l: 12,
            t_faw: 32,
            t_cl: 40,
            t_wl: 38,
            t_bl: 8,
            t_wr: 72,
            t_rtp: 18,
            t_wtr: 22,
            t_rtw: 16,
            t_refi: 9360,
            t_rfc: 984,
        }
    }

    /// The structural PIM compute-bandwidth gain over the standard
    /// interface for a device with `banks` banks per channel: all banks
    /// respond per tCCD_L instead of one per tCCD_S — "the compute
    /// bandwidth improves by a half of the number of banks" when tCCD_L is
    /// twice tCCD_S (Section III-B), independent of generation.
    pub fn pim_bandwidth_gain(&self, banks: usize) -> f64 {
        banks as f64 * self.t_ccd_s as f64 / self.t_ccd_l as f64
    }

    /// Validates internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated relation. The relations
    /// are the structural ones the simulator relies on (e.g. `tRC = tRAS +
    /// tRP`, `tCCD_L >= tCCD_S`).
    pub fn validate(&self) -> Result<(), String> {
        if self.t_rc != self.t_ras + self.t_rp {
            return Err(format!(
                "tRC ({}) must equal tRAS + tRP ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if self.t_ccd_l < self.t_ccd_s {
            return Err("tCCD_L must be >= tCCD_S".into());
        }
        if self.t_rrd_l < self.t_rrd_s {
            return Err("tRRD_L must be >= tRRD_S".into());
        }
        if self.t_bl == 0 || self.t_ccd_s == 0 {
            return Err("burst length and tCCD_S must be nonzero".into());
        }
        if self.t_refi <= self.t_rfc {
            return Err("tREFI must exceed tRFC".into());
        }
        Ok(())
    }

    /// Peak bandwidth of one pseudo channel in GB/s as seen by the host:
    /// 32 bytes per tCCD_S-spaced column command on the 64-bit bus.
    ///
    /// At 1.2 GHz this is 19.2 GB/s/pCH → 307.2 GB/s per 16-pCH stack,
    /// matching Table V's off-chip (I/O) bandwidth.
    pub fn peak_pch_bandwidth_gbs(&self) -> f64 {
        let bytes_per_cmd = 32.0;
        let cmds_per_sec = self.bus_mhz as f64 * 1e6 / self.t_ccd_s as f64;
        bytes_per_cmd * cmds_per_sec / 1e9
    }

    /// Peak *on-chip* bandwidth of one pseudo channel in all-bank (PIM) mode:
    /// 16 banks × 32 bytes per tCCD_L-spaced command.
    ///
    /// At 1.2 GHz this is 153.6 GB/s/pCH → 2.458 TB/s per stack gross; the
    /// paper's Table V reports 1.229 TB/s because one PIM execution unit
    /// serves two banks, so 8 banks' worth of operands is consumed per
    /// command ("8 operating banks per pCH", Section VI).
    pub fn peak_pch_allbank_bandwidth_gbs(&self, operating_banks: usize) -> f64 {
        let bytes_per_cmd = 32.0 * operating_banks as f64;
        let cmds_per_sec = self.bus_mhz as f64 * 1e6 / self.t_ccd_l as f64;
        bytes_per_cmd * cmds_per_sec / 1e9
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: Cycle) -> f64 {
        cycles as f64 / (self.bus_mhz as f64 * 1e6)
    }
}

impl Default for TimingParams {
    fn default() -> TimingParams {
        TimingParams::hbm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_set_is_valid() {
        TimingParams::hbm2().validate().unwrap();
        TimingParams::hbm2_2gbps().validate().unwrap();
    }

    #[test]
    fn all_generation_presets_are_valid() {
        for t in [TimingParams::gddr6(), TimingParams::lpddr5(), TimingParams::ddr5()] {
            t.validate().unwrap();
        }
    }

    #[test]
    fn pim_gain_is_half_the_banks_when_ccd_doubles() {
        // HBM2/GDDR6/LPDDR5 all have tCCD_L = 2·tCCD_S → gain = banks/2.
        assert_eq!(TimingParams::hbm2().pim_bandwidth_gain(16), 8.0);
        assert_eq!(TimingParams::gddr6().pim_bandwidth_gain(16), 8.0);
        assert_eq!(TimingParams::lpddr5().pim_bandwidth_gain(16), 8.0);
        // DDR5-4800's tCCD_L/tCCD_S is also 2, with 32 banks per channel.
        assert_eq!(TimingParams::ddr5().pim_bandwidth_gain(32), 16.0);
    }

    #[test]
    fn ccd_ratio_is_two() {
        // The paper: "tCCD_S (2 tCK) is typically a half of tCCD_L (4 tCK)",
        // which is why AB mode yields 8× (= 16 banks / 2) bandwidth.
        let t = TimingParams::hbm2();
        assert_eq!(t.t_ccd_s, 2);
        assert_eq!(t.t_ccd_l, 4);
    }

    #[test]
    fn table5_offchip_bandwidth() {
        // 19.2 GB/s per pCH × 16 pCH = 307.2 GB/s per stack (Table V).
        let t = TimingParams::hbm2();
        let stack = t.peak_pch_bandwidth_gbs() * 16.0;
        assert!((stack - 307.2).abs() < 1e-9, "got {stack}");
    }

    #[test]
    fn table5_onchip_bandwidth() {
        // 8 operating banks per pCH × 16 pCH = 1.2288 TB/s (Table V:
        // "1TB/s~1.229TB/s").
        let t = TimingParams::hbm2();
        let stack = t.peak_pch_allbank_bandwidth_gbs(8) * 16.0;
        assert!((stack - 1228.8).abs() < 1e-6, "got {stack}");
        // And the 2.0 Gbps point gives the 1 TB/s lower bound.
        let t0 = TimingParams::hbm2_2gbps();
        let stack0 = t0.peak_pch_allbank_bandwidth_gbs(8) * 16.0;
        assert!((stack0 - 1024.0).abs() < 1e-6, "got {stack0}");
    }

    #[test]
    fn ab_mode_bandwidth_ratio_is_8x() {
        // Section III-B: "the compute bandwidth improves by a half of the
        // number of banks" = 16/2 = 8×, comparing all 16 banks at tCCD_L
        // against the host's tCCD_S stream.
        let t = TimingParams::hbm2();
        let ratio = t.peak_pch_allbank_bandwidth_gbs(16) / t.peak_pch_bandwidth_gbs();
        assert!((ratio - 8.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_sets_are_rejected() {
        let mut t = TimingParams::hbm2();
        t.t_rc = 1;
        assert!(t.validate().is_err());
        let mut t = TimingParams::hbm2();
        t.t_ccd_l = 1;
        assert!(t.validate().is_err());
        let mut t = TimingParams::hbm2();
        t.t_rfc = t.t_refi + 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn cycle_time_conversions() {
        let t = TimingParams::hbm2();
        assert!((t.cycles_to_seconds(1_200_000_000) - 1.0).abs() < 1e-12);
    }
}
