//! Bandwidth and byte-size units with exact time conversions.

use core::fmt;
use fncc_des::time::TimeDelta;

/// Link bandwidth in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// From raw bits per second.
    #[inline]
    pub const fn bps(b: u64) -> Self {
        Bandwidth(b)
    }
    /// From gigabits per second (the paper's unit).
    #[inline]
    pub const fn gbps(g: u64) -> Self {
        Bandwidth(g * 1_000_000_000)
    }

    /// Raw bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }
    /// As floating-point bits per second (for rate arithmetic in CC).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
    /// As gigabits per second.
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialization time of `bytes` at this bandwidth, rounded up to a
    /// whole picosecond (so nonzero frames always take nonzero time).
    #[inline]
    pub fn tx_time(self, bytes: u64) -> TimeDelta {
        debug_assert!(self.0 > 0, "zero bandwidth");
        let ps = ((bytes as u128) * 8 * 1_000_000_000_000u128).div_ceil(self.0 as u128);
        TimeDelta::from_ps(ps as u64)
    }

    /// Bytes transferable in `d` at this bandwidth (floor).
    #[cfg(test)]
    fn bytes_in(self, d: TimeDelta) -> u64 {
        ((self.0 as u128 * d.as_ps() as u128) / (8 * 1_000_000_000_000u128)) as u64
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Gbps", self.as_gbps_f64())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Gbps", self.as_gbps_f64())
    }
}

/// Byte quantities with KB/MB constructors (binary thousands as in the
/// paper's plots, i.e. 1 KB = 1000 B is *not* used — switch buffers are
/// quoted in KiB-style units; we use 1 KB = 1024 B like the OMNeT defaults).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// From raw bytes.
    #[inline]
    pub const fn bytes(b: u64) -> Self {
        ByteSize(b)
    }
    /// From kilobytes (1024 B).
    #[inline]
    pub const fn kb(k: u64) -> Self {
        ByteSize(k * 1024)
    }
    /// From megabytes (1024² B).
    #[inline]
    pub const fn mb(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }
    /// Raw bytes.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

/// Ethernet + IP + UDP + IB BTH overhead carried by every RoCEv2 data frame.
pub const DATA_HEADER_BYTES: u32 = 62;
/// Base size of an ACK frame (headers + AETH), before INT records.
pub const ACK_BASE_BYTES: u32 = 70;
/// Size of one INT record appended by a switch (64 bits per Fig. 7).
pub const INT_RECORD_BYTES: u32 = 8;
/// Size of a PFC pause/resume control frame.
pub const PFC_FRAME_BYTES: u32 = 64;
/// Size of a DCQCN congestion-notification packet.
pub const CNP_BYTES: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Bandwidth::gbps(100).as_bps(), 100_000_000_000);
        assert_eq!(ByteSize::kb(500).as_bytes(), 512_000);
        assert_eq!(ByteSize::mb(32).as_bytes(), 33_554_432);
    }

    #[test]
    fn tx_time_exact_values() {
        // 1250 bytes at 10 Gb/s = 1 us exactly.
        assert_eq!(Bandwidth::gbps(10).tx_time(1250), TimeDelta::from_us(1));
        // 1518 bytes at 100 Gb/s = 121.44 ns = 121440 ps.
        assert_eq!(
            Bandwidth::gbps(100).tx_time(1518),
            TimeDelta::from_ps(121_440)
        );
        // One byte at 400 Gb/s = 20 ps.
        assert_eq!(Bandwidth::gbps(400).tx_time(1), TimeDelta::from_ps(20));
    }

    #[test]
    fn tx_time_rounds_up_never_zero() {
        // 1 byte at an absurdly high rate still takes ≥ 1 ps.
        assert!(Bandwidth::bps(u64::MAX / 2).tx_time(1).as_ps() >= 1);
        assert_eq!(Bandwidth::gbps(100).tx_time(0), TimeDelta::ZERO);
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let bw = Bandwidth::gbps(100);
        for bytes in [1u64, 64, 1518, 1_000_000] {
            let t = bw.tx_time(bytes);
            let back = bw.bytes_in(t);
            assert!(
                back >= bytes && back <= bytes + 1,
                "bytes {bytes} back {back}"
            );
        }
    }

    #[test]
    fn bdp_matches_paper_scale() {
        // ~12 us RTT at 100 Gb/s ≈ 150 KB BDP (the paper's dumbbell).
        let bdp = Bandwidth::gbps(100).bytes_in(TimeDelta::from_us(12));
        assert_eq!(bdp, 150_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bandwidth::gbps(400)), "400Gbps");
        assert_eq!(format!("{:?}", ByteSize::bytes(10)), "10B");
    }
}
