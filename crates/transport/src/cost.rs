//! Per-operation CPU cost models for the communication substrates.
//!
//! Throughput in this reproduction is *emergent*: every protocol action
//! charges CPU time to the node performing it, and a node saturates when
//! the charges exceed wall time. The constants below are calibrated so
//! the five PRESS versions' fault-free peaks land near Table 1 of the
//! paper (4965 / 4965 / 6031 / 6221 / 7058 req/s on four nodes).
//!
//! # Calibration sketch
//!
//! With a 75% forwarding ratio and 8 KB files, the cluster-wide CPU per
//! request is `base + 0.75 × pair`, where `pair` is the cost of the
//! forward (64 B) and file-data (8 KB) exchange:
//!
//! | version | pair (µs) | total (µs) | peak = 4/total (req/s) | paper | measured |
//! |---|---|---|---|---|---|
//! | TCP     | ≈336 | ≈806 | ≈4963 | 4965 | 4962 |
//! | VIA-0   | ≈166 | ≈661 | ≈6050 | 6031 | 6049 |
//! | VIA-3   | ≈140 | ≈642 | ≈6232 | 6221 | 6232 |
//! | VIA-5   | ≈39  | ≈566 | ≈7070 | 7058 | 7073 |
//!
//! (`base` ≈ 534 µs of per-request HTTP work lives in the PRESS
//! configuration; it is identical across versions, exactly as the same
//! server code runs over both substrates in the paper.)

use simnet::SimDuration;

/// CPU costs charged by a transport, in nanoseconds unless noted.
///
/// Use the constructors ([`CostModel::tcp`], [`CostModel::via0`],
/// [`CostModel::via3`], [`CostModel::via5`]) for the calibrated presets.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed send-path cost per message (syscall + protocol, or
    /// descriptor post + doorbell).
    pub send_fixed: SimDuration,
    /// Fixed receive-path cost per message.
    pub recv_fixed: SimDuration,
    /// Receiver interrupt cost per message (zero when polling).
    pub interrupt: SimDuration,
    /// Poll cost per received message (polling receive versions).
    pub poll: SimDuration,
    /// Copy cost per byte on the send side, nanoseconds.
    pub copy_ns_per_byte_send: f64,
    /// Copy cost per byte on the receive side, nanoseconds.
    pub copy_ns_per_byte_recv: f64,
    /// Checksum cost per byte charged at *each* side (TCP software
    /// checksums; VIA hardware CRCs are free to the host).
    pub checksum_ns_per_byte: f64,
    /// ACK processing cost per data segment, charged at each side (TCP).
    pub ack_cost: SimDuration,
    /// Credit-update processing per update, charged at each side (VIA).
    pub credit_cost: SimDuration,
    /// Cost to pin one 4 KB page (VIA memory registration).
    pub pin_page: SimDuration,
    /// Cost to unpin one 4 KB page.
    pub unpin_page: SimDuration,
    /// When `true`, bulk ([`crate::MsgClass::is_bulk`]) payload bytes are
    /// transferred without copies at either end (VIA-PRESS-5 zero-copy).
    pub zero_copy_bulk: bool,
}

impl CostModel {
    /// Kernel TCP over the cLAN: heavyweight per-message path, software
    /// checksums, a copy on each side and interrupt-driven reception.
    pub fn tcp() -> Self {
        CostModel {
            send_fixed: SimDuration::from_nanos(36_000),
            recv_fixed: SimDuration::from_nanos(36_000),
            interrupt: SimDuration::from_nanos(14_000),
            poll: SimDuration::ZERO,
            copy_ns_per_byte_send: 6.2,
            copy_ns_per_byte_recv: 6.2,
            checksum_ns_per_byte: 2.5,
            ack_cost: SimDuration::from_nanos(5_000),
            credit_cost: SimDuration::ZERO,
            pin_page: SimDuration::ZERO,
            unpin_page: SimDuration::ZERO,
            zero_copy_bulk: false,
        }
    }

    /// VIA with regular user-space messages and interrupt-driven
    /// reception (VIA-PRESS-0).
    pub fn via0() -> Self {
        CostModel {
            send_fixed: SimDuration::from_nanos(8_000),
            recv_fixed: SimDuration::from_nanos(8_000),
            interrupt: SimDuration::from_nanos(14_000),
            poll: SimDuration::ZERO,
            copy_ns_per_byte_send: 6.2,
            copy_ns_per_byte_recv: 6.2,
            checksum_ns_per_byte: 0.0,
            ack_cost: SimDuration::ZERO,
            credit_cost: SimDuration::from_nanos(2_000),
            pin_page: SimDuration::from_nanos(3_000),
            unpin_page: SimDuration::from_nanos(2_000),
            zero_copy_bulk: false,
        }
    }

    /// VIA with remote memory writes and polling in all messages
    /// (VIA-PRESS-3): no receiver interrupts.
    pub fn via3() -> Self {
        CostModel {
            interrupt: SimDuration::ZERO,
            poll: SimDuration::from_nanos(1_000),
            ..CostModel::via0()
        }
    }

    /// VIA-PRESS-3 plus zero-copy file transfers (VIA-PRESS-5): bulk
    /// payloads move by DMA from pinned file-cache pages and are served
    /// to clients straight out of the communication buffer.
    pub fn via5() -> Self {
        CostModel {
            zero_copy_bulk: true,
            ..CostModel::via3()
        }
    }

    /// Send-side CPU for one message of `bytes` payload bytes.
    pub fn send_cost(&self, bytes: u32, bulk: bool) -> SimDuration {
        let mut ns = self.send_fixed.as_nanos() as f64;
        if !(bulk && self.zero_copy_bulk) {
            ns += f64::from(bytes) * self.copy_ns_per_byte_send;
        }
        ns += f64::from(bytes) * self.checksum_ns_per_byte;
        SimDuration::from_nanos(ns as u64)
    }

    /// Checksum CPU for one segment of `bytes` payload bytes.
    pub fn checksum_cost(&self, bytes: u32) -> SimDuration {
        SimDuration::from_nanos((f64::from(bytes) * self.checksum_ns_per_byte) as u64)
    }

    /// Receive-side CPU for one message of `bytes` payload bytes.
    pub fn recv_cost(&self, bytes: u32, bulk: bool) -> SimDuration {
        let mut ns = (self.recv_fixed + self.interrupt + self.poll).as_nanos() as f64;
        if !(bulk && self.zero_copy_bulk) {
            ns += f64::from(bytes) * self.copy_ns_per_byte_recv;
        }
        ns += f64::from(bytes) * self.checksum_ns_per_byte;
        SimDuration::from_nanos(ns as u64)
    }

    /// Cost to pin `pages` 4 KB pages.
    pub fn pin_cost(&self, pages: u32) -> SimDuration {
        self.pin_page * u64::from(pages)
    }

    /// Cost to unpin `pages` 4 KB pages.
    pub fn unpin_cost(&self, pages: u32) -> SimDuration {
        self.unpin_page * u64::from(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The calibration table from the module docs, re-derived in code so
    /// a constant change that breaks Table 1 fails loudly.
    #[test]
    fn analytic_pair_costs_match_calibration() {
        let fwd = 64u32;
        let file = 8192u32;

        let pair = |m: &CostModel, acks: f64, credits: f64| -> f64 {
            let s = m.send_cost(fwd, false).as_nanos()
                + m.send_cost(file, true).as_nanos()
                + m.recv_cost(fwd, false).as_nanos()
                + m.recv_cost(file, true).as_nanos();
            s as f64
                + acks * 2.0 * m.ack_cost.as_nanos() as f64 * 2.0
                + credits * m.credit_cost.as_nanos() as f64 * 2.0
        };

        // TCP: 2 data segments, each acked (cost at both sides).
        let tcp_us = pair(&CostModel::tcp(), 1.0, 0.0) / 1000.0;
        assert!((325.0..350.0).contains(&tcp_us), "tcp pair = {tcp_us}us");

        let via0_us = pair(&CostModel::via0(), 0.0, 1.0) / 1000.0;
        assert!((160.0..175.0).contains(&via0_us), "via0 pair = {via0_us}us");

        let via3_us = pair(&CostModel::via3(), 0.0, 1.0) / 1000.0;
        assert!((135.0..148.0).contains(&via3_us), "via3 pair = {via3_us}us");

        let via5_us = pair(&CostModel::via5(), 0.0, 1.0) / 1000.0;
        assert!((34.0..44.0).contains(&via5_us), "via5 pair = {via5_us}us");

        // Ordering must match the paper: TCP slowest, VIA-5 fastest.
        assert!(tcp_us > via0_us && via0_us > via3_us && via3_us > via5_us);
    }

    #[test]
    fn zero_copy_only_applies_to_bulk() {
        let m = CostModel::via5();
        let bulk = m.send_cost(8192, true);
        let not_bulk = m.send_cost(8192, false);
        assert!(bulk < not_bulk);
        // Small control messages cost the same either way modulo copies.
        assert_eq!(m.send_cost(0, true), m.send_cost(0, false));
    }

    #[test]
    fn interrupt_vs_poll_distinguishes_via0_and_via3() {
        let v0 = CostModel::via0().recv_cost(64, false);
        let v3 = CostModel::via3().recv_cost(64, false);
        assert!(v0 > v3, "interrupt reception must cost more than polling");
    }

    #[test]
    fn tcp_checksums_scale_with_size() {
        let m = CostModel::tcp();
        let small = m.send_cost(64, false);
        let big = m.send_cost(65536, false);
        let delta_ns = (big - small).as_nanos() as f64;
        let expected = (65536.0 - 64.0) * (6.2 + 2.5);
        assert!((delta_ns - expected).abs() / expected < 0.01);
    }

    #[test]
    fn pin_costs_scale_with_pages() {
        let m = CostModel::via5();
        assert_eq!(m.pin_cost(2), m.pin_cost(1) * 2);
        assert_eq!(m.unpin_cost(4), m.unpin_cost(1) * 4);
    }
}
