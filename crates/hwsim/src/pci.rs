//! PCI bus cost model (Table 5, and the Path B peer-to-peer transfers).
//!
//! 32-bit/33 MHz PCI: theoretical 132 MB/s, measured card-to-card DMA
//! 66.27 MB/s (Table 5 — half the theoretical rate, consistent with
//! single-word-per-turnaround target latency on 1990s bridges). PIO reads
//! are non-posted (the CPU stalls for the full round trip, 3.6 µs); writes
//! post (3.1 µs).

use crate::calib;
use simkit::SimDuration;

/// PCI transfer kinds, priced separately.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PciOp {
    /// Programmed-I/O 32-bit read (non-posted).
    PioRead,
    /// Programmed-I/O 32-bit write (posted).
    PioWrite,
    /// DMA of `n` bytes (setup + streaming).
    Dma,
}

/// The shared bus cost model. Acquisition/queuing is handled by the
/// embedding (the chassis bus in `serversim`); this model prices the
/// occupancy.
#[derive(Clone, Debug)]
pub struct PciBus {
    /// Sustained DMA bandwidth.
    pub dma_bytes_per_sec: u64,
    /// Per-DMA setup cost.
    pub dma_setup: SimDuration,
    /// PIO read round trip.
    pub pio_read: SimDuration,
    /// PIO write (posted).
    pub pio_write: SimDuration,
    /// Arbitration latency to win the bus when contended.
    pub arbitration: SimDuration,
    /// Bytes moved by DMA so far (diagnostics).
    pub dma_bytes: u64,
    /// Transactions so far.
    pub transactions: u64,
}

impl PciBus {
    /// The measured 33 MHz/32-bit segment from the paper's server.
    pub fn new() -> PciBus {
        PciBus {
            dma_bytes_per_sec: calib::PCI_DMA_BYTES_PER_SEC,
            dma_setup: SimDuration::from_nanos(calib::PCI_DMA_SETUP_NS),
            pio_read: SimDuration::from_nanos(calib::PIO_READ_NS),
            pio_write: SimDuration::from_nanos(calib::PIO_WRITE_NS),
            arbitration: SimDuration::from_nanos(calib::PCI_ARBITRATION_NS),
            dma_bytes: 0,
            transactions: 0,
        }
    }

    /// Bus occupancy for a DMA of `bytes` (setup + streaming).
    pub fn dma_time(&mut self, bytes: u64) -> SimDuration {
        self.dma_bytes += bytes;
        self.transactions += 1;
        self.dma_setup + SimDuration::for_bytes_at_bps(bytes, self.dma_bytes_per_sec * 8)
    }

    /// Occupancy for `words` PIO reads.
    pub fn pio_read_time(&mut self, words: u64) -> SimDuration {
        self.transactions += words;
        self.pio_read * words
    }

    /// Occupancy for `words` PIO writes.
    pub fn pio_write_time(&mut self, words: u64) -> SimDuration {
        self.transactions += words;
        self.pio_write * words
    }

    /// Effective MB/s of a DMA of `bytes` including setup (what Table 5
    /// reports for the 773 665-byte file).
    pub fn dma_effective_mbps(&mut self, bytes: u64) -> f64 {
        let t = self.dma_time(bytes);
        bytes as f64 / t.as_secs_f64() / 1e6
    }
}

impl Default for PciBus {
    fn default() -> Self {
        PciBus::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_file_dma() {
        let mut bus = PciBus::new();
        let t = bus.dma_time(773_665);
        let us = t.as_micros_f64();
        assert!((11_600.0..=11_750.0).contains(&us), "paper: 11673.84 µs, got {us:.2}");
        let mbps = 773_665.0 / t.as_secs_f64() / 1e6;
        assert!((65.5..=66.5).contains(&mbps), "paper: 66.27 MB/s, got {mbps:.2}");
    }

    #[test]
    fn pio_word_costs() {
        let mut bus = PciBus::new();
        assert_eq!(bus.pio_read_time(1).as_nanos(), 3_600);
        assert_eq!(bus.pio_write_time(1).as_nanos(), 3_100);
        assert_eq!(bus.pio_read_time(10).as_micros(), 36);
    }

    #[test]
    fn frame_dma_is_15us() {
        let mut bus = PciBus::new();
        let us = bus.dma_time(1000).as_micros_f64();
        assert!((14.0..=16.5).contains(&us), "Table 4: ≈15 µs, got {us:.2}");
    }

    #[test]
    fn accounting_accumulates() {
        let mut bus = PciBus::new();
        bus.dma_time(100);
        bus.dma_time(200);
        bus.pio_write_time(3);
        assert_eq!(bus.dma_bytes, 300);
        assert_eq!(bus.transactions, 5);
    }

    #[test]
    fn dma_beats_pio_for_bulk() {
        let mut bus = PciBus::new();
        // Moving 1 KiB: DMA vs word-at-a-time PIO.
        let dma = bus.dma_time(1024);
        let pio = bus.pio_write_time(256);
        assert!(dma < pio / 10, "DMA {dma} ≪ PIO {pio}");
    }
}
