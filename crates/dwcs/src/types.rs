//! Core value types: time, stream identity, frame descriptors.

use core::fmt;

/// Nanoseconds on whatever clock drives the scheduler (virtual in the
/// simulator, monotonic-since-start in the real engine).
pub type Time = u64;

/// One microsecond in [`Time`] units.
pub const MICROSECOND: Time = 1_000;
/// One millisecond in [`Time`] units.
pub const MILLISECOND: Time = 1_000_000;
/// One second in [`Time`] units.
pub const SECOND: Time = 1_000_000_000;

/// Index of a stream registered with a scheduler. Dense and small: the NI
/// implementation stores per-stream state in flat arrays (4 MB of on-board
/// memory forces compact representations — §3.1.1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u32);

impl StreamId {
    /// Dense array index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// MPEG-1 frame classes (the unit of scheduling in the paper is an MPEG-I
/// frame) plus a generic class for non-video packets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FrameKind {
    /// Intra-coded picture (largest; loss hurts the whole GOP).
    I,
    /// Predicted picture.
    P,
    /// Bidirectionally predicted picture (smallest; most losable).
    B,
    /// Audio or other media.
    Audio,
    /// Anything else (the scheduler is media-agnostic).
    #[default]
    Other,
}

impl FrameKind {
    /// Single-letter tag used in traces.
    pub fn tag(self) -> char {
        match self {
            FrameKind::I => 'I',
            FrameKind::P => 'P',
            FrameKind::B => 'B',
            FrameKind::Audio => 'A',
            FrameKind::Other => '?',
        }
    }
}

/// A frame descriptor — what actually moves through the scheduler.
///
/// The paper stores *descriptors* (compactly, sometimes in memory-mapped
/// "hardware queue" registers) while the single copy of frame *data* stays
/// pinned in NI memory; the scheduler manipulates addresses only. `addr`
/// plays that role here: an opaque handle (pool slot, simulated NI address,
/// or real buffer index) that the dispatch path resolves to bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameDesc {
    /// Owning stream.
    pub stream: StreamId,
    /// Per-stream sequence number (0-based production order).
    pub seq: u64,
    /// Payload length in bytes (drives wire time).
    pub len: u32,
    /// Frame class.
    pub kind: FrameKind,
    /// When the producer enqueued the descriptor (queuing-delay baseline).
    pub enqueued_at: Time,
    /// Opaque handle to the frame bytes (NI-local address in the paper).
    pub addr: u64,
}

impl FrameDesc {
    /// Convenience constructor for tests and generators.
    pub fn new(stream: StreamId, seq: u64, len: u32, kind: FrameKind) -> FrameDesc {
        FrameDesc {
            stream,
            seq,
            len,
            kind,
            enqueued_at: 0,
            addr: 0,
        }
    }

    /// Same descriptor with an enqueue timestamp.
    pub fn enqueued(mut self, t: Time) -> FrameDesc {
        self.enqueued_at = t;
        self
    }

    /// Same descriptor with a payload address.
    pub fn at_addr(mut self, addr: u64) -> FrameDesc {
        self.addr = addr;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_is_dense() {
        assert_eq!(StreamId(7).index(), 7);
        assert_eq!(format!("{}", StreamId(3)), "s3");
    }

    #[test]
    fn frame_builder() {
        let f = FrameDesc::new(StreamId(1), 42, 1000, FrameKind::P)
            .enqueued(5 * MICROSECOND)
            .at_addr(0xA000_0000);
        assert_eq!(f.seq, 42);
        assert_eq!(f.enqueued_at, 5_000);
        assert_eq!(f.addr, 0xA000_0000);
        assert_eq!(f.kind.tag(), 'P');
    }

    #[test]
    fn kind_tags_unique() {
        let tags: Vec<char> = [
            FrameKind::I,
            FrameKind::P,
            FrameKind::B,
            FrameKind::Audio,
            FrameKind::Other,
        ]
        .iter()
        .map(|k| k.tag())
        .collect();
        let mut dedup = tags.clone();
        dedup.dedup();
        assert_eq!(tags, dedup);
    }
}
