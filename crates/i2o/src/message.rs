//! I2O message frames and their word-level encoding.
//!
//! Real I2O messages are little-endian 32-bit word arrays in IOP memory:
//! a standard header (version/offset, flags, size, target/initiator
//! addresses, function, transaction contexts) followed by function-specific
//! payload. We encode exactly that shape — frames round-trip through
//! `encode`/`decode` bit-exactly — restricted to the function codes the
//! paper's system exercises.

use crate::devices::Tid;
use core::fmt;

/// Maximum frame size in 32-bit words (a common IOP configuration: 128-byte
/// frames = 32 words).
pub const MAX_FRAME_WORDS: usize = 32;

/// Header words before the payload.
pub const HEADER_WORDS: usize = 5;

/// Maximum payload words per frame.
pub const MAX_PAYLOAD_WORDS: usize = MAX_FRAME_WORDS - HEADER_WORDS;

/// I2O function codes used by this system (subset of the spec's function
/// space, with the spec's numeric values where they exist).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum I2oFunction {
    /// `UtilNOP` — liveness probe.
    UtilNop,
    /// `ExecOutboundInit` — initialise the outbound queue.
    ExecOutboundInit,
    /// `ExecSysQuiesce` — stop IOP activity.
    ExecSysQuiesce,
    /// LAN class: transmit a packet (payload: buffer address + length).
    LanPacketSend,
    /// LAN class: receive-buffer post.
    LanReceivePost,
    /// BSA (block storage) class: read blocks (payload: LBA + count +
    /// destination address).
    BsaBlockRead,
    /// BSA class: write blocks.
    BsaBlockWrite,
    /// Peer-to-peer (Path B): one IOP writes a frame descriptor + payload
    /// directly into another IOP's memory across the PCI bus, bypassing
    /// host memory (the paper's Tables 4–5 price exactly this transfer).
    PeerFrameWrite,
    /// Peer-to-peer (Path B): migrate a stream's scheduling state —
    /// QoS attributes plus drained backlog — from one IOP to another
    /// (chassis rebalancing after card saturation or failure).
    PeerStreamMigrate,
    /// Private class — vendor extension traffic; this is how DVCM
    /// instructions travel (org id discriminates the extension protocol).
    Private {
        /// Organisation id (vendor namespace).
        org: u16,
        /// Extension-defined function.
        func: u16,
    },
    /// Reply to any of the above (bit 7 of the function in real I2O).
    Reply {
        /// Function being replied to, encoded.
        of: u16,
        /// Completion status (0 = success).
        status: u8,
    },
}

impl I2oFunction {
    fn code(self) -> u32 {
        match self {
            I2oFunction::UtilNop => 0x00,
            I2oFunction::ExecOutboundInit => 0xA1,
            I2oFunction::ExecSysQuiesce => 0xC3,
            I2oFunction::LanPacketSend => 0x38,
            I2oFunction::LanReceivePost => 0x39,
            I2oFunction::BsaBlockRead => 0x30,
            I2oFunction::BsaBlockWrite => 0x31,
            I2oFunction::PeerFrameWrite => 0x50,
            I2oFunction::PeerStreamMigrate => 0x51,
            I2oFunction::Private { .. } => 0xFF,
            I2oFunction::Reply { .. } => 0x80,
        }
    }

    /// Extra word the function contributes to the header (private org/func,
    /// reply status).
    fn aux_word(self) -> u32 {
        match self {
            I2oFunction::Private { org, func } => (u32::from(org) << 16) | u32::from(func),
            I2oFunction::Reply { of, status } => (u32::from(of) << 16) | u32::from(status),
            _ => 0,
        }
    }

    fn from_words(code: u32, aux: u32) -> Option<I2oFunction> {
        Some(match code {
            0x00 => I2oFunction::UtilNop,
            0xA1 => I2oFunction::ExecOutboundInit,
            0xC3 => I2oFunction::ExecSysQuiesce,
            0x38 => I2oFunction::LanPacketSend,
            0x39 => I2oFunction::LanReceivePost,
            0x30 => I2oFunction::BsaBlockRead,
            0x31 => I2oFunction::BsaBlockWrite,
            0x50 => I2oFunction::PeerFrameWrite,
            0x51 => I2oFunction::PeerStreamMigrate,
            0xFF => I2oFunction::Private {
                org: (aux >> 16) as u16,
                func: (aux & 0xFFFF) as u16,
            },
            0x80 => I2oFunction::Reply {
                of: (aux >> 16) as u16,
                status: (aux & 0xFF) as u8,
            },
            _ => return None,
        })
    }
}

/// Frame decode failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Fewer words than a header.
    TooShort,
    /// Size field disagrees with the word count.
    SizeMismatch,
    /// Unknown function code.
    UnknownFunction(u32),
    /// Frame exceeds [`MAX_FRAME_WORDS`].
    TooLong,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TooShort => write!(f, "frame shorter than the I2O header"),
            DecodeError::SizeMismatch => write!(f, "size field disagrees with frame length"),
            DecodeError::UnknownFunction(c) => write!(f, "unknown I2O function 0x{c:02X}"),
            DecodeError::TooLong => write!(f, "frame exceeds {MAX_FRAME_WORDS} words"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// An I2O message frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MessageFrame {
    /// Function being requested/replied.
    pub function: I2oFunction,
    /// Target device.
    pub target: Tid,
    /// Initiating device (host OS module or IOP device).
    pub initiator: Tid,
    /// Initiator's transaction context — returned verbatim in replies so
    /// the initiator can match them (we pack a 32-bit cookie).
    pub context: u32,
    /// Function-specific payload words.
    pub payload: Vec<u32>,
}

impl MessageFrame {
    /// Build a frame; panics if the payload exceeds frame capacity (frames
    /// are fixed-size in hardware; callers chunk).
    pub fn new(function: I2oFunction, target: Tid, initiator: Tid, context: u32, payload: Vec<u32>) -> MessageFrame {
        assert!(payload.len() <= MAX_PAYLOAD_WORDS, "payload exceeds I2O frame");
        MessageFrame {
            function,
            target,
            initiator,
            context,
            payload,
        }
    }

    /// A reply frame to this request with the given status and payload.
    pub fn reply(&self, status: u8, payload: Vec<u32>) -> MessageFrame {
        MessageFrame::new(
            I2oFunction::Reply {
                of: self.function.code() as u16,
                status,
            },
            self.initiator,
            self.target,
            self.context,
            payload,
        )
    }

    /// Total size in words.
    pub fn words(&self) -> usize {
        HEADER_WORDS + self.payload.len()
    }

    /// Size in bytes (what a PIO/DMA transport moves).
    pub fn bytes(&self) -> u64 {
        (self.words() * 4) as u64
    }

    /// Encode to the word-array wire form.
    pub fn encode(&self) -> Vec<u32> {
        let mut w = Vec::with_capacity(self.words());
        // Word 0: version (01) | flags | message size in words.
        w.push(0x0001_0000 | self.words() as u32);
        // Word 1: function | target TID | initiator TID packed.
        w.push((self.function.code() << 24) | (u32::from(self.target.0) << 12) | u32::from(self.initiator.0));
        // Word 2: function auxiliary (private org/func, reply status).
        w.push(self.function.aux_word());
        // Word 3: initiator context.
        w.push(self.context);
        // Word 4: reserved (alignment to the spec's two-context layout).
        w.push(0);
        w.extend_from_slice(&self.payload);
        w
    }

    /// Decode from wire form.
    pub fn decode(words: &[u32]) -> Result<MessageFrame, DecodeError> {
        if words.len() < HEADER_WORDS {
            return Err(DecodeError::TooShort);
        }
        if words.len() > MAX_FRAME_WORDS {
            return Err(DecodeError::TooLong);
        }
        let size = (words[0] & 0xFFFF) as usize;
        if size != words.len() {
            return Err(DecodeError::SizeMismatch);
        }
        let code = words[1] >> 24;
        let target = Tid(((words[1] >> 12) & 0xFFF) as u16);
        let initiator = Tid((words[1] & 0xFFF) as u16);
        let function = I2oFunction::from_words(code, words[2]).ok_or(DecodeError::UnknownFunction(code))?;
        Ok(MessageFrame {
            function,
            target,
            initiator,
            context: words[3],
            payload: words[HEADER_WORDS..].to_vec(),
        })
    }
}

/// Payload of a [`I2oFunction::PeerFrameWrite`] message: one frame
/// descriptor crossing the PCI bus card-to-card (Path B). The payload
/// bytes themselves move by DMA alongside; the message carries the
/// descriptor the receiving scheduler needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeerFrameXfer {
    /// Producer-side stream identifier (chassis-global).
    pub stream: u32,
    /// Per-stream sequence number.
    pub seq: u64,
    /// Frame payload length in bytes.
    pub len: u32,
    /// Source address in the producer IOP's memory.
    pub addr: u64,
}

impl PeerFrameXfer {
    /// Payload length in words.
    pub const WORDS: usize = 6;

    /// Payload words: `[stream, seq_hi, seq_lo, len, addr_hi, addr_lo]`.
    pub fn to_payload(self) -> Vec<u32> {
        vec![
            self.stream,
            (self.seq >> 32) as u32,
            self.seq as u32,
            self.len,
            (self.addr >> 32) as u32,
            self.addr as u32,
        ]
    }

    /// Decode from payload words; `None` if the shape is wrong.
    pub fn from_payload(words: &[u32]) -> Option<PeerFrameXfer> {
        if words.len() != Self::WORDS {
            return None;
        }
        Some(PeerFrameXfer {
            stream: words[0],
            seq: (u64::from(words[1]) << 32) | u64::from(words[2]),
            len: words[3],
            addr: (u64::from(words[4]) << 32) | u64::from(words[5]),
        })
    }
}

/// Payload of a [`I2oFunction::PeerStreamMigrate`] message: the scheduling
/// state that travels when the rebalancer moves a stream between cards —
/// QoS attributes plus the size of the drained backlog whose bytes follow
/// by DMA.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeerMigrate {
    /// Chassis-global stream identifier.
    pub stream: u32,
    /// Request period T in nanoseconds.
    pub period: u64,
    /// Loss-tolerance numerator x.
    pub loss_num: u32,
    /// Loss-tolerance denominator y.
    pub loss_den: u32,
    /// Frames of drained backlog accompanying the migration.
    pub backlog: u32,
    /// Total bytes of backlog payload moved by DMA.
    pub bytes: u64,
}

impl PeerMigrate {
    /// Payload words:
    /// `[stream, period_hi, period_lo, loss_num, loss_den, backlog, bytes_hi, bytes_lo]`.
    pub fn to_payload(self) -> Vec<u32> {
        vec![
            self.stream,
            (self.period >> 32) as u32,
            self.period as u32,
            self.loss_num,
            self.loss_den,
            self.backlog,
            (self.bytes >> 32) as u32,
            self.bytes as u32,
        ]
    }

    /// Decode from payload words; `None` if the shape is wrong.
    pub fn from_payload(words: &[u32]) -> Option<PeerMigrate> {
        if words.len() != 8 {
            return None;
        }
        Some(PeerMigrate {
            stream: words[0],
            period: (u64::from(words[1]) << 32) | u64::from(words[2]),
            loss_num: words[3],
            loss_den: words[4],
            backlog: words[5],
            bytes: (u64::from(words[6]) << 32) | u64::from(words[7]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(func: I2oFunction) -> MessageFrame {
        MessageFrame::new(func, Tid(0x123), Tid(0x001), 0xDEAD_BEEF, vec![1, 2, 3])
    }

    #[test]
    fn round_trips_every_function() {
        let funcs = [
            I2oFunction::UtilNop,
            I2oFunction::ExecOutboundInit,
            I2oFunction::ExecSysQuiesce,
            I2oFunction::LanPacketSend,
            I2oFunction::LanReceivePost,
            I2oFunction::BsaBlockRead,
            I2oFunction::BsaBlockWrite,
            I2oFunction::PeerFrameWrite,
            I2oFunction::PeerStreamMigrate,
            I2oFunction::Private { org: 0x4754, func: 7 }, // 'GT'
            I2oFunction::Reply { of: 0x38, status: 2 },
        ];
        for f in funcs {
            let m = sample(f);
            let decoded = MessageFrame::decode(&m.encode()).unwrap();
            assert_eq!(decoded, m, "function {f:?}");
        }
    }

    #[test]
    fn reply_swaps_addressing_and_keeps_context() {
        let req = sample(I2oFunction::BsaBlockRead);
        let rep = req.reply(0, vec![42]);
        assert_eq!(rep.target, req.initiator);
        assert_eq!(rep.initiator, req.target);
        assert_eq!(rep.context, req.context);
        match rep.function {
            I2oFunction::Reply { of, status } => {
                assert_eq!(of, 0x30);
                assert_eq!(status, 0);
            }
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(MessageFrame::decode(&[0; 2]), Err(DecodeError::TooShort));
        let mut w = sample(I2oFunction::UtilNop).encode();
        w[0] = 0x0001_0000 | 99; // wrong size
        assert_eq!(MessageFrame::decode(&w), Err(DecodeError::SizeMismatch));
        let mut w = sample(I2oFunction::UtilNop).encode();
        w[1] = 0x77 << 24; // bogus function
        assert_eq!(MessageFrame::decode(&w), Err(DecodeError::UnknownFunction(0x77)));
        let long = vec![0x0001_0000 | 40; 40];
        assert_eq!(MessageFrame::decode(&long), Err(DecodeError::TooLong));
    }

    #[test]
    #[should_panic(expected = "payload exceeds")]
    fn oversized_payload_rejected() {
        let _ = MessageFrame::new(I2oFunction::UtilNop, Tid(1), Tid(2), 0, vec![0; MAX_PAYLOAD_WORDS + 1]);
    }

    #[test]
    fn peer_frame_xfer_round_trips() {
        let x = PeerFrameXfer {
            stream: 17,
            seq: 0x1_0000_0042,
            len: 1_083,
            addr: 0xA_B000_0000,
        };
        let payload = x.to_payload();
        assert_eq!(payload.len(), PeerFrameXfer::WORDS);
        assert_eq!(PeerFrameXfer::from_payload(&payload), Some(x));
        assert_eq!(PeerFrameXfer::from_payload(&payload[..5]), None);
        // Rides in a frame end-to-end.
        let m = MessageFrame::new(I2oFunction::PeerFrameWrite, Tid(4), Tid(3), 7, payload);
        let decoded = MessageFrame::decode(&m.encode()).unwrap();
        assert_eq!(PeerFrameXfer::from_payload(&decoded.payload), Some(x));
    }

    #[test]
    fn peer_migrate_round_trips() {
        let m = PeerMigrate {
            stream: 9,
            period: 33_333_333,
            loss_num: 2,
            loss_den: 8,
            backlog: 12,
            bytes: 12 * 1_083,
        };
        let payload = m.to_payload();
        assert_eq!(payload.len(), 8);
        assert_eq!(PeerMigrate::from_payload(&payload), Some(m));
        assert_eq!(PeerMigrate::from_payload(&payload[..7]), None);
        let f = MessageFrame::new(I2oFunction::PeerStreamMigrate, Tid(2), Tid(1), 1, payload);
        let decoded = MessageFrame::decode(&f.encode()).unwrap();
        assert_eq!(PeerMigrate::from_payload(&decoded.payload), Some(m));
    }

    #[test]
    fn sizes_are_consistent() {
        let m = sample(I2oFunction::LanPacketSend);
        assert_eq!(m.words(), 8);
        assert_eq!(m.bytes(), 32);
        assert_eq!(m.encode().len(), m.words());
    }
}
