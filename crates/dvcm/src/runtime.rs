//! The NI-resident DVCM runtime.
//!
//! Runs as the NI's service loop: drain the inbound I2O FIFO, decode DVCM
//! instructions, dispatch to the extension registry, post replies
//! outbound, and poll extensions for their periodic work (the scheduler's
//! dispatch loop).

use crate::extension::{ExtReply, ExtensionRegistry};
use crate::instr::VcmInstruction;
use dwcs::Time;
use i2o::bsa::BsaDevice;
use i2o::devices::{DeviceClass, DeviceTable, Tid};
use i2o::lan::LanPort;
use i2o::memory::CardMemory;
use i2o::message::{I2oFunction, MessageFrame};
use i2o::queues::MessageUnit;

/// The runtime: messaging unit + device table + card memory + device
/// classes + extensions.
pub struct NiRuntime {
    /// The I2O messaging unit (host side uses its `host_*` methods).
    pub mu: MessageUnit,
    /// Loaded extensions.
    pub registry: ExtensionRegistry,
    /// Device table for this IOP.
    pub devices: DeviceTable,
    /// TID of the DVCM extension endpoint.
    pub ext_tid: Tid,
    /// Card-local memory: BSA reads land here, frames live here, LAN
    /// sends read from here.
    pub memory: CardMemory,
    /// Attached block-storage units (one per SCSI port).
    pub disks: Vec<(Tid, BsaDevice)>,
    /// LAN ports.
    pub lans: Vec<(Tid, LanPort)>,
    /// Requests serviced.
    pub serviced: u64,
    /// Requests that failed to decode.
    pub decode_errors: u64,
    /// Replies dropped because the outbound side was exhausted.
    pub reply_overflows: u64,
}

impl NiRuntime {
    /// Runtime with an IOP messaging unit of `frames` message frames.
    pub fn new(frames: usize) -> NiRuntime {
        let mut devices = DeviceTable::new();
        let ext_tid = devices.register(DeviceClass::Private { org: crate::DVCM_ORG }, "dvcm-ext");
        NiRuntime {
            mu: MessageUnit::new(frames, frames),
            registry: ExtensionRegistry::new(),
            devices,
            ext_tid,
            memory: CardMemory::new(512 * 1024),
            disks: Vec::new(),
            lans: Vec::new(),
            serviced: 0,
            decode_errors: 0,
            reply_overflows: 0,
        }
    }

    /// Attach a block-storage unit with the given disk image (one of the
    /// card's SCSI ports). Returns its TID.
    pub fn attach_disk(&mut self, image: &[u8]) -> Tid {
        let port = self.disks.len() as u8;
        let tid = self
            .devices
            .register(DeviceClass::BlockStorage { port }, format!("scsi{port}"));
        self.disks.push((tid, BsaDevice::with_image(image)));
        tid
    }

    /// Attach a LAN port. Returns its TID.
    pub fn attach_lan(&mut self) -> Tid {
        let port = self.lans.len() as u8;
        let tid = self
            .devices
            .register(DeviceClass::LanPort { port }, format!("eth{port}"));
        self.lans.push((tid, LanPort::new(256)));
        tid
    }

    /// Mutable access to an attached LAN port by TID.
    pub fn lan_mut(&mut self, tid: Tid) -> Option<&mut LanPort> {
        self.lans.iter_mut().find(|(t, _)| *t == tid).map(|(_, p)| p)
    }

    /// Mutable access to an attached disk by TID.
    pub fn disk_mut(&mut self, tid: Tid) -> Option<&mut BsaDevice> {
        self.disks.iter_mut().find(|(t, _)| *t == tid).map(|(_, d)| d)
    }

    /// Service up to `budget` inbound requests at NI time `now`.
    /// Returns the number serviced.
    pub fn service_inbound(&mut self, now: Time, budget: usize) -> usize {
        let mut n = 0;
        while n < budget {
            let Some((mfa, frame)) = self.mu.iop_next_request() else {
                break;
            };
            // Route by function class, then by target TID.
            match frame.function {
                I2oFunction::Private { .. } => {
                    let reply = match VcmInstruction::decode(&frame) {
                        Ok(instr) => self.registry.dispatch(instr, now),
                        Err(_) => {
                            self.decode_errors += 1;
                            ExtReply::err(0xFE)
                        }
                    };
                    self.post_reply(&frame, reply);
                }
                I2oFunction::BsaBlockRead | I2oFunction::BsaBlockWrite => {
                    let reply_frame = match self.disks.iter_mut().find(|(t, _)| *t == frame.target) {
                        Some((_, dev)) => dev.handle(&frame, &mut self.memory),
                        None => {
                            self.decode_errors += 1;
                            frame.reply(0xFD, vec![]) // no such device
                        }
                    };
                    self.post_raw_reply(reply_frame);
                }
                I2oFunction::LanPacketSend => {
                    let reply_frame = match self.lans.iter_mut().find(|(t, _)| *t == frame.target) {
                        Some((_, port)) => port.handle(&frame, &mut self.memory),
                        None => {
                            self.decode_errors += 1;
                            frame.reply(0xFD, vec![])
                        }
                    };
                    self.post_raw_reply(reply_frame);
                }
                I2oFunction::UtilNop => {
                    self.post_reply(&frame, ExtReply::ok());
                }
                _ => {
                    self.decode_errors += 1;
                    self.post_reply(&frame, ExtReply::err(0xFE));
                }
            }
            // analysis: allow(ni-no-panic) reason="invariant: the MFA was consumed two lines up, and the MU frees consumed request MFAs unconditionally"
            self.mu
                .iop_release_request(mfa)
                .expect("consumed request MFA releases cleanly");
            self.serviced += 1;
            n += 1;
        }
        n
    }

    fn post_raw_reply(&mut self, frame: MessageFrame) {
        let Some(mfa) = self.mu.iop_alloc_reply() else {
            self.reply_overflows += 1;
            return;
        };
        if self.mu.iop_post_reply(mfa, frame).is_err() {
            self.reply_overflows += 1;
        }
    }

    fn post_reply(&mut self, request: &MessageFrame, reply: ExtReply) {
        let Some(mfa) = self.mu.iop_alloc_reply() else {
            self.reply_overflows += 1;
            return;
        };
        let frame = request.reply(reply.status, reply.payload);
        if self.mu.iop_post_reply(mfa, frame).is_err() {
            self.reply_overflows += 1;
        }
    }

    /// Poll extensions once (the NI task loop body).
    pub fn poll_extensions(&mut self, now: Time) -> u32 {
        self.registry.poll_all(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::VcmHandle;
    use crate::instr::StreamSpec;
    use crate::media_sched::MediaSchedExt;
    use dwcs::types::MILLISECOND;
    use dwcs::{FrameKind, StreamId};

    fn rt_with_sched() -> NiRuntime {
        let mut rt = NiRuntime::new(16);
        rt.registry.load(Box::new(MediaSchedExt::new(8)));
        rt
    }

    #[test]
    fn end_to_end_instruction_flow() {
        let mut rt = rt_with_sched();
        let mut host = VcmHandle::new(rt.ext_tid);

        let reply = host
            .call(
                &mut rt,
                VcmInstruction::OpenStream(StreamSpec {
                    period: 10 * MILLISECOND,
                    loss_num: 1,
                    loss_den: 2,
                    droppable: true,
                }),
                0,
            )
            .expect("open succeeds");
        assert_eq!(reply.status, 0);
        let sid = StreamId(reply.payload[0]);

        let r = host
            .call(
                &mut rt,
                VcmInstruction::EnqueueFrame {
                    stream: sid,
                    addr: 0xBEEF,
                    len: 999,
                    kind: FrameKind::I,
                },
                0,
            )
            .unwrap();
        assert_eq!(r.status, 0);
        assert_eq!(rt.serviced, 2);
        assert_eq!(rt.poll_extensions(MILLISECOND), 1, "frame dispatched");
    }

    #[test]
    fn unroutable_frames_get_error_replies_and_nop_succeeds() {
        let mut rt = rt_with_sched();
        // UtilNop: clean success (liveness probe).
        let mfa = rt.mu.host_alloc().unwrap();
        let nop = MessageFrame::new(
            i2o::message::I2oFunction::UtilNop,
            rt.ext_tid,
            i2o::devices::TID_HOST,
            41,
            vec![],
        );
        rt.mu.host_post(mfa, nop).unwrap();
        // Executive function with no handler: error reply.
        let mfa = rt.mu.host_alloc().unwrap();
        let junk = MessageFrame::new(
            i2o::message::I2oFunction::ExecSysQuiesce,
            rt.ext_tid,
            i2o::devices::TID_HOST,
            42,
            vec![],
        );
        rt.mu.host_post(mfa, junk).unwrap();
        assert_eq!(rt.service_inbound(0, 8), 2);
        assert_eq!(rt.decode_errors, 1);
        let (m, reply) = rt.mu.host_drain_reply().unwrap();
        rt.mu.host_release_reply(m).unwrap();
        match reply.function {
            i2o::message::I2oFunction::Reply { status, .. } => assert_eq!(status, 0, "nop ok"),
            other => panic!("expected reply, got {other:?}"),
        }
        let (_, reply) = rt.mu.host_drain_reply().unwrap();
        match reply.function {
            i2o::message::I2oFunction::Reply { status, .. } => assert_eq!(status, 0xFE),
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn bsa_and_lan_route_by_tid() {
        let mut rt = rt_with_sched();
        let image: Vec<u8> = (0..2048u32).map(|i| (i * 7 % 256) as u8).collect();
        let disk = rt.attach_disk(&image);
        let lan = rt.attach_lan();

        // Host: read 2 blocks from LBA 1 into card memory at 0x4000.
        let mfa = rt.mu.host_alloc().unwrap();
        rt.mu
            .host_post(
                mfa,
                i2o::bsa::read_request(disk, i2o::devices::TID_HOST, 1, 1, 2, 0x4000),
            )
            .unwrap();
        // Then transmit 700 of those bytes from 0x4000.
        let mfa = rt.mu.host_alloc().unwrap();
        rt.mu
            .host_post(mfa, i2o::lan::send_request(lan, i2o::devices::TID_HOST, 2, 0x4000, 700))
            .unwrap();
        assert_eq!(rt.service_inbound(0, 8), 2);
        assert_eq!(rt.decode_errors, 0);

        let port = rt.lan_mut(lan).unwrap();
        let tx = port.drain();
        assert_eq!(tx.len(), 1);
        assert_eq!(&tx[0].bytes[..], &image[512..512 + 700], "wire bytes = disk bytes");

        // Unknown TID: error reply, counted.
        let mfa = rt.mu.host_alloc().unwrap();
        rt.mu
            .host_post(
                mfa,
                i2o::bsa::read_request(i2o::devices::Tid(0x7FF), i2o::devices::TID_HOST, 3, 0, 1, 0),
            )
            .unwrap();
        rt.service_inbound(0, 8);
        assert_eq!(rt.decode_errors, 1);
    }

    #[test]
    fn budget_bounds_servicing() {
        let mut rt = rt_with_sched();
        let mut host = VcmHandle::new(rt.ext_tid);
        for _ in 0..5 {
            host.issue(&mut rt, VcmInstruction::Kick).unwrap();
        }
        assert_eq!(rt.service_inbound(0, 2), 2);
        assert_eq!(rt.mu.inbound_backlog(), 3);
        assert_eq!(rt.service_inbound(0, 8), 3);
    }
}
