//! Preallocated frame buffers — the pinned-memory discipline.
//!
//! §3.1 of the paper: *"To conserve memory, we maintain a single copy of
//! frames in NI memory and allow scheduling analysis and dispatch to
//! manipulate addresses of frames."* [`FramePool`] is that store for the
//! real engine: fixed-size slots allocated once at construction, frames
//! copied in by producers, addressed by slot index through
//! `FrameDesc::addr`, read and released by the dispatch path. No
//! allocation happens on the streaming fast path.

use parking_lot::Mutex;
use std::sync::Arc;

/// A slot handle (what travels in `FrameDesc::addr`).
pub type SlotId = u32;

struct Slots {
    data: Vec<Box<[u8]>>,
    len: Vec<u32>,
    free: Vec<SlotId>,
    /// `is_free[i]` ⇔ slot `i` is on `free`: the O(1) double-free check.
    is_free: Vec<bool>,
}

impl Slots {
    /// Is `id` a slot a producer holds (in range and not free)?
    fn held(&self, id: SlotId) -> bool {
        self.is_free.get(id as usize) == Some(&false)
    }

    /// Return a held slot to the free list; a no-op for any other id.
    fn release(&mut self, id: SlotId) {
        if self.held(id) {
            self.len[id as usize] = 0;
            self.is_free[id as usize] = true;
            self.free.push(id);
        }
    }
}

/// Fixed-capacity pool of frame buffers, shared between producers and the
/// scheduler thread.
#[derive(Clone)]
pub struct FramePool {
    inner: Arc<Mutex<Slots>>,
    slot_size: usize,
}

impl FramePool {
    /// Pool of `slots` buffers of `slot_size` bytes each, allocated now.
    pub fn new(slots: usize, slot_size: usize) -> FramePool {
        FramePool {
            inner: Arc::new(Mutex::new(Slots {
                data: (0..slots).map(|_| vec![0u8; slot_size].into_boxed_slice()).collect(),
                len: vec![0; slots],
                free: (0..slots as u32).rev().collect(),
                is_free: vec![true; slots],
            })),
            slot_size,
        }
    }

    /// Slot payload capacity.
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// Copy `payload` into a free slot. Returns `None` when the pool is
    /// exhausted (producer back-pressure) or the payload does not fit.
    pub fn store(&self, payload: &[u8]) -> Option<SlotId> {
        if payload.len() > self.slot_size {
            return None;
        }
        let mut s = self.inner.lock();
        let id = s.free.pop()?;
        s.is_free[id as usize] = false;
        s.data[id as usize][..payload.len()].copy_from_slice(payload);
        s.len[id as usize] = payload.len() as u32;
        Some(id)
    }

    /// Read a slot's payload through `f`, then release the slot.
    /// Returns `None` if the slot is not held (out of range or already free).
    pub fn take<R>(&self, id: SlotId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let mut s = self.inner.lock();
        if !s.held(id) {
            return None;
        }
        let idx = id as usize;
        let r = f(&s.data[idx][..s.len[idx] as usize]);
        s.release(id);
        Some(r)
    }

    /// Release a slot without reading (dropped frames).
    pub fn release(&self, id: SlotId) {
        self.inner.lock().release(id);
    }

    /// Free slots remaining.
    pub fn free_slots(&self) -> usize {
        self.inner.lock().free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_take_round_trip() {
        let pool = FramePool::new(4, 1500);
        let id = pool.store(b"hello frame").unwrap();
        let read = pool.take(id, |b| b.to_vec()).unwrap();
        assert_eq!(read, b"hello frame");
        assert_eq!(pool.free_slots(), 4);
    }

    #[test]
    fn exhaustion_backpressures() {
        let pool = FramePool::new(2, 100);
        let a = pool.store(b"a").unwrap();
        let _b = pool.store(b"b").unwrap();
        assert!(pool.store(b"c").is_none(), "pool exhausted");
        pool.release(a);
        assert!(pool.store(b"c").is_some());
    }

    #[test]
    fn oversized_payload_rejected() {
        let pool = FramePool::new(2, 10);
        assert!(pool.store(&[0u8; 11]).is_none());
        assert_eq!(pool.free_slots(), 2, "no slot leaked");
    }

    #[test]
    fn double_take_and_bogus_ids_are_safe() {
        let pool = FramePool::new(2, 10);
        let id = pool.store(b"x").unwrap();
        assert!(pool.take(id, |_| ()).is_some());
        assert!(pool.take(id, |_| ()).is_none(), "already free");
        assert!(pool.take(99, |_| ()).is_none(), "bogus id");
        pool.release(99); // no-op
        pool.release(id); // already free: no-op
        assert_eq!(pool.free_slots(), 2);
    }

    #[test]
    fn shared_across_clones() {
        let pool = FramePool::new(1, 10);
        let clone = pool.clone();
        let id = pool.store(b"x").unwrap();
        assert_eq!(clone.free_slots(), 0);
        clone.release(id);
        assert_eq!(pool.free_slots(), 1);
    }
}
