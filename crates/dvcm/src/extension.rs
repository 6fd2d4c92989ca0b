//! Extension modules — the DVCM's run-time extensibility.
//!
//! "The third set of DVCM functions are the extensions that support
//! specific applications' needs" (§2). An extension registers under a
//! function-code namespace; the NI runtime routes decoded instructions to
//! it and posts its replies. Extensions also get a periodic `poll` — the
//! NI task loop — which is where the media scheduler makes dispatch
//! decisions.

use crate::instr::VcmInstruction;
use core::any::Any;
use dwcs::Time;

/// Reply an extension returns for an instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtReply {
    /// Completion status (0 = success).
    pub status: u8,
    /// Payload words for the reply frame.
    pub payload: Vec<u32>,
}

impl ExtReply {
    /// Success with no payload.
    pub fn ok() -> ExtReply {
        ExtReply {
            status: 0,
            payload: vec![],
        }
    }

    /// Success with payload.
    pub fn with(payload: Vec<u32>) -> ExtReply {
        ExtReply { status: 0, payload }
    }

    /// Failure with a status code.
    pub fn err(status: u8) -> ExtReply {
        ExtReply {
            status,
            payload: vec![],
        }
    }
}

/// An NI-resident extension module.
pub trait ExtensionModule: Any {
    /// Module name (diagnostics).
    fn name(&self) -> &str;

    /// Handle one instruction at NI time `now`.
    fn on_instruction(&mut self, instr: VcmInstruction, now: Time) -> ExtReply;

    /// Periodic NI-task work (scheduling, dispatch). Returns how many
    /// units of work were done (0 = idle) so the runtime can price it.
    fn poll(&mut self, now: Time) -> u32;

    /// Downcast support: embedders reach extension-specific surfaces
    /// (e.g. the media scheduler's dispatch outbox) through
    /// [`ExtensionRegistry::get_as`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Registry of loaded extensions. The DVCM instruction set is routed to
/// one primary extension per runtime in this system (the media scheduler);
/// the registry supports several for layering experiments.
pub struct ExtensionRegistry {
    modules: Vec<Box<dyn ExtensionModule>>,
}

impl Default for ExtensionRegistry {
    fn default() -> Self {
        ExtensionRegistry::new()
    }
}

impl ExtensionRegistry {
    /// Empty registry.
    pub fn new() -> ExtensionRegistry {
        ExtensionRegistry { modules: Vec::new() }
    }

    /// Load an extension; returns its index.
    pub fn load(&mut self, module: Box<dyn ExtensionModule>) -> usize {
        self.modules.push(module);
        self.modules.len() - 1
    }

    /// Unload an extension by index (run-time reconfiguration: "the
    /// services implemented by the DVCM vary over time").
    pub fn unload(&mut self, idx: usize) -> Option<Box<dyn ExtensionModule>> {
        if idx < self.modules.len() {
            Some(self.modules.remove(idx))
        } else {
            None
        }
    }

    /// Dispatch an instruction to the first extension (the routing policy
    /// of this system: one scheduler extension per NI).
    pub fn dispatch(&mut self, instr: VcmInstruction, now: Time) -> ExtReply {
        match self.modules.first_mut() {
            Some(m) => m.on_instruction(instr, now),
            None => ExtReply::err(0xFF),
        }
    }

    /// Poll every module; returns total work units.
    pub fn poll_all(&mut self, now: Time) -> u32 {
        self.modules.iter_mut().map(|m| m.poll(now)).sum()
    }

    /// Loaded module count.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether no modules are loaded.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Access a module by index.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut (dyn ExtensionModule + '_)> {
        match self.modules.get_mut(idx) {
            Some(b) => Some(b.as_mut()),
            None => None,
        }
    }

    /// Access a module by index as its concrete type.
    pub fn get_as<T: ExtensionModule>(&mut self, idx: usize) -> Option<&mut T> {
        self.modules.get_mut(idx)?.as_any_mut().downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        poll_calls: u32,
    }

    impl ExtensionModule for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn on_instruction(&mut self, instr: VcmInstruction, _now: Time) -> ExtReply {
            match instr {
                VcmInstruction::Kick => ExtReply::with(vec![7]),
                _ => ExtReply::err(1),
            }
        }

        fn poll(&mut self, _now: Time) -> u32 {
            self.poll_calls += 1;
            1
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn empty_registry_rejects() {
        let mut r = ExtensionRegistry::new();
        assert_eq!(r.dispatch(VcmInstruction::Kick, 0), ExtReply::err(0xFF));
        assert_eq!(r.poll_all(0), 0);
    }

    #[test]
    fn load_dispatch_unload() {
        let mut r = ExtensionRegistry::new();
        let idx = r.load(Box::new(Echo { poll_calls: 0 }));
        assert_eq!(r.dispatch(VcmInstruction::Kick, 0), ExtReply::with(vec![7]));
        assert_eq!(r.poll_all(0), 1);
        assert_eq!(r.len(), 1);
        let m = r.unload(idx).unwrap();
        assert_eq!(m.name(), "echo");
        assert!(r.is_empty());
        assert!(r.unload(0).is_none());
    }

    #[test]
    fn get_as_downcasts_to_concrete_type() {
        let mut r = ExtensionRegistry::new();
        r.load(Box::new(Echo { poll_calls: 3 }));
        let echo: &mut Echo = r.get_as(0).expect("is an Echo");
        assert_eq!(echo.poll_calls, 3);
        assert!(r.get_as::<crate::media_sched::MediaSchedExt>(0).is_none());
    }
}
