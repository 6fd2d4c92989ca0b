//! Fixture: ni-no-alloc violations and exemptions.
//! Never compiled — scanned by `nistream-analysis` tests only.

pub struct Ring {
    buf: VecDeque<u64>,
}

// analysis: hot
pub fn service_once(ring: &mut Ring, scratch: &mut Vec<u64>) {
    scratch.push(1);
    let b = Box::new(7u64);
    let label = format!("slot {b}");
    helper(ring, label);
}

// Reachable from the hot root through the call graph.
fn helper(ring: &mut Ring, label: String) {
    ring.buf.push_back(label.len() as u64);
}

// Not a violation: never reachable from a hot root.
pub fn cold_setup(v: &mut Vec<u64>) {
    v.push(2);
}

impl Ring {
    // Not a violation: `new` is an init-time constructor, so the hot walk
    // never descends into it.
    pub fn new() -> Ring {
        Ring {
            buf: VecDeque::with_capacity(64),
        }
    }
}

// analysis: hot
pub fn hot_with_init() {
    let r = Ring::new();
    let _ = r;
}

// analysis: allow(ni-no-alloc) reason="admission-time growth, not steady state"
fn admit(ring: &mut Ring) {
    ring.buf.push_back(0);
}

// analysis: hot
pub fn hot_admitting(ring: &mut Ring) {
    admit(ring);
}

impl Ring {
    // A counter bump on `self` must not erase the receiver's type: the
    // `push_back` two statements later is still a violation.
    // analysis: hot
    pub fn push_counted(&mut self, v: u64) {
        self.pushed += 1;
        self.buf.push_back(v);
    }
}

impl Ring {
    // A store of an untyped value keeps the field's declared type: the
    // `push_back` after it is still a violation.
    // analysis: hot
    pub fn refill(&mut self, v: u64) {
        self.buf = fresh_buf();
        self.buf.push_back(v);
    }
}

#[cfg(test)]
mod tests {
    // analysis: hot
    fn probe() {
        let mut v = Vec::new();
        v.push(1u64);
    }
}
