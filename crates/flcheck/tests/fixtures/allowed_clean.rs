//! Fixture: allow directives suppress every finding the sibling
//! fixtures raise.

// Every lock is a leaf: no acquisition order to declare.

// flcheck: ct-fn
pub fn masked_select(secret: u64, a: u64, b: u64) -> u64 {
    // flcheck: allow(ct-branch, ct-compare)
    if secret == 1 {
        // flcheck: allow(ct-return)
        return a;
    }
    // flcheck: allow(ct-compare, ct-shortcircuit)
    let both = secret != 0 && a < b;
    let _ = both;
    b
}

pub fn checked(xs: &[u64]) -> u64 {
    // flcheck: allow(pf-assert)
    assert!(xs.len() > 1, "need two");
    xs.len() as u64
}

pub struct Dev {
    table: Mutex<u64>,
    counters: Mutex<u64>,
}

impl Dev {
    pub fn backwards(&self) -> u64 {
        // flcheck: allow(lock-leaf)
        let c = self.counters.lock();
        // flcheck: allow(lock-leaf)
        let t = self.table.lock();
        *c + *t
    }

    pub fn waits(&self, rx: &Receiver<u64>) -> u64 {
        // flcheck: allow(lock-leaf)
        *self.table.lock() + rx.recv()
    }
}
