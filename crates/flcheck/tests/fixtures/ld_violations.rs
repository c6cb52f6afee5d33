//! Fixture: lock-discipline violations — an inverted acquisition order
//! and a guard held across a blocking `recv`.


pub struct Dev {
    table: Mutex<u64>,
    counters: Mutex<u64>,
}

impl Dev {
    pub fn backwards(&self) -> u64 {
        let c = self.counters.lock();
        let t = self.table.lock();
        *c + *t
    }

    pub fn held_across_recv(&self, rx: &Receiver<u64>) -> u64 {
        let g = self.table.lock();
        let v = rx.recv();
        *g + v
    }
}
