//! Unit-flow fixture: `unit-mismatch` and `unit-unconverted` at pinned
//! lines. Like every fixture, never compiled.

// flcheck: convert(bytes->seconds)
fn transfer_seconds(bytes: f64) -> f64 {
    bytes / 1.0e9
}

fn charge_sleep(seconds: f64) -> f64 {
    seconds
}

fn relay(amount: f64) -> f64 {
    charge_sleep(amount)
}

pub fn run_round(payload_bytes: f64) -> f64 {
    let mut total_seconds = 0.0;
    total_seconds += payload_bytes;
    let deadline_seconds = 1.0;
    if deadline_seconds < payload_bytes {
        total_seconds += transfer_seconds(payload_bytes);
    }
    charge_sleep(total_seconds);
    relay(payload_bytes)
}
