//! Fixture: panicking library code; only the assert is flcheck's (`pf-assert`).

pub fn all_panic_paths(xs: &[u64]) -> u64 {
    let head = xs.first().unwrap();
    let tail = xs.last().expect("non-empty");
    assert!(xs.len() > 1, "need two");
    if xs.len() > 9 {
        panic!("too many");
    }
    head + tail + xs[0]
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_in_tests_are_fine() {
        let v = [1u64, 2];
        assert_eq!(v[0], 1);
        v.first().unwrap();
    }
}
