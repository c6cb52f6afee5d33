//! Fixture: allow directives suppress every finding the sibling
//! fixtures raise.

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
