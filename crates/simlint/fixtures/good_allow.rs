// Fixture: must be clean — every hazard carries a justified allow.
fn sort_times(xs: &mut [f64]) {
    // simlint: allow(total-float-order, inputs are checked finite above)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

fn seed() -> u64 {
    // simlint: allow(no-os-entropy, seeds a throwaway test fixture only)
    thread_rng().next_u64()
}

// simlint: allow(unit-suffix, dimensionless work units, not seconds)
fn advance(rate: f64) -> f64 {
    rate * 2.0
}
