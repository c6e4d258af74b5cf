// Fixture: must trip `allow-syntax` — the escape hatch requires a
// reason; a bare allow(rule) suppresses nothing and is itself an error.
// simlint: allow(total-float-order)
fn sort_times(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
