// Fixture: must trip `stale-allow` — nothing below still trips
// `total-float-order`, so the directive is dead weight that hides
// future violations at this site.
// simlint: allow(total-float-order, leftover from a removed partial_cmp sort)
fn quiet() -> u64 {
    7
}
