// Fixture: must be clean — every semantic-rule hazard below carries a
// justified allow, and every allow is live (none are stale).
struct Engine;

impl Engine {
    pub fn step(&mut self) {
        trace_tag();
    }
}

fn trace_tag() -> u64 {
    // simlint: allow(no-os-entropy, audited trace tag outside the seeded plan) simlint: allow(determinism-taint, audited: tag never feeds sim state)
    let t = thread_rng();
    let _ = t;
    0
}

fn burst(rng: &mut Rng, slots_free: usize) -> f64 {
    if slots_free > 0 {
        // simlint: allow(rng-draw-discipline, draw count pinned by the harness test)
        return rng.next_f64();
    }
    0.0
}

fn gather(rx: &Receiver<f64>) -> f64 {
    // simlint: allow(float-accumulation-order, single producer so FIFO order is deterministic)
    rx.try_iter().sum::<f64>()
}
