//! Deterministic random number generation.
//!
//! Three generators live here:
//!
//! * [`SplitMix64`] — the canonical 64-bit mixer; used to derive seeds and
//!   for cheap internal randomness.
//! * [`Xoshiro256pp`] — a high-quality general-purpose generator used by
//!   workload synthesis.
//! * [`JavaRandom`] — a bit-exact port of `java.util.Random`'s 48-bit
//!   linear congruential generator. The paper's MR-RAND micro-benchmark
//!   picks reducers with Java's `Random`, and notes that its limited range
//!   makes runs reproducible; this port preserves that behaviour exactly.
//!
//! All generators are plain state machines: no global state, no OS entropy,
//! so the whole simulation is a pure function of its master seed.

/// SplitMix64 (Steele, Lea, Flood 2014). Passes BigCrush when used as a
/// stream; primarily used here to expand one master seed into independent
/// per-component seeds.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna). General-purpose workhorse.
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64, as the authors recommend.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Simple rejection from the top 64 bits; bias is negligible for the
        // small bounds used by workloads, but keep it exact anyway.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Fill `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

const JAVA_MULTIPLIER: i64 = 0x5DEECE66D;
const JAVA_ADDEND: i64 = 0xB;
const JAVA_MASK: i64 = (1 << 48) - 1;

/// `k` steps of [`JavaRandom`]'s LCG as one affine map of the 48-bit
/// state, `state -> mul * state + add (mod 2^48)`.
///
/// One step is affine, so any number of steps is too; the map for `k` is
/// built by squaring in `O(log k)`. A kernel can then walk several
/// interleaved lanes of the draw sequence, each stepping by the same
/// jump, instead of one serial chain.
///
/// Wrapping `u64` arithmetic is exact in its low 48 bits. `apply` takes
/// the 48-bit state and masks its result; `apply_high` takes the state
/// held in the top 48 bits of a `u64` (`state << 16`), where no mask is
/// needed and `next(bits)` is `high >> (64 - bits)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JavaJump {
    mul: u64,
    add: u64,
}

impl JavaJump {
    /// The map that advances the state `k` draws. The LCG's period is
    /// 2^48, so `new(k)` equals `new(k % 2^48)`.
    pub const fn new(k: u64) -> Self {
        const MASK: u64 = JAVA_MASK as u64;
        // `step` is the map for 2^i steps; fold it in for each set bit.
        let (mut mul, mut add) = (1u64, 0u64);
        let (mut step_mul, mut step_add) = (JAVA_MULTIPLIER as u64, JAVA_ADDEND as u64);
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                mul = mul.wrapping_mul(step_mul);
                add = add.wrapping_mul(step_mul).wrapping_add(step_add);
            }
            step_add = step_add.wrapping_mul(step_mul).wrapping_add(step_add);
            step_mul = step_mul.wrapping_mul(step_mul);
            k >>= 1;
        }
        JavaJump {
            mul: mul & MASK,
            add: add & MASK,
        }
    }

    /// The 48-bit state `k` draws after `state`; bits of `state` above
    /// the 48th are ignored.
    #[inline]
    pub const fn apply(self, state: u64) -> u64 {
        self.mul.wrapping_mul(state).wrapping_add(self.add) & JAVA_MASK as u64
    }

    /// The same jump on a state held high (`state << 16`): the result is
    /// high too, with its low 16 bits zero.
    #[inline]
    pub const fn apply_high(self, high: u64) -> u64 {
        self.mul.wrapping_mul(high).wrapping_add(self.add << 16)
    }
}

/// Bit-exact reimplementation of `java.util.Random`.
///
/// The MR-RAND partitioner in the paper calls
/// `new Random().nextInt(numReducers)`; this type reproduces the exact
/// Java semantics, including the power-of-two fast path and the rejection
/// loop of `nextInt(int)`.
#[derive(Clone, Debug)]
pub struct JavaRandom {
    seed: i64,
}

impl JavaRandom {
    /// Equivalent to `new java.util.Random(seed)`.
    pub fn new(seed: i64) -> Self {
        JavaRandom {
            seed: (seed ^ JAVA_MULTIPLIER) & JAVA_MASK,
        }
    }

    /// Equivalent to the protected `next(bits)`: the top `bits` bits
    /// (`1..=32`) of the next 48-bit state. Every other draw is built on
    /// it; callers that need only part of a composite draw (the high
    /// half of `nextDouble()`, say) can make the same calls themselves.
    #[inline]
    pub fn next(&mut self, bits: u32) -> i32 {
        self.seed = self
            .seed
            .wrapping_mul(JAVA_MULTIPLIER)
            .wrapping_add(JAVA_ADDEND)
            & JAVA_MASK;
        ((self.seed as u64) >> (48 - bits)) as i32
    }

    /// The 48-bit state: the `seed` field of `java.util.Random`.
    pub fn state(&self) -> u64 {
        self.seed as u64
    }

    /// Set the 48-bit state; bits above the 48th are ignored. With
    /// [`JavaRandom::state`] and [`JavaJump`], a kernel can take the state
    /// out, walk the draw sequence its own way and hand back where it
    /// ends.
    pub fn set_state(&mut self, state: u64) {
        self.seed = (state & JAVA_MASK as u64) as i64;
    }

    /// Advance the state `k` draws at once, exactly as `k` calls to
    /// `next` would.
    pub fn skip(&mut self, k: u64) {
        self.set_state(JavaJump::new(k).apply(self.state()));
    }

    /// Equivalent to `nextInt()`.
    pub fn next_int(&mut self) -> i32 {
        self.next(32)
    }

    /// Equivalent to `nextInt(bound)`; panics if `bound <= 0` exactly as
    /// Java throws `IllegalArgumentException`.
    #[inline]
    pub fn next_int_bound(&mut self, bound: i32) -> i32 {
        assert!(bound > 0, "bound must be positive");
        if (bound & -bound) == bound {
            // Power of two: take high bits.
            return (((bound as i64).wrapping_mul(self.next(31) as i64)) >> 31) as i32;
        }
        loop {
            let bits = self.next(31);
            let val = bits % bound;
            if bits.wrapping_sub(val).wrapping_add(bound - 1) >= 0 {
                return val;
            }
        }
    }

    /// Equivalent to `nextLong()`.
    pub fn next_long(&mut self) -> i64 {
        ((self.next(32) as i64) << 32).wrapping_add(self.next(32) as i64)
    }

    /// Equivalent to `nextDouble()`.
    #[inline]
    pub fn next_double(&mut self) -> f64 {
        let high = (self.next(26) as i64) << 27;
        let low = self.next(27) as i64;
        (high + low) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Equivalent to `nextBoolean()`.
    pub fn next_boolean(&mut self) -> bool {
        self.next(1) != 0
    }
}

/// Derives independent, labelled random streams from one master seed, so
/// adding a consumer never perturbs the randomness other components see.
#[derive(Clone, Debug)]
pub struct SeedFactory {
    master: u64,
}

impl SeedFactory {
    /// Create a factory for `master` seed.
    pub fn new(master: u64) -> Self {
        SeedFactory { master }
    }

    /// The seed for the stream identified by `label`.
    pub fn seed_for(&self, label: &str) -> u64 {
        // FNV-1a over the label, mixed with the master through SplitMix64.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut sm = SplitMix64::new(self.master ^ h);
        sm.next_u64()
    }

    /// A ready-made xoshiro stream for `label`.
    pub fn stream(&self, label: &str) -> Xoshiro256pp {
        Xoshiro256pp::new(self.seed_for(label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_random_known_vectors() {
        // Values cross-checked against OpenJDK's java.util.Random.
        let mut r = JavaRandom::new(0);
        assert_eq!(r.next_int(), -1155484576);
        assert_eq!(r.next_int(), -723955400);
        let mut r = JavaRandom::new(42);
        assert_eq!(r.next_int(), -1170105035);
        let mut r = JavaRandom::new(0);
        r.next_int();
        r.next_int();
        // nextLong consumes two next(32) calls.
        let mut r2 = JavaRandom::new(0);
        let l = r2.next_long();
        assert_eq!(l, (-1155484576i64 << 32).wrapping_add(-723955400i64));
        let _ = r;
    }

    #[test]
    fn java_next_int_bound_range() {
        let mut r = JavaRandom::new(123456789);
        for bound in [1, 2, 3, 7, 8, 10, 16, 100] {
            for _ in 0..1000 {
                let v = r.next_int_bound(bound);
                assert!((0..bound).contains(&v), "v={v} bound={bound}");
            }
        }
    }

    #[test]
    fn java_next_int_bound_reasonably_uniform() {
        let mut r = JavaRandom::new(7);
        let bound = 8;
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.next_int_bound(bound) as usize] += 1;
        }
        let expect = n as f64 / bound as f64;
        for c in counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.05,
                "counts={counts:?}"
            );
        }
    }

    #[test]
    fn java_next_double_in_unit_interval() {
        let mut r = JavaRandom::new(99);
        for _ in 0..10_000 {
            let d = r.next_double();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn next_double_is_two_next_calls() {
        // nextDouble() = (next(26) << 27 | next(27)) / 2^53, so a caller
        // making the two `next` calls itself stays in step with it.
        let mut a = JavaRandom::new(31);
        let mut b = JavaRandom::new(31);
        for _ in 0..1000 {
            let hi = i64::from(b.next(26));
            let lo = i64::from(b.next(27));
            let d = ((hi << 27) + lo) as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(a.next_double().to_bits(), d.to_bits());
        }
        assert_eq!(a.next_int(), b.next_int());
    }

    #[test]
    fn skip_equals_repeated_next() {
        let mut seeds = SplitMix64::new(0x5C1F);
        let long: Vec<u64> = (0..3)
            .map(|_| 71 + seeds.next_below(1_000_000 - 70))
            .collect();
        for k in (0..=70).chain(long) {
            let seed = seeds.next_u64() as i64;
            let mut stepped = JavaRandom::new(seed);
            for _ in 0..k {
                stepped.next(32);
            }
            let mut skipped = JavaRandom::new(seed);
            skipped.skip(k);
            assert_eq!(skipped.state(), stepped.state(), "k = {k}");
            assert_eq!(skipped.next_int(), stepped.next_int(), "k = {k}");
        }
    }

    #[test]
    fn skips_compose() {
        let mut seeds = SplitMix64::new(0xC0DE);
        for _ in 0..64 {
            let (a, b) = (seeds.next_u64() >> 17, seeds.next_below(1 << 20));
            let seed = seeds.next_u64() as i64;
            let mut twice = JavaRandom::new(seed);
            twice.skip(a);
            twice.skip(b);
            let mut once = JavaRandom::new(seed);
            once.skip(a + b);
            assert_eq!(twice.state(), once.state(), "a = {a}, b = {b}");
        }
    }

    #[test]
    fn skipping_the_full_period_is_the_identity() {
        assert_eq!(JavaJump::new(1 << 48), JavaJump::new(0));
        assert_eq!(JavaJump::new((1 << 48) + 5), JavaJump::new(5));
        let mut r = JavaRandom::new(2014);
        let before = r.state();
        r.skip(1 << 48);
        assert_eq!(r.state(), before);
    }

    #[test]
    fn high_form_tracks_the_low_form() {
        let jump = JavaJump::new(8);
        let (mut low, mut high) = (0x1234_5678_9ABCu64, 0x1234_5678_9ABCu64 << 16);
        for _ in 0..1000 {
            low = jump.apply(low);
            high = jump.apply_high(high);
            assert_eq!(high, low << 16);
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let mut c = SplitMix64::new(2);
        let va = a.next_u64();
        assert_eq!(va, b.next_u64());
        assert_ne!(va, c.next_u64());
    }

    #[test]
    fn splitmix_next_below_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn xoshiro_deterministic_and_fills() {
        let mut a = Xoshiro256pp::new(5);
        let mut b = Xoshiro256pp::new(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut buf = [0u8; 19];
        a.fill_bytes(&mut buf);
        // 19 bytes should not be all zeros with overwhelming probability.
        assert!(buf.iter().any(|&x| x != 0));
        for _ in 0..10_000 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(a.next_below(97) < 97);
        }
    }

    #[test]
    fn seed_factory_streams_are_independent_and_stable() {
        let f = SeedFactory::new(0xDEADBEEF);
        assert_eq!(f.seed_for("net"), f.seed_for("net"));
        assert_ne!(f.seed_for("net"), f.seed_for("cpu"));
        let mut s1 = f.stream("workload");
        let mut s2 = f.stream("workload");
        assert_eq!(s1.next_u64(), s2.next_u64());
    }
}
