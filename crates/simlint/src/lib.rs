//! `simlint` — the workspace determinism lint pass.
//!
//! The benchmark suite's results are only meaningful if a config+seed
//! pair reproduces bit-identical job times (that is what
//! `baseline_digest` pins). Two static passes enforce the conventions
//! behind that guarantee. clippy owns the std-level bans: the root
//! `clippy.toml` disallows the wall clock (`Instant::{now, elapsed}`,
//! `SystemTime::{now, elapsed}`) and std's randomly seeded hashing
//! (`HashMap`, `HashSet`, `RandomState`), resolved by type. `simlint`
//! checks what clippy cannot resolve or say, over the deterministic
//! crates (`simcore`, `simnet`, `cluster`, `mapreduce`, `core`):
//!
//! | rule | forbids |
//! |------|---------|
//! | `no-os-entropy` | `thread_rng` / `from_entropy` / `RandomState` / `OsRng` |
//! | `total-float-order` | `partial_cmp` calls (use `f64::total_cmp`) |
//! | `unit-suffix` | raw-numeric time/byte/rate names without `_s`/`_bytes`/`_bps` |
//! | `determinism-taint` | wall-clock/entropy/unordered sinks *transitively reachable* from `Engine`/`Network`/`multijob` sim-state mutation (full call chain in the diagnostic) |
//! | `rng-draw-discipline` | RNG draws inside conditionals guarded by scheduling state |
//! | `float-accumulation-order` | `f64` reductions over non-provably-deterministic iteration order |
//! | `stale-allow` | an `allow` directive whose rule no longer fires at that site |
//!
//! Run it as `cargo run -p simlint -- check` (add `--json` for
//! machine-readable output). Justified exceptions use an inline
//! directive that *requires* a reason:
//!
//! ```text
//! // simlint: allow(no-os-entropy, seeds a throwaway fixture, never sim state)
//! ```
//!
//! The directive covers its own line and the next one; a missing reason
//! or unknown rule is itself a diagnostic (`allow-syntax`) that cannot
//! be suppressed.
//!
//! The scanner is a hand-rolled token lexer ([`lexer`]) rather than a
//! full AST: the workspace carries no external dependencies by design,
//! so `syn` is not available. Token-level matching over-approximates
//! (e.g. any `thread_rng` mention trips `no-os-entropy`), which is the
//! intended posture — exceptions are written down and audited via the
//! allow directive instead of inferred. On top of the tokens, [`items`]
//! recovers fn/impl/use structure and [`analysis`] runs the
//! program-wide passes (call-graph taint, draw discipline, float
//! accumulation order) with the same over-approximating philosophy.

pub mod analysis;
pub mod driver;
pub mod items;
pub mod lexer;
pub mod rules;
