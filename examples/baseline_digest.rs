//! Prints an exact digest (nanosecond job time + full counters) for a
//! grid of representative configurations. Used to verify that engine
//! changes keep clean-path runs bit-identical; `tests/golden.rs` pins
//! the same text in `tests/golden/MANIFEST`.
//!
//! ```text
//! cargo run --release --example baseline_digest
//! ```

fn main() {
    print!("{}", hadoop_mr_microbench::baseline_digest());
}
