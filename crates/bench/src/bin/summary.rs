//! Paper-vs-measured summary over every headline claim of Sects. 5.2,
//! 6 and 7: a Markdown table for `EXPERIMENTS.md`, built from every
//! figure's claims by [`mrbench_bench::figures`].

fn main() -> std::process::ExitCode {
    mrbench_bench::main("summary")
}
