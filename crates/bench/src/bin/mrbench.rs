//! `mrbench` — the micro-benchmark suite's command-line front end; its
//! flags and driver are [`mrbench_bench::cli`].

fn main() -> std::process::ExitCode {
    mrbench_bench::main("mrbench")
}
