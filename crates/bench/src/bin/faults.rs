//! Fault-tolerance experiments (extension beyond the paper's figures):
//! recovery cost under task failures, a node crash and a straggler.

fn main() -> std::process::ExitCode {
    mrbench_bench::main("faults")
}
