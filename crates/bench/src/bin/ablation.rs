//! Ablation study: the Fig. 2 anchor cell under each model ablation.

fn main() -> std::process::ExitCode {
    mrbench_bench::main("ablation")
}
