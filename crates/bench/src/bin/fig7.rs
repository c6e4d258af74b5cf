//! Figure 7: resource utilization on one slave during MR-AVG. Defined
//! by [`mrbench_bench::figures::FIG7`].

fn main() -> std::process::ExitCode {
    mrbench_bench::figures::FIG7.main()
}
