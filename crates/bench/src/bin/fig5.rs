//! Figure 5: MR-AVG job time by number of maps and reduces. Defined by
//! [`mrbench_bench::figures::FIG5`].

fn main() -> std::process::ExitCode {
    mrbench_bench::figures::FIG5.main()
}
