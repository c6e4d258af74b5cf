//! Figure 4: MR-AVG job time by key/value pair size. Defined by
//! [`mrbench_bench::figures::FIG4`].

fn main() -> std::process::ExitCode {
    mrbench_bench::figures::FIG4.main()
}
