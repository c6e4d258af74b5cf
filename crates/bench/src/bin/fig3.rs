//! Figure 3: the three distribution patterns on YARN, Cluster A.
//! Defined by [`mrbench_bench::figures::FIG3`].

fn main() -> std::process::ExitCode {
    mrbench_bench::figures::FIG3.main()
}
