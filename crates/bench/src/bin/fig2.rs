//! Figure 2: job time for the three data distribution patterns on
//! Cluster A (MRv1). Defined by [`mrbench_bench::figures::FIG2`].

fn main() -> std::process::ExitCode {
    mrbench_bench::figures::FIG2.main()
}
