//! Figure 8: the RDMA case study, MRoIB vs IPoIB on Cluster B. Defined
//! by [`mrbench_bench::figures::FIG8`].

fn main() -> std::process::ExitCode {
    mrbench_bench::main("fig8")
}
