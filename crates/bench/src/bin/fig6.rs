//! Figure 6: MR-RAND with `BytesWritable` vs `Text`. Defined by
//! [`mrbench_bench::figures::FIG6`].

fn main() -> std::process::ExitCode {
    mrbench_bench::main("fig6")
}
