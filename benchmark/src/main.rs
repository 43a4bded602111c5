//! `flexwan-benchmark run|compare|shares` — see `README.md`.

fn main() {
    std::process::exit(flexwan_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
