//! The unified `ccache` binary: figure reproductions, generic sweeps and trace tooling.
//!
//! Usage: `ccache <fig4|fig5|ablation|sweep|trace> [options]`; see `ccache --help`.

fn main() -> std::process::ExitCode {
    ccache_cli::main()
}
