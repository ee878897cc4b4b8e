use std::process::ExitCode;

fn main() -> ExitCode {
    chariots_benchmark::cli_main()
}
