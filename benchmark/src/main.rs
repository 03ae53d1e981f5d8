fn main() -> std::process::ExitCode {
    zkvc_benchmark::cli::main()
}
