//! `casbn` — command-line front end for the sampling pipeline. See
//! `commands::USAGE` for the subcommand reference and
//! `commands::COMMANDS` for the dispatch table.

use casbn_cli::commands;
use casbn_fuzz::CountingAlloc;

/// Counting allocator so `casbn fuzz` can enforce its per-iteration
/// heap-growth cap; a no-op wrapper around `System` for every other
/// subcommand.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(commands::run(&argv));
}
