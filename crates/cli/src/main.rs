//! `aarc` — command-line front end of the declarative scenario subsystem.
//!
//! ```text
//! aarc validate <spec>...
//! aarc run --spec FILE [--method aarc|bo|maff|random] [--slo MS] [--threads N] [--format text|json]
//! aarc compare --spec FILE [--threads N] [--out FILE] [--format json|csv]
//! aarc sweep <spec|dir>... [--methods a,b] [--classes c,d] [--threads N] [--format json|csv]
//! aarc bench <spec>... [--threads N] [--batch N] [--out FILE] [--baseline FILE]
//! aarc serve [--addr HOST:PORT] [--threads N] [--tenants FILE] [--max-live-sessions N]
//! aarc loadtest [--concurrent N] [--tenants N] [--clients N] [--hold] [--bench FILE]
//! aarc export-builtin [--dir DIR] [--format yaml|json]
//! aarc generate --seed N [--layers N] [--max-width N] [--out FILE]
//! ```
//!
//! Argument parsing is hand-rolled: the offline build environment has no
//! crates.io access, and the flag surface is small enough that a vendored
//! clap shim would cost more than it saves.

#![forbid(unsafe_code)]

use std::process::ExitCode;

mod args;
mod bench;
mod client;
mod commands;
mod http;
mod loadtest;
mod problem;
mod report;
mod serve;
mod state;
mod sweep;
mod tenant;
mod version;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
