//! Validates JSONL trace files against the journal schema.
//!
//! Usage: `trace_check [--complete] FILE...` (or a stream on stdin with
//! no file arguments). Exits 0 and prints one `ok:` line per input when
//! every complete line validates and sequence numbers run densely from
//! 0; otherwise prints the first violation (with its line number) and
//! exits 1. A final line without its newline is what a killed run
//! leaves: it is reported as torn and not counted, and fails the input
//! only under `--complete`, which checks a trace from a finished run.
//! CI's trace jobs run this over freshly recorded `--trace` files.

use std::io::Read;
use std::process::ExitCode;

use rebudget_telemetry::schema::validate_stream;

fn check(label: &str, text: &[u8], complete: bool) -> bool {
    match validate_stream(text) {
        Ok(s) if s.torn_bytes > 0 && complete => {
            eprintln!("error: {label}: torn final line after {} events", s.events);
            false
        }
        Ok(s) => {
            let torn = match s.torn_bytes {
                0 => String::new(),
                n => format!(", then a torn final line of {n} bytes (a killed run)"),
            };
            println!("ok: {label}: {} events{torn}", s.events);
            true
        }
        Err(e) => {
            eprintln!("error: {label}: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let complete = args.first().is_some_and(|a| a == "--complete");
    if complete {
        args.remove(0);
    }
    let mut all_ok = true;
    if args.is_empty() {
        let mut text = Vec::new();
        if let Err(e) = std::io::stdin().read_to_end(&mut text) {
            eprintln!("error: stdin: {e}");
            return ExitCode::FAILURE;
        }
        all_ok &= check("<stdin>", &text, complete);
    }
    for path in &args {
        match std::fs::read(path) {
            Ok(text) => all_ok &= check(path, &text, complete),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
