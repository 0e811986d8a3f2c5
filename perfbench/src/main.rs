//! tgdkit benchmark harness: the `rewrite`, `chase` and `serve`
//! workloads, driven through the crates' public API from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rewrite|chase|serve> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```

//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines above it
//! starting with `#` are diagnostics. See `perfbench/README.md`.

mod chase;
mod host;
mod report;
mod rewrite;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{result_line, Outcome, END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs, for the self-check.
    pub small: bool,
}

const WORKLOADS: [&str; 3] = ["rewrite", "chase", "serve"];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Scratch space for store directories and span files, inside the
/// benchmark's own directory.
pub fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".run")
}

/// Runs one workload and returns its outcome, with host diagnostics.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let calib_before = host::calib_ms();
    let spans = match args.workload.as_str() {
        "rewrite" => rewrite::run(args, &mut out),
        "chase" => chase::run(args, &mut out),
        _ => serve::run(args, &mut out),
    };
    let calib_after = host::calib_ms();
    out.set("peak_rss_mb", host::peak_rss_mb());
    let mem_ms = host::mem_probe_ms();
    out.set("host.calib_ms", (calib_before + calib_after) / 2.0);
    out.set("host.mem_ms", mem_ms);
    out.set("host.cores", host::cores() as f64);
    out.note(format!(
        "host: calib_ms before {calib_before:.3} after {calib_after:.3}, mem_ms after \
         {mem_ms:.3}, cores {}",
        host::cores()
    ));
    if let Some(tsv) = spans {
        let path = run_dir().join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all(run_dir()).and_then(|()| std::fs::write(&path, tsv));
        match written {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.note(format!("spans not written: {e}")),
        }
    }
    out
}

fn print(args: &Args, out: &Outcome) {
    for line in &out.notes {
        println!("# {line}");
    }
    for failure in &out.failures {
        println!("# FAILED: {failure}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(out, table));
}

/// Every workload on small inputs, traced, must check out: correct
/// answers, repeated counts, and every metric present.
fn self_check() -> Result<(), String> {
    for workload in WORKLOADS {
        let args = Args {
            workload: workload.to_string(),
            seed: 1,
            seconds: 0.0,
            trace: true,
            small: true,
        };
        let out = run(&args);
        print(&args, &out);
        if out.failed != 0 || out.attempted == 0 {
            return Err(format!(
                "{workload}: {} of {} checks failed",
                out.failed, out.attempted
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--self-check") {
        return match self_check() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("self-check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    print(&args, &out);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_runner_form() {
        let argv = [
            "--workload",
            "chase",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = parse_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (3, 10.0, true));
        assert!(parse_args(["--workload", "nope"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn self_check_passes() {
        self_check().unwrap();
    }
}
