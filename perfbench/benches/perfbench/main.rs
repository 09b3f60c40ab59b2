//! The PAGANI benchmark: one command runs a named workload from a seed
//! through the public API, checks every answer against its analytic
//! reference, and prints its metrics by name and unit.
//!
//! From the repository root:
//!
//! ```sh
//! cargo bench --offline --manifest-path perfbench/Cargo.toml --bench perfbench -- \
//!     --workload service_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 1` runs the same workload with spans and device counters on and
//! prints the per-layer metrics instead.  See `perfbench/README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod layers;
mod remote;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use workloads::Workload;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Internal: `worker` re-executes this binary as a remote_mix worker.
    role: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        role: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        // `cargo bench` appends `--bench` to the arguments.
        if flag == "--bench" {
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                let seconds: u64 = value.parse().map_err(|_| bad("whole seconds"))?;
                args.seconds = Duration::from_secs(seconds.max(1));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--role" => args.role = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if args.role.as_deref() == Some("worker") {
        return remote::worker_main(args.seed);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "perfbench: --workload must be one of paper_solve, service_mix, cache_repeat, remote_mix"
        );
        return ExitCode::from(2);
    };
    // Read before the run: remote_mix pins itself to one CPU, after which
    // the process sees only that one.
    let nproc = workloads::nproc();
    let outcome = workload.run(&args);
    report::print(&args, nproc, &outcome);
    ExitCode::SUCCESS
}
