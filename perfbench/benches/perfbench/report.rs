//! The run's output: a context line with provenance, then the result line,
//! last on stdout.  A traced run also writes its spans as JSON lines beside
//! the benchmark.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pagani_perfbench::{END_TO_END, PER_LAYER};

use crate::layers::ratio;
use crate::stats::{median, tail_percentile};
use crate::workloads::{Outcome, TAIL_BLOCK};
use crate::Args;

/// A finite JSON number (NaN and infinities, which JSON cannot carry, as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The end-to-end metrics of an untraced run, in catalogue order.
fn end_to_end(outcome: &Outcome) -> [f64; END_TO_END.len()] {
    let tally = &outcome.tally;
    [
        median(&outcome.setup_s),
        outcome.solve_s,
        ratio(tally.completed as f64, outcome.timed_s),
        tally.latency.percentile_ms(50.0),
        median(&tally.tails_ms),
        1.0 - ratio(tally.failed as f64, tally.attempted as f64),
        outcome.rss_mib,
    ]
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` when there is one beside the benchmark, else `unknown`.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a traced run writes its spans.
fn spans_path(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn write_spans(outcome: &Outcome, path: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(path.parent().expect("spans path has a parent"))?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for log in &outcome.spans {
        log.write_jsonl(&mut out)?;
    }
    out.flush()
}

/// Print the context line and the result line; `nproc` is the number of
/// CPUs the benchmark could use when it started.
pub fn print(args: &Args, nproc: usize, outcome: &Outcome) {
    let tally = &outcome.tally;
    let checks_ok = outcome.checks.iter().all(|&(_, ok)| ok);
    let correct = tally.incorrect == 0 && checks_ok;

    let mut context = String::new();
    let _ = write!(
        context,
        "{{\"context\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"device_worker_threads\":{:?},\"cpus\":{:?},\"commit\":\"{}\",\"setup_s_samples\":[{}],\"timed_s\":{},\"completed\":{},\"incorrect\":{},\"tail_percentile\":{},\"latency_samples\":{},\"tail_blocks\":{},\"solve_blocks\":{}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        nproc,
        outcome.device_threads,
        outcome.cpus,
        commit(),
        outcome.setup_s.iter().map(|&s| num(s)).collect::<Vec<_>>().join(","),
        num(outcome.timed_s),
        tally.completed,
        tally.incorrect,
        tail_percentile(tally.latency.count().min(TAIL_BLOCK as u64)),
        tally.latency.count(),
        tally.tails_ms.len(),
        tally.blocks_s.len(),
    );
    context.push_str(",\"checks\":{");
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, ok)| format!("\"{name}\":{ok}"))
        .collect();
    context.push_str(&checks.join(","));
    context.push('}');
    let e2e = end_to_end(outcome);
    context.push_str(",\"end_to_end\":{");
    let values: Vec<String> = END_TO_END
        .iter()
        .zip(&e2e)
        .map(|((name, _), v)| format!("\"{name}\":{}", num(*v)))
        .collect();
    context.push_str(&values.join(","));
    context.push('}');
    if args.trace {
        let path = spans_path(args);
        match write_spans(outcome, &path) {
            Ok(()) => {
                let _ = write!(context, ",\"spans_file\":\"{}\"", path.display());
            }
            Err(err) => eprintln!("perfbench: could not write spans: {err}"),
        }
    }
    context.push_str("}}");

    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.spans" {
                    outcome.spans.iter().map(|s| s.total()).sum::<u64>() as f64
                } else {
                    outcome.layers.get(name)
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(value)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(&(name, unit), &v)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
            })
            .collect()
    };
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    );
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{context}");
    let _ = writeln!(stdout, "{result}");
    let _ = stdout.flush();
}
