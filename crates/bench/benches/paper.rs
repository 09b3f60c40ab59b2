//! The paper's evaluation: runs the sweep once, prints every figure as a view
//! over its rows, and writes the rows to `BENCH_paper.json` at the
//! repository root.
//!
//! `cargo bench --bench paper [-- <figure>...]`: a figure name (`fig1` …
//! `fig9`, `genz`, `ablation`, `kernels`) runs only that figure's specs.
//! `PAGANI_BENCH_MAX_DIGITS` (default 5) and `PAGANI_BENCH_FULL=1` pick the
//! sweep.  Progress goes to stderr, the views to stdout.

use std::process::Command;

use pagani_bench::{run, specs, violations, Fields, Sweep, FIGURES};
use pagani_bench::{DEVICE_MIB, MAX_EVALUATIONS, TWO_PHASE};
use pagani_device::{Device, DeviceConfig};
use pagani_persist::json::Value;
use pagani_quadrature::rel_tol_for_digits;

fn main() {
    let args = std::env::args().skip(1);
    let chosen: Vec<String> = args.filter(|a| !a.starts_with("--")).collect();
    if let Some(name) = chosen.iter().find(|name| !FIGURES.contains(&name.as_str())) {
        panic!("no figure {name}: {FIGURES:?}");
    }
    let chosen = |figure: &str| chosen.is_empty() || chosen.iter().any(|name| name == figure);
    let figures: Vec<&str> = FIGURES.into_iter().filter(|f| chosen(f)).collect();
    let sweep = Sweep::from_env();
    let mut specs = specs(&sweep);
    specs.retain(|s| s.figures.iter().any(|f| chosen(f)));
    let mut rows = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        eprintln!("[{:>3}/{}] {}", i + 1, specs.len(), spec.id());
        rows.push(run(spec));
    }

    for &figure in &figures {
        let tag = Value::Str(figure.to_owned());
        let tagged = |r: &&Value| r.items("figures").contains(&tag);
        let mut grid: Vec<&Value> = rows.iter().filter(tagged).collect();
        grid.sort_by(|a, b| group(a).partial_cmp(&group(b)).expect("digits are numbers"));
        println!("== {figure} (full sweep: {})", sweep.full);
        table(&grid);
        match figure {
            "fig1" => imbalance(&grid),
            "fig2" => tree(&grid),
            "fig3" => probes(grid[0]),
            "fig4" => attained(&grid),
            "genz" => genz(&grid),
            "kernels" => shares(&grid),
            _ => {}
        }
        println!();
    }
    println!("claims the rows break: {:?}", violations(&rows));
    write(&sweep, &figures, rows);
}

/// The group a row prints in: its case and digits.
fn group(row: &Value) -> (&str, f64) {
    (row.text("case"), row.num("digits"))
}

/// A figure's rows, one group per case and digits.  The last column is the
/// default PAGANI run's speedup over each other run of its group, with
/// PAGANI's termination where the two ended differently.
fn table(rows: &[&Value]) {
    let header = "  # case                 method    variant                digits  MiB";
    println!("{header} termination     est.rel.err true.rel.err   regions iters evaluations   time[ms]  PAGANI speedup (PAGANI's termination if different)");
    let sci = |x: f64| format!("{x:.2e}").replace("NaN", "-");
    let mut i = 0;
    for runs in rows.chunk_by(|a, b| group(a) == group(b)) {
        let default = |r: &&&Value| (r.text("method"), r.text("variant")) == ("pagani", "default");
        let pagani = runs.iter().find(default);
        for r in runs {
            let ended = r.text("termination");
            let speedup = match pagani {
                Some(p) if !std::ptr::eq(*p, *r) => {
                    let (speedup, end) =
                        (r.num("wall_ms") / p.num("wall_ms"), p.text("termination"));
                    format!("{speedup:.1}x {}", if end == ended { "" } else { end })
                }
                _ => String::new(),
            };
            let (case, method, variant) = (r.text("case"), r.text("method"), r.text("variant"));
            let [digits, mib, est, err] =
                ["digits", "device_mib", "est_rel_err", "true_rel_err"].map(|key| r.num(key));
            let [regions, iters, evals, ms] =
                ["regions", "iterations", "evaluations", "wall_ms"].map(|key| r.num(key));
            let (est, err) = (sci(est), sci(err));
            print!("{i:>3} {case:<20} {method:<9} {variant:<22} {digits:>6} {mib:>4} {ended:<15}");
            println!(
                " {est:>11} {err:>12} {regions:>9} {iters:>5} {evals:>11} {ms:>10.1}  {speedup}"
            );
            i += 1;
        }
        print!("{}", if runs.len() > 1 { "\n" } else { "" });
    }
}

/// Fig. 1: the busiest processor's regions over the idlest's.
fn imbalance(cells: &[&Value]) {
    let counts: Vec<f64> = cells.iter().map(|r| r.num("regions")).collect();
    let total: f64 = counts.iter().sum();
    let max = counts.iter().copied().fold(0.0, f64::max);
    let min = counts.iter().copied().fold(f64::INFINITY, f64::min);
    let ratio = max / min.max(1.0);
    println!("total regions {total}, busiest processor {max}, idlest {min}: imbalance {ratio:.1}x");
}

/// Fig. 2: PAGANI's tree width per depth; Cuhre's is always one split wide.
fn tree(runs: &[&Value]) {
    for pagani in runs.iter().filter(|r| r.text("method") == "pagani") {
        let widths: String = pagani
            .items("tree_widths")
            .iter()
            .map(Value::to_json)
            .collect();
        println!("PAGANI tree width per depth: {}", widths.replace('\n', " "));
    }
}

/// Fig. 3: every candidate threshold of every search, and what it would cost.
fn probes(run: &Value) {
    println!("threshold searches: {}", run.num("threshold_searches"));
    for search in run.items("probes") {
        let (iteration, trigger) = (search.num("iteration"), search.text("trigger"));
        let successful = search.get("successful") == &Value::Bool(true);
        println!("iteration {iteration:>3}  trigger {trigger}  successful {successful}");
        for p in search.items("probes") {
            let accepted = p.get("accepted") == &Value::Bool(true);
            let (threshold, finished) = (p.num("threshold"), 100.0 * p.num("fraction_finished"));
            let budget = 100.0 * p.num("budget_fraction");
            let verdict = if accepted { "ACCEPTED" } else { "rejected" };
            println!("    threshold {threshold:>12.4e}   regions removed {finished:>5.1}%   error budget used {budget:>6.1}%   {verdict}");
        }
    }
}

/// Fig. 4's §4.2 summary: the highest digits at which each method converged
/// within its tolerance of the reference.
fn attained(rows: &[&Value]) {
    let mut best: Vec<(&str, &str, f64)> = Vec::new();
    let within = |r: &&&Value| r.num("true_rel_err") <= rel_tol_for_digits(r.num("digits"));
    for r in rows.iter().filter(|r| r.converged()).filter(within) {
        let (case, method, digits) = (r.text("case"), r.text("method"), r.num("digits"));
        match best.iter_mut().find(|(c, m, _)| (*c, *m) == (case, method)) {
            Some(entry) => entry.2 = entry.2.max(digits),
            None => best.push((case, method, digits)),
        }
    }
    println!("§4.2 summary — highest digits of precision attained (within the sweep):");
    for (case, method, digits) in best {
        println!("  {case:<8} {method:<10} {digits} digits");
    }
}

/// The Genz sweep: per family, how many instances converged and the worst
/// true relative error.
fn genz(rows: &[&Value]) {
    for family in rows.chunks(4) {
        let name = family[0].text("case").split(' ').next().unwrap_or_default();
        let converged = family.iter().filter(|r| r.converged()).count();
        let errors = family.iter().map(|r| r.num("true_rel_err"));
        let worst = errors.fold(0.0, f64::max);
        let n = family.len();
        println!("{name:<14} converged {converged}/{n}   worst true rel.err {worst:.2e}");
    }
}

/// §4.3.2: each run's time share per kernel category.
fn shares(rows: &[&Value]) {
    for r in rows {
        print!("{} at {} digits:", r.text("case"), r.num("digits"));
        for category in ["evaluate", "postprocess", "threshold", "filter"] {
            let share = 100.0 * r.num(&format!("{category}_share"));
            print!(" {category} {share:.1}%");
        }
        println!();
    }
}

/// Write the rows under a settings block that records the sweep, its budgets
/// and the host.
fn write(sweep: &Sweep, figures: &[&str], rows: Vec<Value>) {
    let device = Device::new(DeviceConfig::v100_like().with_memory_capacity(DEVICE_MIB << 20));
    let commit = match Command::new("git").args(["rev-parse", "HEAD"]).output() {
        Ok(out) if out.status.success() => {
            Value::Str(String::from_utf8_lossy(&out.stdout).trim().to_owned())
        }
        _ => Value::Null,
    };
    let count = |n: usize| Value::Num(n as f64);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let names = figures.iter().map(|&f| Value::Str(f.to_owned()));
    let settings = Value::obj([
        ("max_digits", Value::Num(f64::from(sweep.max_digits))),
        ("full", Value::Bool(sweep.full)),
        ("figures", Value::Arr(names.collect())),
        ("device_mib", count(DEVICE_MIB)),
        ("max_evaluations", Value::Num(MAX_EVALUATIONS as f64)),
        ("two_phase", Value::Arr(TWO_PHASE.map(count).to_vec())),
        ("available_parallelism", count(threads)),
        ("effective_workers", count(device.effective_workers())),
        ("commit", commit),
    ]);
    let table = Value::obj([("settings", settings), ("rows", Value::Arr(rows))]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    std::fs::write(path, table.to_json()).expect("write BENCH_paper.json");
}
