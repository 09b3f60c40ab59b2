//! The paper's evaluation as one table.
//!
//! Figs. 1–9 of the paper (arXiv 2104.06494), its §4.2 digits table and
//! §4.3.2 kernel breakdown, a Genz sweep and two ablations read rows of one
//! table.  [`specs`] lists the runs they need, each once and tagged with every
//! figure in [`FIGURES`] that reads it; [`run`] turns a spec into a row, a
//! JSON object read through [`Fields`]; [`violations`] states the paper's
//! claims once, over rows.  The `paper` bench target prints each figure as a
//! view over its rows and writes them to `BENCH_paper.json`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use pagani_baselines::{CuhreConfig, MethodConfig, QmcConfig, TwoPhaseConfig};
use pagani_core::{HeuristicFiltering, Pagani, PaganiConfig};
use pagani_device::{Device, DeviceConfig};
use pagani_integrands::genz::{GenzFamily, GenzIntegrand};
use pagani_integrands::paper::PaperIntegrand;
use pagani_persist::json::Value;
use pagani_quadrature::{rel_tol_for_digits, Integrand, Region, Tolerances};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulated device memory in MiB (the paper's V100 has 16384; less keeps
/// host memory small and moves memory exhaustion to lower precision).
pub const DEVICE_MIB: usize = 1024;
/// Fig. 3's device memory in MiB, small enough for memory pressure.
const FIG3_DEVICE_MIB: usize = 24;
/// Evaluation budget of Cuhre and QMC (the paper allows Cuhre 10⁹).
pub const MAX_EVALUATIONS: u64 = 50_000_000;
/// Two-phase's phase I region target, phase II heap and phase II evaluations
/// per processor: the paper's 2¹⁵ regions and 2048-region heaps, scaled down.
pub const TWO_PHASE: [usize; 3] = [2048, 512, 500_000];

/// Which sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    /// Highest requested digits; the sweep starts at 3 (the paper reaches 10).
    pub max_digits: u32,
    /// Whether to add the paper's slower cases to Figs. 4, 5, 7 and 8.
    pub full: bool,
}

impl Sweep {
    /// The committed table's sweep: digits 3–5 on the fast cases.
    pub const DEFAULT: Sweep = Sweep {
        max_digits: 5,
        full: false,
    };

    /// The sweep `PAGANI_BENCH_MAX_DIGITS` and `PAGANI_BENCH_FULL=1` ask for;
    /// an unset or unparsable variable keeps the default.
    #[must_use]
    pub fn from_env() -> Self {
        let var = |name| std::env::var(name).unwrap_or_default();
        let max_digits = var("PAGANI_BENCH_MAX_DIGITS").parse();
        let max_digits = max_digits.unwrap_or(Self::DEFAULT.max_digits);
        let full = var("PAGANI_BENCH_FULL") == "1";
        Self { max_digits, full }
    }
}

/// An integrand of the sweep and the bounds it is integrated over.
#[derive(Debug, Clone)]
enum Case {
    /// A paper integrand over the unit cube, or over one cell of it (Fig. 1).
    Paper(PaperIntegrand, Option<Region>),
    /// The `n`-th random instance of its Genz family.
    Genz(usize, GenzIntegrand),
}

impl Case {
    /// The label rows and views use, e.g. `5D f4`, `5D f4 @ [0.25, 0.5]` (the
    /// cell's lower corner) or `Gaussian 4D #2`.
    fn label(&self) -> String {
        match self {
            Case::Paper(f, None) => f.label(),
            Case::Paper(f, Some(cell)) => format!("{} @ {:?}", f.label(), &cell.lo()[..2]),
            Case::Genz(n, f) => format!("{:?} {}D #{n}", f.family(), f.dim()),
        }
    }

    fn integrand(&self) -> &dyn Integrand {
        match self {
            Case::Paper(f, _) => f,
            Case::Genz(_, f) => f,
        }
    }

    /// The integral over the case's bounds, where it is known.
    fn reference(&self) -> Option<f64> {
        match self {
            Case::Paper(f, cell) => cell.is_none().then(|| f.reference_value()),
            Case::Genz(_, f) => Some(f.reference_value()),
        }
    }

    /// Whether the integrand takes both signs (no relative-error filtering, §3.5.1).
    fn sign_oscillating(&self) -> bool {
        match self {
            Case::Paper(f, _) => f.is_sign_oscillating(),
            Case::Genz(_, f) => f.family() == GenzFamily::Oscillatory,
        }
    }
}

/// The figures in print order; `cargo bench --bench paper -- <name>` runs one.
pub const FIGURES: [&str; 12] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "genz", "ablation",
    "kernels",
];

/// A method and its rows' variant label: how it departs from its default.
type Method = (&'static str, MethodConfig);

/// One integration of the sweep.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The figures that read its row.
    pub figures: Vec<&'static str>,
    /// How the method departs from its default configuration.
    variant: &'static str,
    /// The method, its tolerances set from `digits`.
    method: MethodConfig,
    /// What it integrates.
    case: Case,
    /// Requested digits of precision.
    digits: f64,
    /// Simulated device memory in MiB.
    device_mib: usize,
}

impl Spec {
    /// The run's identity: specs with the same id make the same run.
    #[must_use]
    pub fn id(&self) -> String {
        let (method, variant, case) = (self.method.name(), self.variant, self.case.label());
        let (digits, mib) = (self.digits, self.device_mib);
        format!("{method} {variant} {case} digits {digits} {mib} MiB")
    }
}

/// Every run that the figures read under `sweep`, each once, in order of
/// first use, tagged with every figure that reads its row.  Each figure
/// runs every one of its cases at every one of its digits under every one of
/// its methods.
#[must_use]
pub fn specs(sweep: &Sweep) -> Vec<Spec> {
    use HeuristicFiltering::{Disabled, MemoryExhaustionOnly};
    use PaperIntegrand as P;
    let digits: Vec<f64> = (3..=sweep.max_digits.max(3)).map(f64::from).collect();
    let top = [digits[digits.len() - 1]];
    let cases = |fast: &[P], full: &[P]| -> Vec<Case> {
        let full = if sweep.full { full } else { &[] };
        let case = |f: &P| Case::Paper(f.clone(), None);
        fast.iter().chain(full).map(case).collect()
    };
    let pagani = |config| MethodConfig::Pagani(config);
    let cuhre = |max| MethodConfig::Cuhre(CuhreConfig::default().with_max_evaluations(max));
    let mut two_phase = TwoPhaseConfig::default();
    let [regions, heap, evaluations] = TWO_PHASE;
    two_phase.phase1_region_target = regions;
    two_phase.phase2_heap_capacity = heap;
    two_phase.phase2_max_evaluations = evaluations as u64;
    let two_phase = ("default", MethodConfig::TwoPhase(two_phase));
    let qmc = MethodConfig::Qmc(QmcConfig::default().with_max_evaluations(MAX_EVALUATIONS));
    let paper = ("default", pagani(PaganiConfig::default()));
    let filtering = |mode| pagani(PaganiConfig::default().with_heuristic_filtering(mode));
    let memory = ("memory-only filtering", filtering(MemoryExhaustionOnly));
    let one_level = PaganiConfig {
        two_level_errors: false,
        ..PaganiConfig::default()
    };
    let mut ablation = vec![paper.clone(), ("one-level errors", pagani(one_level))];
    // The initial split's parts per axis d on 5D f4 (Algorithm 2, line 4);
    // d = 8 is the default.
    let splits = [(2_usize, "split d=2"), (4, "split d=4"), (6, "split d=6")];
    for (d, variant) in splits {
        let config = PaganiConfig {
            initial_region_target: d.pow(5),
            ..PaganiConfig::default()
        };
        ablation.push((variant, pagani(config)));
    }
    let cuhre_default = ("default", cuhre(MAX_EVALUATIONS));
    let three = [paper.clone(), two_phase, cuhre_default];
    // Fig. 1: a 4×4 grid over the first two axes of 5D f4.
    let cell = |c: &Region| {
        let (lo, hi) = ([c.lo(), &[0.0; 3]].concat(), [c.hi(), &[1.0; 3]].concat());
        Case::Paper(P::f4(5), Some(Region::new(lo, hi)))
    };
    let grid = Region::unit_cube(2).uniform_split(4);
    let cells: Vec<Case> = grid.iter().map(cell).collect();
    let mut rng = StdRng::seed_from_u64(20_210_615);
    let mut genz = Vec::new();
    for family in GenzFamily::all() {
        for n in 0..4 {
            genz.push(Case::Genz(n, GenzIntegrand::random(family, 4, &mut rng)));
        }
    }
    let f4 = cases(&[P::f4(5)], &[]);
    let panels = [P::f4(5), P::f6(), P::f7(8)];
    let fig7 = [P::f3(3), P::f5(5), P::f3(8), P::f7(8)];
    let fig7 = cases(&fig7, &[P::f1(8), P::f5(8), P::f6(), P::f8(8)]);
    let fig8 = [paper.clone(), memory, ("no filtering", filtering(Disabled))];

    let mut specs: Vec<Spec> = Vec::new();
    let mut add = |figure, cases: &[Case], digits: &[f64], methods: &[Method], device_mib| {
        for case in cases {
            for &digits in digits {
                for (variant, method) in methods {
                    let mut method = method.clone().with_tolerances(Tolerances::digits(digits));
                    if let MethodConfig::Pagani(config) = &mut method {
                        config.rel_err_filtering = !case.sign_oscillating();
                    }
                    let (figures, case) = (vec![figure], case.clone());
                    let spec = Spec {
                        figures,
                        variant,
                        method,
                        case,
                        digits,
                        device_mib,
                    };
                    match specs.iter_mut().find(|seen| seen.id() == spec.id()) {
                        None => specs.push(spec),
                        Some(seen) => {
                            assert!(seen.method == spec.method, "{} is two runs", spec.id());
                            if !seen.figures.contains(&figure) {
                                seen.figures.push(figure);
                            }
                        }
                    }
                }
            }
        }
    };
    let mib = DEVICE_MIB;
    let (fig1, fig3) = ([("10^7 evaluations", cuhre(10_000_000))], [top[0].max(6.0)]);
    let fig4 = cases(&panels, &[P::f3(8), P::f5(8)]);
    let fig6 = cases(&[P::f5(5), P::f6(), P::f7(8)], &[]);
    let fig7_methods = [("default", qmc), paper.clone()];
    let only_pagani = [paper];
    let fig8_cases = cases(&[P::f4(5)], &[P::f4(8), P::f5(8)]);
    let breakdown = cases(&[P::f4(5), P::f7(8)], &[]);
    add("fig1", &cells, &[6.0], &fig1, mib);
    add("fig2", &f4, &[5.0], &three, mib);
    add("fig3", &f4, &fig3, &only_pagani, FIG3_DEVICE_MIB);
    add("fig4", &fig4, &digits, &three, mib);
    add("fig5", &cases(&panels, &[P::f3(8)]), &digits, &three, mib);
    add("fig6", &fig6, &digits, &three, mib);
    add("fig7", &fig7, &digits, &fig7_methods, mib);
    add("fig8", &fig8_cases, &digits, &fig8, mib);
    add("fig9", &cases(&panels, &[]), &digits, &three, mib);
    add("genz", &genz, &[4.0], &only_pagani, mib);
    add("ablation", &f4, &[5.0], &ablation, mib);
    add("kernels", &breakdown, &top, &only_pagani, mib);
    specs
}

/// Typed reads of a row's fields; a row is a JSON object, as
/// `BENCH_paper.json` holds it.
pub trait Fields {
    /// The value under `key`; null when absent.
    fn get(&self, key: &str) -> &Value;

    /// The number under `key`; NaN when it is not a number.
    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Value::Num(x) => *x,
            _ => f64::NAN,
        }
    }

    /// The string under `key`; empty when it is not a string.
    fn text(&self, key: &str) -> &str {
        match self.get(key) {
            Value::Str(s) => s,
            _ => "",
        }
    }

    /// The items of the array under `key`; none when it is not an array.
    fn items(&self, key: &str) -> &[Value] {
        match self.get(key) {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// Whether the run ended `Converged`.
    fn converged(&self) -> bool {
        self.text("termination") == "Converged"
    }
}

impl Fields for Value {
    fn get(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Obj(map) => map.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// A number, or null where it is not finite (`json::parse` reads no `NaN`).
fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Num(x)
    } else {
        Value::Null
    }
}

/// Run `spec` on a fresh device, so that its peak memory and kernel profile
/// are its own, and return its row.  PAGANI runs through [`Pagani`], so its
/// row carries the trace; the baselines through [`MethodConfig::build`].
#[must_use]
pub fn run(spec: &Spec) -> Value {
    let device = Device::new(DeviceConfig::v100_like().with_memory_capacity(spec.device_mib << 20));
    let f = spec.case.integrand();
    let region = match &spec.case {
        Case::Paper(_, Some(cell)) => cell.clone(),
        _ => Region::unit_cube(f.dim()),
    };
    let count = |n: usize| num(n as f64);
    let text = |s: &str| Value::Str(s.to_owned());
    let mut row = BTreeMap::new();
    let result = if let MethodConfig::Pagani(config) = &spec.method {
        let out = Pagani::new(device.clone(), config.clone()).integrate_region(f, &region);
        let searches = out.trace.threshold_searches.iter().map(|search| {
            let probes = search.probes.iter().map(|p| {
                Value::obj([
                    ("threshold", num(p.threshold)),
                    ("fraction_finished", num(p.fraction_finished)),
                    ("budget_fraction", num(p.budget_fraction)),
                    ("accepted", Value::Bool(p.accepted)),
                ])
            });
            Value::obj([
                ("iteration", count(search.iteration)),
                ("trigger", text(&format!("{:?}", search.trigger))),
                ("successful", Value::Bool(search.successful)),
                ("probes", Value::Arr(probes.collect())),
            ])
        });
        if spec.figures.contains(&"fig3") {
            row.insert("probes".to_owned(), Value::Arr(searches.collect()));
        }
        let widths = out.trace.tree_widths().into_iter().map(count).collect();
        row.insert("tree_widths".to_owned(), Value::Arr(widths));
        let searches = count(out.trace.threshold_searches.len());
        row.insert("threshold_searches".to_owned(), searches);
        for category in ["evaluate", "postprocess", "threshold", "filter"] {
            let share = device.profile().fraction_for_prefix(category);
            row.insert(format!("{category}_share"), num(share));
        }
        out.result
    } else {
        spec.method.build(&device).integrate_region(f, &region)
    };
    if let Case::Paper(_, Some(cell)) = &spec.case {
        let coords = |xs: &[f64]| Value::Arr(xs.iter().copied().map(num).collect());
        let bounds = Value::obj([("lo", coords(cell.lo())), ("hi", coords(cell.hi()))]);
        row.insert("region".to_owned(), bounds);
    }
    let bits = |x: f64| text(&format!("{:016x}", x.to_bits()));
    let true_error = spec.case.reference().map(|r| result.true_relative_error(r));
    let host_only = matches!(spec.method, MethodConfig::Cuhre(_));
    let peak = (!host_only).then(|| count(device.memory().usage().peak));
    let figures = spec.figures.iter().map(|f| text(f)).collect();
    let fields = [
        ("id", text(&spec.id())),
        ("figures", Value::Arr(figures)),
        ("method", text(spec.method.name())),
        ("variant", text(spec.variant)),
        ("case", text(&spec.case.label())),
        ("dim", count(f.dim())),
        ("device_mib", count(spec.device_mib)),
        ("digits", num(spec.digits)),
        ("termination", text(&format!("{:?}", result.termination))),
        ("estimate", num(result.estimate)),
        ("estimate_bits", bits(result.estimate)),
        ("error", num(result.error_estimate)),
        ("error_bits", bits(result.error_estimate)),
        ("est_rel_err", num(result.relative_error_estimate())),
        ("true_rel_err", true_error.map_or(Value::Null, num)),
        ("wall_ms", num(result.wall_time.as_secs_f64() * 1e3)),
        ("iterations", count(result.iterations)),
        ("regions", num(result.regions_generated as f64)),
        ("evaluations", num(result.function_evaluations as f64)),
        ("peak_device_bytes", peak.unwrap_or(Value::Null)),
    ];
    row.extend(fields.map(|(key, value)| (key.to_owned(), value)));
    Value::Obj(row)
}

/// The paper's claims that `rows` break, one line each, sorted:
///
/// * (a) PAGANI converges on every (case, digits) where Cuhre, two-phase or
///   QMC converged;
/// * (b) `Full` filtering converges wherever `MemoryExhaustionOnly` or
///   `Disabled` converged (Fig. 8);
/// * (c) every `Converged` row with a reference lies within 10 × its
///   tolerance of it.
///
/// (a) and (b) compare a row with the default PAGANI row of the same case,
/// digits, region and device, where there is one.
#[must_use]
pub fn violations(rows: &[Value]) -> Vec<String> {
    let mut found = Vec::new();
    for row in rows {
        let digits = row.num("digits");
        if row.converged() && row.num("true_rel_err") > 10.0 * rel_tol_for_digits(digits) {
            found.push(format!("(c) {}", row.text("id")));
        }
        let claim = match (row.text("method"), row.text("variant")) {
            ("pagani", variant) if variant.ends_with("filtering") => "b",
            ("pagani", _) => continue,
            (_, "default") => "a",
            _ => continue,
        };
        let same_run = |other: &&Value| {
            let keys = ["case", "digits", "device_mib", "region"];
            keys.iter().all(|key| other.get(key) == row.get(key))
                && (other.text("method"), other.text("variant")) == ("pagani", "default")
        };
        let pagani = rows.iter().find(same_run);
        if pagani.is_some_and(|pagani| row.converged() && !pagani.converged()) {
            found.push(format!("({claim}) {} at {digits} digits", row.text("case")));
        }
    }
    found.sort();
    found.dedup();
    found
}
