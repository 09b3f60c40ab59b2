//! The benchmark's inputs are a pure function of the seed, every generated
//! integrand has its own name, and `BENCHMARK.json` lists exactly the
//! metrics the benchmark prints and states its answer check.

use std::collections::HashSet;

use pagani_core::IntegrandRegistry;
use pagani_perfbench::{
    answer_ok, paper_cases, pass_order, JobSpec, JobStream, SkewedKeys, CHECK_SLACK, END_TO_END,
    PER_LAYER,
};
use pagani_quadrature::Integrand;

const STREAMS: [JobStream; 5] = [
    JobStream::MIX,
    JobStream::MIX_WARMUP,
    JobStream::KEYS,
    JobStream::REMOTE,
    JobStream::REMOTE_WARMUP,
];

/// Everything that identifies a job, with floats as bits.
fn fingerprint(spec: &JobSpec) -> (String, String, Vec<u64>, Vec<u64>, String) {
    let genz = spec.integrand.genz();
    (
        spec.integrand.name(),
        format!("{:?}", genz.family()),
        genz.a().iter().map(|v| v.to_bits()).collect(),
        genz.u().iter().map(|v| v.to_bits()).collect(),
        format!("{:?}", spec.priority),
    )
}

#[test]
fn one_seed_gives_bit_identical_job_lists() {
    for stream in STREAMS {
        for seed in [1, 7, u64::MAX] {
            let first: Vec<_> = (0..500)
                .map(|i| fingerprint(&stream.job(seed, i)))
                .collect();
            // Rebuilt in reverse order: each job depends on its index alone.
            let mut again: Vec<_> = (0..500)
                .rev()
                .map(|i| fingerprint(&stream.job(seed, i)))
                .collect();
            again.reverse();
            assert_eq!(first, again, "stream {} seed {seed}", stream.label);
        }
    }
}

#[test]
fn different_seeds_give_different_jobs() {
    let a: Vec<_> = (0..50)
        .map(|i| fingerprint(&JobStream::MIX.job(1, i)).2)
        .collect();
    let b: Vec<_> = (0..50)
        .map(|i| fingerprint(&JobStream::MIX.job(2, i)).2)
        .collect();
    assert_ne!(a, b);
}

#[test]
fn no_two_generated_integrands_share_a_name() {
    let mut names = HashSet::new();
    for seed in [1, 2] {
        for stream in STREAMS {
            for i in 0..2_000 {
                let name = stream.job(seed, i).integrand.name();
                assert!(names.insert(name.clone()), "duplicate name {name}");
            }
        }
    }
}

#[test]
fn every_job_stays_within_its_stream_dimensions_and_has_a_positive_reference() {
    for stream in STREAMS {
        for i in 0..300 {
            let spec = stream.job(3, i);
            let dim = spec.integrand.dim();
            assert!((stream.min_dim..=stream.max_dim).contains(&dim));
            assert!(spec.integrand.reference_value() > 0.0);
        }
    }
}

#[test]
fn a_rebuilt_registry_resolves_each_job_to_the_same_integrand() {
    let registry = IntegrandRegistry::new();
    JobStream::REMOTE.register(&registry, 5, 200);
    assert_eq!(registry.len(), 200);
    for i in 0..200 {
        let spec = JobStream::REMOTE.job(5, i);
        let resolved = registry
            .get(&spec.integrand.name())
            .expect("registered under its name");
        let x = vec![0.3; spec.integrand.dim()];
        assert_eq!(
            resolved.eval(&x).to_bits(),
            spec.integrand.eval(&x).to_bits()
        );
    }
}

#[test]
fn pass_orders_are_seeded_permutations() {
    let n = paper_cases().len();
    let order = pass_order(9, 3, n);
    assert_eq!(order, pass_order(9, 3, n));
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    assert!((0..20).any(|pass| pass_order(9, pass, n) != order));
}

#[test]
fn skewed_keys_favour_low_indices_and_stay_in_range() {
    let keys = SkewedKeys::new(64);
    let mut rng = pagani_perfbench::client_rng(1, "test", 0);
    let mut counts = [0usize; 64];
    for _ in 0..20_000 {
        counts[keys.sample(&mut rng)] += 1;
    }
    assert!(counts[0] > counts[10] && counts[10] > counts[63]);
}

#[test]
fn the_answer_check_scales_with_the_requested_tolerance() {
    assert!(answer_ok(1.0 + 9e-3, 1.0, 1e-3));
    assert!(!answer_ok(1.0 + 11e-3, 1.0, 1e-3));
    assert!(!answer_ok(f64::NAN, 1.0, 1e-3));
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
}

/// The text of one list of `BENCHMARK.json`, up to its closing bracket.
fn section<'a>(text: &'a str, name: &str) -> &'a str {
    let start = text
        .find(&format!("\"{name}\""))
        .unwrap_or_else(|| panic!("section {name}"));
    let body = &text[start..];
    &body[..body.find(']').expect("section ends")]
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let text = benchmark_json();
    let entries = |name: &str| -> Vec<(String, String)> {
        section(&text, name)
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let from =
                        entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                    entry[from..from + entry[from..].find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), expect(&END_TO_END));
    assert_eq!(entries("per_layer"), expect(&PER_LAYER));
}

#[test]
fn every_workload_in_benchmark_json_states_the_answer_check() {
    let text = benchmark_json();
    let workloads = section(&text, "workloads");
    let check = format!("Check: |est-ref| <= {CHECK_SLACK} x rel_tol x |ref|.");
    assert_eq!(workloads.matches("\"why\"").count(), 4);
    assert_eq!(workloads.matches(check.as_str()).count(), 4, "{check}");
}
