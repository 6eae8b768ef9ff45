//! Perf baseline artifact for the M_cost hot path.
//!
//! Measures, with plain `Instant` timing (no external harness):
//!
//! * **matrix tick** — ns per fleet-wide `push_sample` for the SoA
//!   kernel (Peak and P95) and for the seed
//!   per-pair path, at n ∈ {64, 256, 1024, 4096} (seed capped at 1024:
//!   its ~640 B/pair layout would need ~5 GB at 4096);
//! * **allocation** — ns per full ALLOCATE pass of the proposed policy
//!   (incremental server-cost scan with the per-candidate (dw, dp)
//!   index) plus BFD as the correlation-blind yardstick, at
//!   n ∈ {64, 256, 1024}, both on the uniform 8-core fleet (`alloc`)
//!   and on a 3-class 4/8/16-core heterogeneous fleet (`alloc_hetero`).
//!   Each row carries the previous artifact's timing as
//!   `prev_proposed_ns_per_placement`, so an optimization PR records
//!   its own before/after in one regeneration.
//!
//! Every row also records the core count it was measured on.
//!
//! Rewrites only its own sections of `BENCH_corr.json` (repo root when
//! run from there): every other top-level section — appended by the
//! other experiments, or by binaries this one has never heard of — is
//! preserved verbatim via the schema-agnostic
//! [`artifact`] scanner.
//!
//! ```text
//! cargo run --release -p cavm-bench --bin exp_perf_corr
//! ```

use cavm_bench::{artifact, median_ns};
use cavm_core::alloc::{AllocationPolicy, BfdPolicy, ProposedPolicy, VmDescriptor};
use cavm_core::corr::baseline::PairwiseCostMatrix;
use cavm_core::corr::CostMatrix;
use cavm_core::fleet::{ServerFleet, UNBOUNDED};
use cavm_power::LinearPowerModel;
use cavm_trace::{Reference, SimRng};
use std::fmt::Write as _;
use std::hint::black_box;

const MATRIX_SIZES: [usize; 4] = [64, 256, 1024, 4096];
const SEED_MATRIX_CAP: usize = 1024;
const ALLOC_SIZES: [usize; 3] = [64, 256, 1024];

fn sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| rng.f64() * 4.0).collect()
}

/// Repetition count scaled so small sizes average more runs.
fn reps_for(n: usize) -> usize {
    (2_000_000 / (n * n / 2)).clamp(5, 400)
}

struct MatrixRow {
    n: usize,
    soa_peak_ns: f64,
    soa_p95_ns: f64,
    seed_peak_ns: Option<f64>,
}

struct AllocRow {
    n: usize,
    proposed_ns: f64,
    bfd_ns: f64,
    servers: usize,
    /// The previous artifact's `proposed_ns_per_placement` for this n
    /// — the "before" of whatever allocator change this run measures.
    prev_proposed_ns: Option<f64>,
}

fn measure_matrix(n: usize) -> MatrixRow {
    let utils = sample(n, n as u64);
    let reps = reps_for(n);

    let mut soa = CostMatrix::new(n, Reference::Peak).expect("valid size");
    let soa_peak_ns = median_ns(reps, || soa.push_sample(black_box(&utils)).expect("width"));

    let mut p95 = CostMatrix::new(n, Reference::Percentile(95.0)).expect("valid size");
    let soa_p95_ns = median_ns(reps, || p95.push_sample(black_box(&utils)).expect("width"));

    let seed_peak_ns = (n <= SEED_MATRIX_CAP).then(|| {
        let mut seed = PairwiseCostMatrix::new(n, Reference::Peak).expect("valid size");
        median_ns(reps.min(40), || {
            seed.push_sample(black_box(&utils)).expect("width")
        })
    });

    MatrixRow {
        n,
        soa_peak_ns,
        soa_p95_ns,
        seed_peak_ns,
    }
}

/// The uniform fleet (classic 8-core servers, unbounded supply).
fn uniform_fleet() -> ServerFleet {
    ServerFleet::uniform(UNBOUNDED, 8.0, LinearPowerModel::xeon_e5410()).expect("valid fleet")
}

/// Pulls `proposed_ns_per_placement` values, in row order, out of one
/// array section of the previous artifact (hand-rolled: the artifact
/// is written by this binary, so the shape is known).
fn previous_proposed_ns(artifact: &str, section: &str) -> Vec<f64> {
    const KEY: &str = "\"proposed_ns_per_placement\": ";
    let Some(start) = artifact.find(&format!("\"{section}\": [")) else {
        return Vec::new();
    };
    let body = &artifact[start..];
    let end = body.find(']').unwrap_or(body.len());
    let mut out = Vec::new();
    let mut rest = &body[..end];
    while let Some(at) = rest.find(KEY) {
        rest = &rest[at + KEY.len()..];
        let digits: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if let Ok(v) = digits.parse::<f64>() {
            out.push(v);
        }
    }
    out
}

fn measure_alloc(n: usize, fleet: &ServerFleet) -> AllocRow {
    let mut rng = SimRng::new(n as u64);
    let vms: Vec<VmDescriptor> = (0..n)
        .map(|i| VmDescriptor::new(i, rng.range_f64(0.3, 3.5)))
        .collect();
    let mut matrix = CostMatrix::new(n, Reference::Peak).expect("valid size");
    for _ in 0..64 {
        let s: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 3.5)).collect();
        matrix.push_sample(&s).expect("width");
    }
    let reps = (2_000.0 / (n as f64 / 64.0).powi(2)).clamp(3.0, 200.0) as usize;
    let policy = ProposedPolicy::default();
    let mut servers = 0;
    let proposed_ns = median_ns(reps, || {
        servers = policy
            .place(black_box(&vms), &matrix, fleet)
            .expect("feasible")
            .server_count();
    });
    let bfd_ns = median_ns(reps, || {
        black_box(
            BfdPolicy
                .place(black_box(&vms), &matrix, fleet)
                .expect("feasible"),
        );
    });
    AllocRow {
        n,
        proposed_ns,
        bfd_ns,
        servers,
        prev_proposed_ns: None,
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:.0}"))
}

/// The top-level sections this binary owns (rewrites from scratch).
const OWN_SECTIONS: [&str; 6] = [
    "schema",
    "cores",
    "note",
    "matrix_tick",
    "alloc",
    "alloc_hetero",
];

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let previous = std::fs::read_to_string(artifact::BENCH_JSON_PATH).unwrap_or_default();
    // Every section owned by another experiment — known to this binary
    // or not — survives the rewrite verbatim.
    let tail: Vec<(String, String)> = artifact::top_level_sections(&previous)
        .unwrap_or_default()
        .into_iter()
        .filter(|(key, _)| !OWN_SECTIONS.contains(&key.as_str()))
        .collect();

    eprintln!("measuring matrix ticks (cores: {cores}) ...");
    let matrix_rows: Vec<MatrixRow> = MATRIX_SIZES
        .iter()
        .map(|&n| {
            let row = measure_matrix(n);
            eprintln!(
                "  n={:4}: soa {:>12.0} ns/tick  p95 {:>12.0} ns/tick  seed {}",
                n,
                row.soa_peak_ns,
                row.soa_p95_ns,
                row.seed_peak_ns
                    .map_or("-".into(), |v| format!("{v:.0} ns/tick")),
            );
            row
        })
        .collect();

    eprintln!("measuring allocation (uniform 8-core fleet) ...");
    let uniform = uniform_fleet();
    let measure_rows = |fleet_of: &dyn Fn(usize) -> ServerFleet, section: &str| -> Vec<AllocRow> {
        let prev = previous_proposed_ns(&previous, section);
        ALLOC_SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut row = measure_alloc(n, &fleet_of(n));
                row.prev_proposed_ns = prev.get(i).copied();
                let delta = row.prev_proposed_ns.map_or(String::new(), |p| {
                    format!("  ({:.2}x vs prev)", p / row.proposed_ns)
                });
                eprintln!(
                    "  n={:4}: proposed {:>12.0} ns/placement ({} servers)  bfd {:>12.0} ns{}",
                    n, row.proposed_ns, row.servers, row.bfd_ns, delta
                );
                row
            })
            .collect()
    };
    let alloc_rows = measure_rows(&|_| uniform.clone(), "alloc");
    eprintln!("measuring allocation (3-class 4/8/16-core fleet) ...");
    let hetero_rows = measure_rows(
        &|n| ServerFleet::mixed_4_8_16(n, n, n).expect("valid counts"),
        "alloc_hetero",
    );

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"cavm-bench-corr/1\",");
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(
        out,
        "  \"note\": \"seed_peak is the retained per-pair baseline (PairwiseCostMatrix); null above n={SEED_MATRIX_CAP}. prev_proposed_ns_per_placement is the previous artifact's timing (before/after across allocator changes).\","
    );
    out.push_str("  \"matrix_tick\": [\n");
    for (i, r) in matrix_rows.iter().enumerate() {
        let speedup = r
            .seed_peak_ns
            .map(|seed| format!("{:.2}", seed / r.soa_peak_ns))
            .unwrap_or_else(|| "null".to_string());
        let _ = write!(
            out,
            "    {{\"n\": {}, \"cores\": {}, \"soa_peak_ns_per_tick\": {:.0}, \"soa_p95_ns_per_tick\": {:.0}, \"seed_peak_ns_per_tick\": {}, \"speedup_vs_seed\": {}}}",
            r.n,
            cores,
            r.soa_peak_ns,
            r.soa_p95_ns,
            json_opt(r.seed_peak_ns),
            speedup,
        );
        out.push_str(if i + 1 < matrix_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    for (key, rows) in [("alloc", &alloc_rows), ("alloc_hetero", &hetero_rows)] {
        let _ = write!(out, "  ],\n  \"{key}\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"n\": {}, \"cores\": {}, \"proposed_ns_per_placement\": {:.0}, \"prev_proposed_ns_per_placement\": {}, \"bfd_ns_per_placement\": {:.0}, \"servers\": {}}}",
                r.n,
                cores,
                r.proposed_ns,
                json_opt(r.prev_proposed_ns),
                r.bfd_ns,
                r.servers
            );
            out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
    }
    out.push_str("  ]");
    for (key, value) in &tail {
        let _ = write!(out, ",\n  \"{key}\": {value}");
    }
    out.push_str("\n}\n");

    std::fs::write(artifact::BENCH_JSON_PATH, &out).expect("write BENCH_corr.json");
    println!("{out}");
    eprintln!(
        "wrote {} (trailing sections preserved: {})",
        artifact::BENCH_JSON_PATH,
        tail.len()
    );
}
