//! The prebond3d benchmark: one command per workload that prints every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) as the
//! last line of standard output and checks every output it produces.
//!
//! ```text
//! perfbench --workload <plan_large|atpg_table4|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed only orders the work (flow calls, ATPG calls, the serve job
//! mix); the dies themselves are the repository's fixed ITC'99-style
//! benchmarks, so output checks compare against the reference values in
//! `reference.rs` on every seed. See `README.md` for what each workload
//! stresses and which end-to-end metric each layer metric should move.

mod atpg_table4;
mod layers;
mod plan_large;
mod reference;
mod serve_mix;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use prebond3d_netlist::{itc99, Netlist};
use prebond3d_obs::json::Value;
use prebond3d_place::{place, PlaceConfig, Placement};
use prebond3d_rng::StdRng;

/// The parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <plan_large|atpg_table4|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Operation accounting. Every flow call, ATPG call and serve job is one
/// attempted operation; an error, a caught panic, a non-zero job code, a
/// shed submit or any output mismatch makes it a failed one.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation and report its failure, if any, on stderr.
    pub fn record(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {label}: {e}");
        }
    }
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        format!("panicked: {msg}")
    })
}

/// `f`'s result and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Run pass `0`, then further passes while less than `seconds` of pass
/// wall time (as each pass reports it) has accumulated. Every pass does
/// the same work, so per-pass figures compare across runs and hosts;
/// returns each pass's seconds.
pub fn run_passes(seconds: f64, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut walls = Vec::new();
    while walls.is_empty() || walls.iter().sum::<f64>() < seconds {
        walls.push(pass(walls.len()));
    }
    walls
}

/// A run repeats its set-up at least this many times and for at least
/// [`SETUP_MIN_S`] seconds; `setup_s` reports the median, so a set-up of a
/// few milliseconds is sampled as steadily as one of a second.
const SETUPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// Repeat a set-up (which returns its own wall seconds) as described at
/// [`SETUPS`]; returns every sample.
pub fn setup_samples(mut once: impl FnMut() -> f64) -> Vec<f64> {
    let mut samples = Vec::new();
    while samples.len() < SETUPS || samples.iter().sum::<f64>() < SETUP_MIN_S {
        samples.push(once());
    }
    samples
}

/// One generated and placed benchmark die.
pub struct Die {
    pub circuit: &'static str,
    pub index: usize,
    pub netlist: Netlist,
    pub placement: Placement,
}

impl Die {
    pub fn label(&self) -> String {
        format!("{} Die{}", self.circuit, self.index)
    }
}

/// Generate and place `dies`, one pool work unit per die, with the
/// placement effort the experiment harness uses for each die size.
pub fn load_dies(dies: &[(&'static str, usize)]) -> Vec<Die> {
    prebond3d_pool::par_map(dies, |&(circuit, index)| {
        let spec = itc99::circuit(circuit).expect("known benchmark circuit");
        let netlist = itc99::generate_die(&spec.dies[index]);
        let moves_per_cell = match netlist.len() {
            n if n > 20_000 => 4,
            n if n > 5_000 => 10,
            _ => 24,
        };
        let config = PlaceConfig {
            moves_per_cell,
            ..PlaceConfig::default()
        };
        let placement = place(&netlist, &config, 1);
        Die {
            circuit,
            index,
            netlist,
            placement,
        }
    })
}

/// Shuffle `items` with the workload seed (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Nearest-rank quantile of `values` (`q` in `(0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps `0.99 * 400` from rounding up past rank 396.
    let rank = ((q * v.len() as f64 - 1e-9).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p99/p90/p50 with at least ten samples beyond it, as
/// `(label, quantile)`; `max` when there are too few samples for any.
pub fn tail_quantile(n: usize) -> (&'static str, f64) {
    [("p99", 0.99), ("p90", 0.90), ("p50", 0.50)]
        .into_iter()
        .find(|&(_, q)| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(("max", 1.0))
}

/// What one untraced run measured; every workload fills every field.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Units of work one pass completes (flows, classified faults, jobs).
    pub work_per_pass: f64,
    /// Seconds of each pass that the work rate is taken over.
    pub work_s: Vec<f64>,
    /// Latency of every timed operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Dedicated wrapper cells over the workload's distinct Ours plans.
    pub wrapper_cells: usize,
    /// Ours tight-timing plans checked against the clock.
    pub tight_plans: usize,
    /// Those that met it.
    pub tight_met: usize,
}

/// One workload run's outcome.
pub struct Outcome {
    pub ops: Ops,
    /// Filled by untraced runs.
    pub measured: Measured,
    /// Filled by traced runs.
    pub layers: layers::Layers,
    /// Workload-specific provenance (dies, configs, mix).
    pub provenance: Vec<(&'static str, Value)>,
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([("value", value.into()), ("unit", unit.into())])
}

/// The median, averaging the middle two of an even count; 0 when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The end-to-end metrics, named and united as in `BENCHMARK.json`.
fn end_to_end(m: &Measured) -> Vec<(&'static str, Value)> {
    let (_, tail_q) = tail_quantile(m.op_ms.len());
    let work_s: f64 = m.work_s.iter().sum();
    let peak_kb = prebond3d_obs::mem::rss_peak_kb().unwrap_or(0);
    vec![
        ("setup_s", metric(median(&m.setup_s), "s")),
        ("wall_s", metric(median(&m.pass_s), "s")),
        (
            "work_per_s",
            metric(m.work_per_pass * m.work_s.len() as f64 / work_s, "1/s"),
        ),
        ("op_p50_ms", metric(median(&m.op_ms), "ms")),
        ("op_tail_ms", metric(quantile(&m.op_ms, tail_q), "ms")),
        ("peak_rss_mb", metric(peak_kb as f64 / 1024.0, "MB")),
        ("wrapper_cells", metric(m.wrapper_cells as f64, "count")),
        (
            "timing_met_pct",
            metric(
                100.0 * m.tight_met as f64 / m.tight_plans.max(1) as f64,
                "%",
            ),
        ),
    ]
}

fn provenance(args: &Args, out: &Outcome) -> Value {
    let (tail_label, _) = tail_quantile(out.measured.op_ms.len());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mut fields = vec![
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("nproc", prebond3d_pool::available().into()),
        ("pool_threads", prebond3d_pool::threads().into()),
        ("rustc", env("PERFBENCH_RUSTC").into()),
        ("git_sha", env("PERFBENCH_GIT_SHA").into()),
        ("passes", out.measured.pass_s.len().into()),
        ("ops_timed", out.measured.op_ms.len().into()),
        ("op_tail_quantile", tail_label.into()),
    ];
    fields.extend(out.provenance.iter().cloned());
    Value::obj(fields)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "plan_large" => plan_large::run,
        "atpg_table4" => atpg_table4::run,
        "serve_mix" => serve_mix::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(args.seed, args.seconds, args.trace);
    let metrics: Vec<(&'static str, Value)> = if args.trace {
        out.layers.to_metrics()
    } else {
        end_to_end(&out.measured)
    };
    let correct = out.ops.failed == 0 && out.ops.attempted > 0;
    println!("{}", Value::obj([("provenance", provenance(&args, &out))]));
    println!(
        "{}",
        Value::obj([
            ("correct", correct.into()),
            ("attempted", out.ops.attempted.into()),
            ("failed", out.ops.failed.into()),
            ("metrics", Value::obj(metrics)),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}
