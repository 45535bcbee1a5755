//! `prebond3d-loadgen` — replay a seeded multi-client job mix against a
//! `prebond3d-serve` daemon and write `results/BENCH_serve.json`.
//!
//! Usage:
//! `prebond3d-loadgen [--addr HOST:PORT] [--clients N] [--jobs N]
//!  [--seed N] [--shutdown] [--daemon-bin PATH]`
//!
//! Without `--addr` an in-process daemon is spawned (and shut down) for
//! the run. The daemon must be cold: the priming pass is what produces
//! the gated `serve.cache_misses` measurement and the cold latency
//! histogram. With `--daemon-bin` pointing at a `prebond3d-serve`
//! binary, the external kill-and-recover phase also runs: the loadgen
//! spawns the daemon with `--journal`, SIGKILLs it mid-mix, restarts
//! it, and asserts every accepted job drains exactly once.
//!
//! Exit codes: 0 contract held, 1 contract violated (a job failed, no
//! cache hits, warm p50 did not beat cold p50, or the
//! backpressure/recovery contract broke), 2 usage/connection error.

use prebond3d_bench::loadgen::{self, LoadgenConfig};
use prebond3d_resilience::RunCtx;

fn usage() -> ! {
    eprintln!(
        "usage: prebond3d-loadgen [--addr HOST:PORT] [--clients N] [--jobs N] \
         [--seed N] [--shutdown] [--daemon-bin PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = LoadgenConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = Some(value("--addr")),
            "--clients" => match value("--clients").parse() {
                Ok(n) if n > 0 => config.clients = n,
                _ => usage(),
            },
            "--jobs" => match value("--jobs").parse() {
                Ok(n) if n > 0 => config.jobs_per_client = n,
                _ => usage(),
            },
            "--seed" => match value("--seed").parse() {
                Ok(n) => config.seed = n,
                Err(_) => usage(),
            },
            "--shutdown" => config.shutdown = true,
            "--daemon-bin" => {
                config.daemon_bin = Some(std::path::PathBuf::from(value("--daemon-bin")));
            }
            _ => usage(),
        }
    }
    let (ctx, mode) = RunCtx::from_env();
    match RunCtx::scope(&ctx, || loadgen::run(&config, mode.stable_ms)) {
        Ok(s) => {
            println!(
                "loadgen: {} jobs, {} hits / {} misses, cold p50 {:.2} ms, \
                 warm p50 {:.2} ms, {} shed, {} recovered ({} after kill) -> {}",
                s.jobs,
                s.hits,
                s.misses,
                s.cold_p50_ms,
                s.warm_p50_ms,
                s.shed,
                s.recovered,
                s.kill_recovered,
                s.report_path.display()
            );
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            // Connection-level failures are usage-ish (2); contract
            // violations are regressions (1).
            let code = if e.contains("connect") || e.contains("spawn daemon") {
                2
            } else {
                1
            };
            std::process::exit(code);
        }
    }
}
