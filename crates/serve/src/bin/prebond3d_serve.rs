//! The `prebond3d-serve` daemon entrypoint.
//!
//! ```text
//! prebond3d-serve [--listen ADDR] [--unix PATH] [--workers N]
//!                 [--cache-bytes N] [--port-file PATH] [--journal PATH]
//!                 [--max-queue N] [--queue-bytes N] [--write-timeout-ms N]
//!                 [--paused]
//! ```
//!
//! Binds (TCP by default, `127.0.0.1:0`), prints `listening on <addr>`,
//! and serves until a client sends the `shutdown` op. `--port-file`
//! writes the bound TCP port to a file so harnesses can discover an
//! ephemeral port without scraping stdout. `--journal` arms the
//! write-ahead job journal (DESIGN.md §15): accepted jobs survive a
//! crash and replay on the next start with the same path. `--paused`
//! starts with the queue held — submits are accepted and journaled but
//! nothing runs until a client sends the `resume` op (maintenance holds
//! and deterministic crash drills). The `PREBOND3D_*` run switches
//! (`NO_CACHE`, `LANES`, `BUDGET_MS`, `CHAOS`) are read once here into the
//! server's base run context.

use std::process::ExitCode;

use prebond3d_resilience::RunCtx;
use prebond3d_serve::{Bind, Server, ServerConfig};

struct Args {
    config: ServerConfig,
    port_file: Option<std::path::PathBuf>,
}

fn usage() -> &'static str {
    "usage: prebond3d-serve [--listen ADDR] [--unix PATH] [--workers N] \
     [--cache-bytes N] [--port-file PATH] [--journal PATH] [--max-queue N] \
     [--queue-bytes N] [--write-timeout-ms N] [--paused]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut config = ServerConfig {
        ctx: RunCtx::from_env().0,
        ..ServerConfig::default()
    };
    let mut port_file = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--listen" => config.bind = Bind::Tcp(value("--listen")?),
            "--unix" => {
                #[cfg(unix)]
                {
                    config.bind = Bind::Unix(value("--unix")?.into());
                }
                #[cfg(not(unix))]
                return Err("--unix is not supported on this platform".into());
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-bytes" => {
                config.cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|e| format!("--cache-bytes: {e}"))?;
            }
            "--port-file" => port_file = Some(value("--port-file")?.into()),
            "--journal" => config.journal = Some(value("--journal")?.into()),
            "--max-queue" => {
                config.max_queue = value("--max-queue")?
                    .parse()
                    .map_err(|e| format!("--max-queue: {e}"))?;
            }
            "--queue-bytes" => {
                config.queue_bytes = value("--queue-bytes")?
                    .parse()
                    .map_err(|e| format!("--queue-bytes: {e}"))?;
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?;
            }
            "--paused" => config.paused = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(Args { config, port_file })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let bind = args.config.bind.clone();
    let server = match Server::start(args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::from(2);
        }
    };
    match (server.addr(), &bind) {
        (Some(addr), _) => {
            println!("listening on {addr}");
            if let Some(path) = &args.port_file {
                if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
                    eprintln!("port file {}: {e}", path.display());
                }
            }
        }
        #[cfg(unix)]
        (None, Bind::Unix(path)) => println!("listening on {}", path.display()),
        (None, _) => println!("listening"),
    }
    server.join();
    ExitCode::SUCCESS
}
