//! `serve_mix`: the serving daemon under a cold job and a warm mix.
//!
//! An in-process `prebond3d-serve` daemon with a journal in a scratch
//! directory of the checkout. Each pass starts a fresh daemon, sends one
//! cold `probe: atpg` job (b11 Die0, Ours, tight), primes every distinct
//! spec of the mix once, then lets closed-loop clients replay a seeded
//! warm mix over the b11/b12 dies × {ours, agrawal} × {tight, area}:
//! structural probes, repeats of the ATPG-probe spec (served from the warm
//! probe memo) and, one job in eight, the die sent inline as netlist
//! text. It is the only workload that exercises the protocol, the warm
//! cache, the journal, the queue and the parse/signature path.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use prebond3d_netlist::{format, itc99, Netlist};
use prebond3d_obs::json::Value;
use prebond3d_rng::StdRng;
use prebond3d_serve::{Bind, Server, ServerConfig};

use crate::layers::{self, Layers, Trace};
use crate::{quantile, run_passes, setup_samples, shuffle, timed, Measured, Ops, Outcome};

const DIES: [(&str, usize); 8] = [
    ("b11", 0),
    ("b11", 1),
    ("b11", 2),
    ("b11", 3),
    ("b12", 0),
    ("b12", 1),
    ("b12", 2),
    ("b12", 3),
];
const METHODS: [&str; 2] = ["ours", "agrawal"];
const SCENARIOS: [&str; 2] = ["tight", "area"];
/// Rounds of the warm mix; each round is 32 generated structural jobs
/// (every die × method × scenario), 5 inline jobs and 3 ATPG-probe repeats.
const ROUNDS: usize = 10;
const INLINE_PER_ROUND: usize = 5;
const ATPG_PER_ROUND: usize = 3;

/// One job spec of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Spec {
    die: usize,
    method: &'static str,
    scenario: &'static str,
    atpg: bool,
    inline: bool,
}

impl Spec {
    /// The cold job, repeated warm in the mix.
    const ATPG: Spec = Spec {
        die: 0,
        method: "ours",
        scenario: "tight",
        atpg: true,
        inline: false,
    };

    fn line(&self, id: &str, texts: &[String]) -> String {
        let mut fields = vec![
            ("op", Value::from("submit")),
            ("id", id.into()),
            ("method", self.method.into()),
            ("scenario", self.scenario.into()),
            (
                "probe",
                if self.atpg { "atpg" } else { "structural" }.into(),
            ),
        ];
        let (circuit, die) = DIES[self.die];
        if self.inline {
            fields.push(("netlist", texts[self.die].as_str().into()));
        } else {
            fields.push(("circuit", circuit.into()));
            fields.push(("die", die.into()));
        }
        Value::obj(fields).to_string()
    }

    fn label(&self) -> String {
        let (circuit, die) = DIES[self.die];
        format!(
            "{circuit} Die{die} {}-{} {}{}",
            self.method,
            self.scenario,
            if self.atpg { "atpg" } else { "structural" },
            if self.inline { " inline" } else { "" }
        )
    }
}

/// The 32 generated structural specs.
fn structural() -> Vec<Spec> {
    let mut specs = Vec::new();
    for die in 0..DIES.len() {
        for method in METHODS {
            for scenario in SCENARIOS {
                specs.push(Spec {
                    die,
                    method,
                    scenario,
                    atpg: false,
                    inline: false,
                });
            }
        }
    }
    specs
}

/// The inline spec sent for die `die`: method and scenario rotate so every
/// combination travels inline.
fn inline_spec(die: usize) -> Spec {
    Spec {
        die,
        method: METHODS[die % 2],
        scenario: SCENARIOS[(die / 2) % 2],
        atpg: false,
        inline: true,
    }
}

/// The warm mix: a fixed multiset of jobs whose order the seed decides.
fn warm_mix(seed: u64) -> Vec<Spec> {
    let mut jobs = Vec::new();
    for round in 0..ROUNDS {
        jobs.extend(structural());
        jobs.extend(
            (0..INLINE_PER_ROUND).map(|j| inline_spec((round * INLINE_PER_ROUND + j) % DIES.len())),
        );
        jobs.extend([Spec::ATPG; ATPG_PER_ROUND]);
    }
    shuffle(&mut jobs, &mut StdRng::seed_from_u64(seed));
    jobs
}

/// A finished job as the client saw it.
struct Done {
    code: u64,
    cache: String,
    /// Submit to `done`, including queue wait.
    client_ms: f64,
    /// The job's own time on the server.
    server_ms: f64,
    report: Option<String>,
    counters: Vec<(String, u64)>,
    phases: Vec<(String, f64)>,
}

/// One connection speaking the newline-delimited JSON protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // A hung daemon fails the job instead of the whole run's deadline.
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("set read timeout: {e}"))?;
        let reader = writer
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client {
            writer,
            reader: BufReader::new(reader),
        })
    }

    fn frame(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => prebond3d_obs::json::parse(line.trim()).map_err(|e| format!("bad frame: {e}")),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Submit one job and read its frames through `done`. A `retry_after`
    /// shed is an error: the mix runs far below the admission limits.
    fn submit(&mut self, line: &str) -> Result<Done, String> {
        let t0 = Instant::now();
        // One write per request, as a line-oriented client sends it.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut phases = Vec::new();
        loop {
            let frame = self.frame()?;
            match frame.get("ev").and_then(Value::as_str) {
                Some("accepted") => {}
                Some("phase") => {
                    if let (Some(path), Some(ms)) = (
                        frame.get("path").and_then(Value::as_str),
                        frame.get("ms").and_then(Value::as_f64),
                    ) {
                        phases.push((path.to_string(), ms));
                    }
                }
                Some("done") => {
                    let counters = match frame.get("counters") {
                        Some(Value::Obj(map)) => map
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                            .collect(),
                        _ => Vec::new(),
                    };
                    return Ok(Done {
                        code: frame
                            .get("code")
                            .and_then(Value::as_u64)
                            .unwrap_or(u64::MAX),
                        cache: frame
                            .get("cache")
                            .and_then(Value::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        client_ms: t0.elapsed().as_secs_f64() * 1e3,
                        server_ms: frame.get("ms").and_then(Value::as_f64).unwrap_or(0.0),
                        report: frame.get("report").map(Value::to_string),
                        counters,
                        phases,
                    });
                }
                Some("retry_after") => return Err(format!("shed: {frame}")),
                _ => return Err(format!("unexpected frame {frame}")),
            }
        }
    }
}

/// The inputs every pass shares: the mix's dies as netlists and as the
/// inline text clients send.
struct Inputs {
    netlists: Vec<Netlist>,
    texts: Vec<String>,
}

fn generate_inputs() -> Inputs {
    let netlists: Vec<Netlist> = DIES
        .iter()
        .map(|&(c, d)| itc99::generate_die(&itc99::circuit(c).expect("known circuit").dies[d]))
        .collect();
    let texts = netlists.iter().map(format::write).collect();
    Inputs { netlists, texts }
}

/// Journal of daemon `n`, in a scratch directory of the working tree.
fn journal_path(n: usize) -> PathBuf {
    PathBuf::from(SCRATCH)
        .join(format!("serve-{}-{n}", std::process::id()))
        .join("journal.wal")
}

const SCRATCH: &str = ".perfbench";

/// Start daemon `n` on an ephemeral port with a fresh journal.
fn start_daemon(n: usize) -> Server {
    let journal = journal_path(n);
    let dir = journal.parent().expect("journal has a directory");
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the journal directory");
    Server::start(ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".into()),
        workers: lanes(),
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    })
    .expect("start the daemon")
}

/// Shut daemon `n` down, wait for it, and delete its journal; returns
/// the journal's size in bytes.
fn stop_daemon(server: Server, n: usize) -> u64 {
    server.shutdown();
    server.join();
    let journal = journal_path(n);
    let bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(journal.parent().expect("journal has a directory"));
    bytes
}

fn addr(server: &Server) -> SocketAddr {
    server.addr().expect("the daemon listens on TCP")
}

/// Daemon workers and concurrent clients: two, or fewer on a smaller host.
fn lanes() -> usize {
    prebond3d_pool::available().min(2)
}

/// Everything one pass observed.
#[derive(Default)]
struct PassResult {
    /// Cold job, priming and warm mix.
    wall_s: f64,
    cold_s: f64,
    warm_s: f64,
    warm: Vec<Done>,
    primed: Vec<Done>,
    shed: u64,
    wrapper_cells: usize,
    tight_plans: usize,
    tight_met: usize,
}

/// Check one job: code 0, and a report byte-identical to the first
/// answer for the same spec.
fn check(spec: &Spec, done: &Done, first: &mut HashMap<Spec, String>) -> Result<(), String> {
    if done.code != 0 {
        return Err(format!("job code {}", done.code));
    }
    let report = done.report.as_ref().ok_or("done frame without a report")?;
    match first.get(spec) {
        Some(seen) if seen != report => {
            Err(format!("report differs from the first answer: {report}"))
        }
        Some(_) => Ok(()),
        None => {
            first.insert(*spec, report.clone());
            Ok(())
        }
    }
}

fn pass(addr: SocketAddr, inputs: &Inputs, mix: &[Spec], ops: &mut Ops) -> PassResult {
    let mut out = PassResult::default();
    let mut first: HashMap<Spec, String> = HashMap::new();
    let mut record =
        |ops: &mut Ops, spec: &Spec, result: Result<Done, String>, out: &mut PassResult| {
            if matches!(&result, Err(e) if e.starts_with("shed")) {
                out.shed += 1;
            }
            let verdict = result.and_then(|d| check(spec, &d, &mut first).map(|()| d));
            match verdict {
                Ok(d) => {
                    ops.record(&spec.label(), Ok(()));
                    Some(d)
                }
                Err(e) => {
                    ops.record(&spec.label(), Err(e));
                    None
                }
            }
        };

    // Cold job, then one job per distinct spec so the mix runs warm.
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            ops.record("connect", Err(e));
            return out;
        }
    };
    let (cold, cold_s) = timed(|| client.submit(&Spec::ATPG.line("cold", &inputs.texts)));
    out.cold_s = cold_s;
    let t_primed = Instant::now();
    let priming: Vec<Spec> = structural()
        .into_iter()
        .chain((0..DIES.len()).map(inline_spec))
        .collect();
    let mut primed = vec![(Spec::ATPG, cold)];
    for (i, spec) in priming.iter().enumerate() {
        primed.push((
            *spec,
            client.submit(&spec.line(&format!("prime-{i}"), &inputs.texts)),
        ));
    }
    drop(client);
    let primed_s = t_primed.elapsed().as_secs_f64();
    for (spec, result) in primed {
        let Some(done) = record(ops, &spec, result, &mut out) else {
            continue;
        };
        if spec.method == "ours" && !spec.inline {
            let report = done
                .report
                .as_deref()
                .and_then(|r| prebond3d_obs::json::parse(r).ok());
            let field = |key| report.as_ref().and_then(|r| r.get(key));
            let cells = field("additional_wrapper_cells").and_then(Value::as_u64);
            out.wrapper_cells += cells.unwrap_or(0) as usize;
            if spec.scenario == "tight" {
                out.tight_plans += 1;
                let violation = field("timing_violation").and_then(Value::as_bool);
                out.tight_met += usize::from(violation == Some(false));
            }
        }
        out.primed.push(done);
    }

    // The warm mix: closed-loop clients, each on its own connection.
    let clients = lanes();
    let t0 = Instant::now();
    let results: Vec<Vec<(Spec, Result<Done, String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let jobs = mix.iter().enumerate().skip(c).step_by(clients);
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => return jobs.map(|(_, spec)| (*spec, Err(e.clone()))).collect(),
                    };
                    jobs.map(|(i, spec)| {
                        let line = spec.line(&format!("warm-{i}"), &inputs.texts);
                        (*spec, client.submit(&line))
                    })
                    .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    out.warm_s = t0.elapsed().as_secs_f64();
    out.wall_s = out.cold_s + primed_s + out.warm_s;
    for (spec, result) in results.into_iter().flatten() {
        if let Some(done) = record(ops, &spec, result, &mut out) {
            out.warm.push(done);
        }
    }
    out
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mix = warm_mix(seed);
    let mut ops = Ops::default();
    let mut m = Measured::default();
    let mut layers = Layers::default();
    // Every pass and every set-up sample gets a daemon and journal of its own.
    let mut daemons = 0..;
    let mut daemon = || {
        let n = daemons.next().expect("unbounded");
        (start_daemon(n), n)
    };
    if trace {
        let mut tr = Trace::default();
        let inputs = layers::traced(&mut tr, generate_inputs);
        let (server, n) = daemon();
        let untraced = pass(addr(&server), &inputs, &mix, &mut ops).wall_s;
        stop_daemon(server, n);
        let (server, n) = daemon();
        // Jobs report what they record on their own thread in their
        // frames; what pool workers record inside a job lands in the
        // global registry, which `traced` folds in.
        let p = layers::traced(&mut tr, || pass(addr(&server), &inputs, &mix, &mut ops));
        let journal_bytes = stop_daemon(server, n);
        layers.set("trace.overhead_s", p.wall_s - untraced);
        for done in p.primed.iter().chain(&p.warm) {
            for (path, ms) in &done.phases {
                tr.add_span(path, *ms);
            }
            for (name, v) in &done.counters {
                tr.add_counter(name, *v);
            }
        }
        tr.fill(&mut layers);
        let server_ms: Vec<f64> = p.warm.iter().map(|d| d.server_ms).collect();
        let wait_ms: Vec<f64> = p
            .warm
            .iter()
            .map(|d| (d.client_ms - d.server_ms).max(0.0))
            .collect();
        let jobs = || p.primed.iter().chain(&p.warm);
        let hits = jobs().filter(|d| d.cache == "hit").count();
        let check_ms: Vec<f64> = inputs
            .netlists
            .iter()
            .map(|n| timed(|| prebond3d_dataflow::boundary::check(n)).1 * 1e3)
            .collect();
        for (name, v) in [
            ("serve.cold_job_s", p.cold_s),
            ("serve.server_ms_p50", quantile(&server_ms, 0.5)),
            ("serve.server_ms_p99", quantile(&server_ms, 0.99)),
            ("serve.queue_wait_ms_p99", quantile(&wait_ms, 0.99)),
            (
                "serve.cache_hit_ratio",
                hits as f64 / jobs().count().max(1) as f64,
            ),
            ("serve.journal_bytes", journal_bytes as f64),
            ("serve.shed", p.shed as f64),
            (
                "dataflow.boundary_check_ms",
                check_ms.iter().sum::<f64>() / check_ms.len() as f64,
            ),
        ] {
            layers.set(name, v);
        }
    } else {
        m.setup_s = setup_samples(|| {
            let ((_, (server, n)), s) = timed(|| (generate_inputs(), daemon()));
            stop_daemon(server, n);
            s
        });
        let inputs = generate_inputs();
        let mut quality = None;
        m.pass_s = run_passes(seconds, |_| {
            let (server, n) = daemon();
            let p = pass(addr(&server), &inputs, &mix, &mut ops);
            stop_daemon(server, n);
            m.work_s.push(p.warm_s);
            m.op_ms.extend(p.warm.iter().map(|d| d.client_ms));
            quality.get_or_insert((p.wrapper_cells, p.tight_plans, p.tight_met));
            p.wall_s
        });
        m.work_per_pass = mix.len() as f64;
        (m.wrapper_cells, m.tight_plans, m.tight_met) = quality.unwrap_or_default();
    }
    let _ = std::fs::remove_dir(SCRATCH);
    let dies: Vec<Value> = DIES
        .iter()
        .map(|(c, d)| format!("{c} Die{d}").into())
        .collect();
    Outcome {
        ops,
        measured: m,
        layers,
        provenance: vec![
            ("dies", dies.into()),
            (
                "configs",
                "ours|agrawal x tight|area; cold atpg probe b11 Die0 ours-tight".into(),
            ),
            ("warm_jobs", mix.len().into()),
            ("clients", lanes().into()),
            ("workers", lanes().into()),
        ],
    }
}
