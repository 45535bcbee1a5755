//! The serving load generator behind `prebond3d-loadgen`.
//!
//! Replays a **seeded multi-client job mix** against a `prebond3d-serve`
//! daemon and writes `results/BENCH_serve.json` — the serving twin of
//! `BENCH_perf.json`, obs-diff-gated in CI (`serve.cache_misses` is in
//! [`crate::obsdiff::GATED_COUNTERS`]).
//!
//! The run has two deliberate phases:
//!
//! 1. **Priming** — one sequential client submits one job per distinct
//!    substrate in the mix. Against a cold daemon this produces exactly
//!    one `serve.cache_misses` per substrate (all methods share a
//!    substrate's warm entry), making the gated counter deterministic
//!    and race-free. The first priming job is the *measured-probe* job
//!    (`probe: atpg` on the smallest substrate): it pays the full ATPG
//!    pricing of every overlapping pair, which is what fills the probe
//!    memo the warm cache keeps alive. Its server-side duration is the
//!    *cold* latency sample.
//! 2. **Mix** — `clients` concurrent connections each replay
//!    `jobs_per_client` jobs drawn from the seeded mix. Every lookup
//!    hits the warm cache. Mix jobs with the **same spec** as the cold
//!    measured-probe job (each client's first job is one, by
//!    construction) feed the *warm* histogram — a matched comparison,
//!    where the only difference is the cache state. Latencies are the
//!    server-side per-job `ms` from the `done` frame, so mix queueing
//!    does not pollute the comparison.
//! 3. **Saturation sweep** — for each client count in
//!    [`SWEEP_CLIENTS`], a burst of warm structural jobs measures
//!    end-to-end throughput; the per-count `jobs_per_sec` rows land in
//!    the report's `saturation` array, showing where the daemon's
//!    worker pool saturates. Throughput is wall-clock and therefore
//!    zeroed under `PREBOND3D_STABLE_MS` (the row structure and job
//!    counts stay deterministic).
//! 4. **Overload & backpressure** — on dedicated in-process daemons: a
//!    zero-depth admission gate sheds three submits deterministically
//!    (`serve.shed = 3`, floor-gated by obs-diff), then a held depth-1
//!    queue guarantees three concurrent clients are shed and drain
//!    through client-side `retry_after`-honoring backoff after a
//!    `resume`. See [`overload_phase`].
//! 5. **Crash recovery** — a journaled in-process daemon is aborted
//!    with three jobs journaled into a held queue; the restart must
//!    replay exactly those three orphans (`serve.recovered = 3`,
//!    floor-gated) with byte-identical `report` sub-objects and dedup
//!    exact resubmits. See [`recovery_phase`].
//! 6. **Kill-and-recover** (opt-in via `--daemon-bin`) — the same
//!    contract against the real daemon binary: four jobs journaled into
//!    a `--paused` queue, SIGKILL, restart, all four drain exactly
//!    once. See [`kill_recover_phase`].
//!
//! The loadgen asserts the serving contract, not just liveness: every
//! job must come back code 0, the hit delta must be positive, and the
//! warm p50 must beat the cold p50 (a warm measured-probe job skips
//! generate+place *and* re-pricing the pairs its substrate's memo
//! already holds). It therefore **requires a cold daemon** — point it
//! at a warmed-up one and the cold histogram is empty, which is an
//! error, not a silently-vacuous pass.
//!
//! Latency histogram *values* are wall-clock and zeroed under
//! `PREBOND3D_STABLE_MS` like every other clock in the reports; the
//! sample **counts** are deterministic (`#substrates` cold,
//! `clients * jobs_per_client` warm) and survive, so obs-diff can still
//! align them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use prebond3d_obs as obs;
use prebond3d_obs::json::Value;
use prebond3d_pool as pool;
use prebond3d_resilience as resil;
use prebond3d_rng::StdRng;
use prebond3d_serve::{Bind, Server, ServerConfig};

use crate::report;

/// The fixed substrate set of the mix: small dies so a full replay stays
/// in CI seconds, two circuits so eviction keying is exercised across
/// generation inputs.
const SUBSTRATES: [(&str, usize); 3] = [("b11", 0), ("b11", 1), ("b12", 0)];
/// Methods sampled by the mix; all four share one substrate entry.
const METHODS: [&str; 3] = ["ours", "agrawal", "li"];

/// Loadgen configuration (see the binary's `--help`).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target an external daemon (`host:port`); `None` spawns one
    /// in-process.
    pub addr: Option<String>,
    /// Concurrent mix connections.
    pub clients: usize,
    /// Jobs each mix client replays.
    pub jobs_per_client: usize,
    /// Mix seed; same seed, same job sequence.
    pub seed: u64,
    /// Send the `shutdown` op when done (always done for an in-process
    /// daemon; opt-in for an external one).
    pub shutdown: bool,
    /// Path to a `prebond3d-serve` binary for the external
    /// kill-and-recover phase: the loadgen spawns it with `--journal`,
    /// SIGKILLs it mid-mix, restarts it, and asserts every accepted job
    /// drains exactly once. `None` skips the external phase (the
    /// in-process crash-recovery phase always runs).
    pub daemon_bin: Option<std::path::PathBuf>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: None,
            clients: 3,
            jobs_per_client: 6,
            seed: 0x10AD_5EED,
            shutdown: false,
            daemon_bin: None,
        }
    }
}

/// What [`run`] hands the binary for its summary line.
#[derive(Debug)]
pub struct LoadgenSummary {
    /// Jobs replayed (priming + mix).
    pub jobs: u64,
    /// `serve.cache_hits` delta over the run.
    pub hits: u64,
    /// `serve.cache_misses` delta over the run.
    pub misses: u64,
    /// Cold (miss) p50 latency, milliseconds.
    pub cold_p50_ms: f64,
    /// Warm (hit) p50 latency, milliseconds.
    pub warm_p50_ms: f64,
    /// Deterministic sheds from the overload phase (`serve.shed`).
    pub shed: u64,
    /// Journal orphans replayed by the recovery phase
    /// (`serve.recovered`).
    pub recovered: u64,
    /// Jobs recovered by the external kill-and-recover phase (0 when
    /// `--daemon-bin` was not given).
    pub kill_recovered: u64,
    /// Where `BENCH_serve.json` was written.
    pub report_path: std::path::PathBuf,
}

/// One client connection speaking the newline-delimited JSON protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One completed job as observed from the client side.
struct JobResult {
    code: u64,
    cache: String,
    /// Server-side job duration (the `done` frame's `ms`), nanoseconds.
    server_ns: u64,
    /// Did this job run the measured-probe spec the histograms compare?
    measured: bool,
    /// `(path, count, ms)` rows from the job's `phase` frames.
    phases: Vec<(String, u64, f64)>,
    /// The idempotency key from the `accepted` frame (wire form).
    key: String,
    /// Was the `done` frame replayed from the journal (`"dedup":true`)?
    dedup: bool,
    /// The serialized `report` sub-object, for byte-identity checks.
    report: Option<String>,
}

/// What one submit attempt came back with.
enum Submitted {
    /// The job ran (or replayed) to its terminal frame.
    Done(JobResult),
    /// Admission shed the submit; back off at least this many ms.
    RetryAfter(u64),
}

/// Seeded exponential backoff with jitter: `25·2^min(attempt,6)` ms plus
/// a uniform jitter of up to the same again.
fn backoff_ms(attempt: u32, rng: &mut StdRng) -> u64 {
    let base = 25u64 << attempt.min(6);
    base + rng.gen_range(0..base)
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = writer
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client {
            writer,
            reader: BufReader::new(reader),
        })
    }

    /// Connect with bounded seeded backoff + jitter. Absorbs the race of
    /// a daemon that is still binding (`--port-file` was written but the
    /// listener isn't up, or the harness started loadgen first).
    fn connect_retry(addr: &str, rng: &mut StdRng) -> Result<Client, String> {
        let mut last = String::new();
        for attempt in 0..10u32 {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            std::thread::sleep(Duration::from_millis(backoff_ms(attempt, rng)));
        }
        Err(format!("giving up after 10 connect attempts: {last}"))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))
    }

    fn read_frame(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        obs::json::parse(line.trim())
            .map_err(|e| format!("unparsable frame `{}`: {e}", line.trim()))
    }

    /// One request, one response frame.
    fn request(&mut self, line: &str) -> Result<Value, String> {
        self.send(line)?;
        self.read_frame()
    }

    /// Submit one job; the response is either its frame stream through
    /// `done` or a single `retry_after` shed. `measured` tags the job
    /// for the cold/warm latency histograms.
    fn try_submit(&mut self, line: &str, measured: bool) -> Result<Submitted, String> {
        self.send(line)?;
        let first = self.read_frame()?;
        match first.get("ev").and_then(Value::as_str) {
            Some("accepted") => {}
            Some("retry_after") => {
                let ms = first
                    .get("retry_after_ms")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                return Ok(Submitted::RetryAfter(ms));
            }
            _ => return Err(format!("expected accepted, got {first}")),
        }
        let key = first
            .get("key")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let mut phases = Vec::new();
        loop {
            let frame = self.read_frame()?;
            match frame.get("ev").and_then(Value::as_str) {
                Some("phase") => {
                    if let (Some(path), Some(count), Some(ms)) = (
                        frame.get("path").and_then(Value::as_str),
                        frame.get("count").and_then(Value::as_u64),
                        frame.get("ms").and_then(Value::as_f64),
                    ) {
                        phases.push((path.to_string(), count, ms));
                    }
                }
                Some("done") => {
                    let server_ms = frame.get("ms").and_then(Value::as_f64).unwrap_or(0.0);
                    return Ok(Submitted::Done(JobResult {
                        code: frame.get("code").and_then(Value::as_u64).unwrap_or(4),
                        cache: frame
                            .get("cache")
                            .and_then(Value::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        server_ns: (server_ms.max(0.0) * 1.0e6) as u64,
                        measured,
                        phases,
                        key,
                        dedup: frame.get("dedup").and_then(Value::as_bool).unwrap_or(false),
                        report: frame.get("report").map(Value::to_string),
                    }));
                }
                _ => return Err(format!("unexpected frame {frame}")),
            }
        }
    }

    /// Submit expecting admission (the main phases run far below the
    /// queue limits): a `retry_after` here is a contract failure.
    fn submit(&mut self, line: &str, measured: bool) -> Result<JobResult, String> {
        match self.try_submit(line, measured)? {
            Submitted::Done(r) => Ok(r),
            Submitted::RetryAfter(ms) => {
                Err(format!("unexpected retry_after ({ms} ms) for `{line}`"))
            }
        }
    }

    /// Resilient submit: sheds are retried with seeded backoff + jitter
    /// (honoring the server's `retry_after_ms` floor) until the job is
    /// admitted and reaches `done`. Returns the result and how many
    /// `retry_after` frames were absorbed along the way. The submit line
    /// is identical on every attempt, so with a journaled daemon the
    /// idempotency key dedups any ambiguous retry to exactly-once.
    fn submit_retry(
        &mut self,
        line: &str,
        measured: bool,
        rng: &mut StdRng,
        max_attempts: u32,
    ) -> Result<(JobResult, u64), String> {
        let mut sheds = 0u64;
        for attempt in 0..max_attempts {
            match self.try_submit(line, measured)? {
                Submitted::Done(r) => return Ok((r, sheds)),
                Submitted::RetryAfter(server_ms) => {
                    sheds += 1;
                    let wait = server_ms.max(backoff_ms(attempt, rng));
                    std::thread::sleep(Duration::from_millis(wait.min(2_000)));
                }
            }
        }
        Err(format!("still shed after {max_attempts} attempts: `{line}`"))
    }
}

/// The substrate/method/probe of the measured-probe jobs the cold/warm
/// histograms compare: the ATPG probe on the smallest substrate, so the
/// cold job's full pair pricing stays in CI seconds.
const MEASURED: (usize, usize, &str) = (0, 0, "atpg");

/// Client counts exercised by the saturation sweep (phase 3).
const SWEEP_CLIENTS: [usize; 4] = [1, 2, 4, 8];
/// Warm structural jobs each sweep client replays per round.
const SWEEP_JOBS: usize = 3;

/// The submit line for one mix draw.
fn job_line(id: &str, substrate: usize, method: usize, probe: &str) -> String {
    let (circuit, die) = SUBSTRATES[substrate];
    format!(
        r#"{{"op":"submit","id":"{id}","circuit":"{circuit}","die":{die},"method":"{}","probe":"{probe}"}}"#,
        METHODS[method]
    )
}

/// Numeric field of a stats sub-block, defaulting to 0.
fn stat(frame: &Value, block: &str, key: &str) -> u64 {
    frame
        .get(block)
        .and_then(|b| b.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Outcome of the overload phase.
struct OverloadOutcome {
    /// Sheds from the zero-depth admission server — exactly 3, every
    /// run; this is what the floor-gated `serve.shed` work row reports.
    shed_deterministic: u64,
    /// Total sheds across both overload servers (retries add more).
    shed_total: u64,
    /// `retry_after` frames clients absorbed and honored.
    retry_after_frames: u64,
}

/// Outcome of the in-process crash-recovery phase.
struct RecoveryOutcome {
    /// Journal orphans replayed after the abort — exactly 3, every run;
    /// the floor-gated `serve.recovered` work row.
    recovered: u64,
    /// Exact resubmits answered from the journal without re-running.
    deduped: u64,
    /// Unfinished journal entries left at the end (must be 0).
    journal_pending: u64,
    /// Terminal records held by the restarted daemon.
    journal_done: u64,
}

/// Poll the `status` op until `key` reaches `done` (the recovered
/// orphans run with no client attached), failing on `unknown` — a key we
/// were told was accepted can only be pending or done.
fn poll_status_done(
    client: &mut Client,
    key: &str,
    timeout: Duration,
) -> Result<Value, String> {
    let t0 = Instant::now();
    loop {
        let frame = client.request(&format!(r#"{{"op":"status","key":"{key}"}}"#))?;
        match frame.get("state").and_then(Value::as_str) {
            Some("done") => return Ok(frame),
            Some("pending") => {}
            other => return Err(format!("status of {key}: unexpected state {other:?}")),
        }
        if t0.elapsed() > timeout {
            return Err(format!("job {key} still pending after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Phase 4 — overload & backpressure, on dedicated in-process servers.
///
/// 4a: a `max_queue = 0` server sheds every submit: three submits must
/// come back as `retry_after` frames with a nonzero backoff, making
/// `serve.shed = 3` deterministic for the obs-diff floor gate.
///
/// 4b: a paused single-worker, `max_queue = 1` server whose one queue
/// slot is already taken: three concurrent clients are guaranteed to be
/// shed on their first submit, retry with seeded backoff + jitter
/// (honoring `retry_after_ms`), and — once the queue is resumed — every
/// job completes exactly once.
fn overload_phase(seed: u64) -> Result<OverloadOutcome, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BAD_10AD);
    // --- 4a: deterministic shed -----------------------------------------
    let server = Server::start(ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        workers: 1,
        max_queue: 0,
        cache_bytes: prebond3d_serve::cache::DEFAULT_BUDGET_BYTES,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("spawn shed daemon: {e}"))?;
    let addr = server.addr().expect("tcp addr").to_string();
    let mut client = Client::connect_retry(&addr, &mut rng)?;
    let mut retry_after_frames = 0u64;
    for i in 0..3 {
        match client.try_submit(&job_line(&format!("shed-{i}"), 0, 0, "structural"), false)? {
            Submitted::RetryAfter(ms) => {
                if ms == 0 {
                    return Err("retry_after frame carried a zero backoff".into());
                }
                retry_after_frames += 1;
            }
            Submitted::Done(_) => return Err("zero-depth admission admitted a job".into()),
        }
    }
    let stats = client.request(r#"{"op":"stats"}"#)?;
    let shed_deterministic = stat(&stats, "queue", "shed");
    if shed_deterministic != 3 {
        return Err(format!("expected 3 deterministic sheds, got {shed_deterministic}"));
    }
    client.request(r#"{"op":"shutdown"}"#)?;
    server.join();

    // --- 4b: overload that drains through client retries ----------------
    // The queue starts paused with a single slot, and one job takes that
    // slot immediately: the three concurrent clients below MUST be shed
    // on their first submit. Once each has been shed at least once the
    // queue is resumed, and their backoff retries drain one at a time.
    let server = Server::start(ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        workers: 1,
        max_queue: 1,
        paused: true,
        cache_bytes: prebond3d_serve::cache::DEFAULT_BUDGET_BYTES,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("spawn overload daemon: {e}"))?;
    let addr = server.addr().expect("tcp addr").to_string();
    let mut slot = Client::connect_retry(&addr, &mut rng)?;
    slot.send(&job_line("ov-slot", 2, 0, "structural"))?;
    let first = slot.read_frame()?;
    if first.get("ev").and_then(Value::as_str) != Some("accepted") {
        return Err(format!("slot-filling job not accepted: {first}"));
    }
    let shed_once = std::sync::atomic::AtomicU64::new(0);
    let results: Vec<Result<(JobResult, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                let addr = addr.clone();
                let shed_once = &shed_once;
                scope.spawn(move || -> Result<(JobResult, u64), String> {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BAD_0000 ^ i);
                    let mut c = Client::connect_retry(&addr, &mut rng)?;
                    let line =
                        job_line(&format!("ov-{i}"), (i % 2) as usize, i as usize, "structural");
                    // The first attempt runs while the queue is held full
                    // (resume waits for all three of these), so a shed is
                    // guaranteed — this is the retry_after frame under
                    // genuine contention the phase exists to exercise.
                    let server_ms = match c.try_submit(&line, false)? {
                        Submitted::RetryAfter(ms) => ms,
                        Submitted::Done(_) => {
                            return Err("admitted into a held, full queue".into())
                        }
                    };
                    shed_once.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(
                        server_ms.max(backoff_ms(0, &mut rng)).min(2_000),
                    ));
                    let (job, sheds) = c.submit_retry(&line, false, &mut rng, 200)?;
                    Ok((job, sheds + 1))
                })
            })
            .collect();
        // Hold the queue until every client has been shed once, then let
        // it drain through their retries.
        let release = || -> Result<(), String> {
            let t0 = Instant::now();
            while shed_once.load(std::sync::atomic::Ordering::SeqCst) < 3 {
                if t0.elapsed() > Duration::from_secs(30) {
                    return Err("overload clients never reached their first shed".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut control = Client::connect(&addr)?;
            let frame = control.request(r#"{"op":"resume"}"#)?;
            if frame.get("ev").and_then(Value::as_str) != Some("resumed") {
                return Err(format!("expected resumed, got {frame}"));
            }
            Ok(())
        };
        let released = release();
        let results: Vec<Result<(JobResult, u64), String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("overload client panicked".into()))
            })
            .collect();
        if let Err(e) = released {
            return vec![Err(e)];
        }
        results
    });
    let mut client_sheds = 0u64;
    for r in results {
        let (job, sheds) = r?;
        if job.code != 0 {
            return Err(format!("overload job exited {}", job.code));
        }
        client_sheds += sheds;
    }
    if client_sheds < 3 {
        return Err(format!(
            "overload clients saw {client_sheds} retry_after frames, expected >= 3"
        ));
    }
    // Drain the slot-filling job's own frame stream.
    loop {
        let frame = slot.read_frame()?;
        if frame.get("ev").and_then(Value::as_str) == Some("done") {
            if frame.get("code").and_then(Value::as_u64) != Some(0) {
                return Err(format!("slot-filling overload job failed: {frame}"));
            }
            break;
        }
    }
    let stats = slot.request(r#"{"op":"stats"}"#)?;
    if stat(&stats, "queue", "shed") < 3 {
        return Err(format!("overload daemon shed fewer than 3 submits: {stats}"));
    }
    // The report must be byte-stable under PREBOND3D_STABLE_MS, so count
    // only the *constructed* sheds — 4a's three and each 4b client's
    // guaranteed first shed. Timing-dependent extra retries are asserted
    // live (>= floors above) but kept out of the report.
    let shed_total = shed_deterministic + 3;
    retry_after_frames += 3;
    slot.request(r#"{"op":"shutdown"}"#)?;
    server.join();
    Ok(OverloadOutcome {
        shed_deterministic,
        shed_total,
        retry_after_frames,
    })
}

/// Phase 5 — in-process crash recovery, always on (it produces the
/// floor-gated `serve.recovered = 3`).
///
/// A journaled server is started **paused**: three submitted jobs are
/// accepted and journaled but held in the queue, so an abort — the
/// in-process analogue of SIGKILL — strands exactly those three with no
/// timing dependence. The restart (also paused, to exercise the wire
/// `resume` op) must report exactly 3 recovered jobs, replay each to
/// `done` exactly once with `report` sub-objects byte-identical to
/// fresh reruns of the same specs, and dedup exact resubmits from the
/// journal instead of re-running them.
fn recovery_phase(seed: u64) -> Result<RecoveryOutcome, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4EC0_7E44);
    let journal = std::env::temp_dir().join(format!(
        "prebond3d-loadgen-recovery-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let make_config = |paused| ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        workers: 1,
        journal: Some(journal.clone()),
        paused,
        cache_bytes: prebond3d_serve::cache::DEFAULT_BUDGET_BYTES,
        ..ServerConfig::default()
    };
    let server =
        Server::start(make_config(true)).map_err(|e| format!("spawn journaled daemon: {e}"))?;
    let addr = server.addr().expect("tcp addr").to_string();

    // Three jobs are accepted and journaled into the held queue.
    let lines: Vec<String> = (0..3)
        .map(|i| job_line(&format!("rec-{i}"), i % 2, i, "structural"))
        .collect();
    let mut conns = Vec::new();
    let mut keys = Vec::new();
    for line in &lines {
        let mut c = Client::connect_retry(&addr, &mut rng)?;
        c.send(line)?;
        let f = c.read_frame()?;
        if f.get("ev").and_then(Value::as_str) != Some("accepted") {
            return Err(format!("recovery job not accepted: {f}"));
        }
        let key = f
            .get("key")
            .and_then(Value::as_str)
            .ok_or("accepted frame without a key")?
            .to_string();
        keys.push(key);
        conns.push(c);
    }
    // The held queue makes the crash window deterministic: all three
    // jobs are journaled `accepted`, none running.
    let mut control = Client::connect(&addr)?;
    let stats = control.request(r#"{"op":"stats"}"#)?;
    if stat(&stats, "queue", "depth") != 3 {
        return Err(format!("held queue should hold 3 jobs: {stats}"));
    }
    server.abort();
    server.join();
    drop(conns);
    drop(control);

    // Restart on the same journal — paused again, so the recovered jobs
    // are observable *before* they run, then released over the wire.
    let server = Server::start(make_config(true)).map_err(|e| format!("restart daemon: {e}"))?;
    let addr = server.addr().expect("tcp addr").to_string();
    let mut control = Client::connect_retry(&addr, &mut rng)?;
    let stats = control.request(r#"{"op":"stats"}"#)?;
    let recovered = stat(&stats, "journal", "recovered");
    if recovered != 3 {
        return Err(format!("expected 3 recovered jobs, got {recovered}"));
    }
    if stat(&stats, "journal", "pending") != 3 || stat(&stats, "queue", "depth") != 3 {
        return Err(format!("recovered jobs not re-queued as pending: {stats}"));
    }
    let frame = control.request(r#"{"op":"resume"}"#)?;
    if frame.get("ev").and_then(Value::as_str) != Some("resumed") {
        return Err(format!("expected resumed, got {frame}"));
    }
    for (i, key) in keys.iter().enumerate() {
        let status = poll_status_done(&mut control, key, Duration::from_secs(120))?;
        if status.get("code").and_then(Value::as_u64) != Some(0) {
            return Err(format!("recovered job {key} failed: {status}"));
        }
        let recovered_report = status
            .get("report")
            .map(Value::to_string)
            .ok_or("recovered job has no report")?;
        // Byte-identity: a fresh-id rerun of the same spec must produce
        // the exact same deterministic report.
        let fresh = job_line(&format!("rec-fresh-{i}"), i % 2, i, "structural");
        let rerun = control.submit(&fresh, false)?;
        if rerun.report.as_deref() != Some(recovered_report.as_str()) {
            return Err(format!(
                "recovered report for {key} differs from a fresh rerun"
            ));
        }
        // Exactly-once: resubmitting the original line replays from the
        // journal instead of running a second time, under the same
        // content-addressed key.
        let replay = control.submit(&lines[i], false)?;
        if !replay.dedup || replay.cache != "journal" {
            return Err(format!("resubmit of {key} re-ran instead of deduping"));
        }
        if replay.key != *key {
            return Err(format!(
                "idempotency key drifted across restart: {} != {key}",
                replay.key
            ));
        }
        if replay.report.as_deref() != Some(recovered_report.as_str()) {
            return Err(format!("dedup replay of {key} returned a different report"));
        }
    }
    let stats = control.request(r#"{"op":"stats"}"#)?;
    let outcome = RecoveryOutcome {
        recovered,
        deduped: stat(&stats, "journal", "deduped"),
        journal_pending: stat(&stats, "journal", "pending"),
        journal_done: stat(&stats, "journal", "done"),
    };
    if outcome.journal_pending != 0 {
        return Err(format!(
            "{} journal entrie(s) still pending after the drain",
            outcome.journal_pending
        ));
    }
    control.request(r#"{"op":"shutdown"}"#)?;
    server.join();
    let _ = std::fs::remove_file(&journal);
    Ok(outcome)
}

/// Kills the spawned daemon on drop so an early error cannot leak it.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Phase 6 — external kill-and-recover, opt-in via `--daemon-bin`: the
/// real daemon binary is spawned with `--journal --paused`, four jobs
/// are accepted into the held queue, the daemon is SIGKILLed — no
/// shutdown handler, no flush — and restarted (not paused) on the same
/// journal. Exactly those four jobs must recover and drain exactly
/// once, with reports byte-identical to fresh reruns. Returns how many
/// jobs the restarted daemon recovered (always 4 on success).
fn kill_recover_phase(bin: &std::path::Path, seed: u64) -> Result<u64, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5167_4B11);
    let tag = std::process::id();
    let journal = std::env::temp_dir().join(format!("prebond3d-killrec-{tag}.wal"));
    let port_file = std::env::temp_dir().join(format!("prebond3d-killrec-{tag}.port"));
    let _ = std::fs::remove_file(&journal);
    let spawn = |port_file: &std::path::Path, paused: bool| -> Result<KillOnDrop, String> {
        let _ = std::fs::remove_file(port_file);
        let mut cmd = std::process::Command::new(bin);
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg("1")
            .arg("--journal")
            .arg(&journal)
            .arg("--port-file")
            .arg(port_file)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if paused {
            cmd.arg("--paused");
        }
        cmd.spawn()
            .map(KillOnDrop)
            .map_err(|e| format!("spawn {}: {e}", bin.display()))
    };
    let wait_addr = |port_file: &std::path::Path| -> Result<String, String> {
        let t0 = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    return Ok(format!("127.0.0.1:{port}"));
                }
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err(format!("daemon never wrote {}", port_file.display()));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let mut child = spawn(&port_file, true)?;
    let addr = wait_addr(&port_file)?;
    // Four distinct specs into the held queue: accepted, journaled,
    // never dequeued — the crash window is fully deterministic.
    let specs: [(usize, usize); 4] = [(2, 0), (0, 0), (1, 1), (0, 2)];
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, &(sub, method))| job_line(&format!("kr-{i}"), sub, method, "structural"))
        .collect();
    let mut conns = Vec::new();
    let mut keys = Vec::new();
    for line in &lines {
        let mut c = Client::connect_retry(&addr, &mut rng)?;
        c.send(line)?;
        let f = c.read_frame()?;
        if f.get("ev").and_then(Value::as_str) != Some("accepted") {
            return Err(format!("kill-recover job not accepted: {f}"));
        }
        keys.push(
            f.get("key")
                .and_then(Value::as_str)
                .ok_or("accepted frame without a key")?
                .to_string(),
        );
        conns.push(c);
    }
    // All four must be sitting in the held queue, then SIGKILL: no
    // shutdown handler, no flush, no mercy.
    let mut control = Client::connect(&addr)?;
    let stats = control.request(r#"{"op":"stats"}"#)?;
    if stat(&stats, "queue", "depth") != 4 {
        return Err(format!("held daemon should hold 4 jobs: {stats}"));
    }
    let _ = child.0.kill();
    let _ = child.0.wait();
    drop(conns);
    drop(control);

    // Restart (not paused) on the same journal: exactly the four
    // stranded jobs replay and drain.
    let mut child = spawn(&port_file, false)?;
    let addr = wait_addr(&port_file)?;
    let mut control = Client::connect_retry(&addr, &mut rng)?;
    let stats = control.request(r#"{"op":"stats"}"#)?;
    let recovered = stat(&stats, "journal", "recovered");
    if recovered != 4 {
        return Err(format!(
            "expected 4 recovered jobs after SIGKILL, got {recovered}"
        ));
    }
    for (i, key) in keys.iter().enumerate() {
        let status = poll_status_done(&mut control, key, Duration::from_secs(180))?;
        if status.get("code").and_then(Value::as_u64) != Some(0) {
            return Err(format!("kill-recovered job {key} failed: {status}"));
        }
        let recovered_report = status
            .get("report")
            .map(Value::to_string)
            .ok_or("kill-recovered job has no report")?;
        // Byte-identity against a fresh rerun, exactly-once via dedup.
        let (sub, method) = specs[i];
        let fresh = job_line(&format!("kr-fresh-{i}"), sub, method, "structural");
        let rerun = control.submit(&fresh, false)?;
        if rerun.report.as_deref() != Some(recovered_report.as_str()) {
            return Err(format!(
                "kill-recovered report for {key} differs from a fresh rerun"
            ));
        }
        let replay = control.submit(&lines[i], false)?;
        if !replay.dedup {
            return Err(format!("kill-recover resubmit of {key} ran twice"));
        }
    }
    control.request(r#"{"op":"shutdown"}"#)?;
    let _ = child.0.wait();
    drop(child);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&port_file);
    Ok(recovered)
}

/// Run the load, write `BENCH_serve.json` (wall-clock fields zeroed when
/// `stable_ms`), and check the serving contract. In-process daemons run
/// under the caller's current run context.
///
/// # Errors
///
/// Connection/protocol failures, a non-zero job code, a hit delta of
/// zero, an empty cold histogram (the daemon was not cold), or a warm
/// p50 that does not beat the cold p50.
pub fn run(config: &LoadgenConfig, stable_ms: bool) -> Result<LoadgenSummary, String> {
    let started = Instant::now();
    // An in-process daemon when no --addr: fixed worker count so the mix
    // concurrency (and thus queueing) is environment-independent.
    let server = match &config.addr {
        Some(_) => None,
        None => Some(
            Server::start(ServerConfig {
                bind: Bind::Tcp("127.0.0.1:0".to_string()),
                workers: 4,
                cache_bytes: prebond3d_serve::cache::DEFAULT_BUDGET_BYTES,
                ..ServerConfig::default()
            })
            .map_err(|e| format!("spawn daemon: {e}"))?,
        ),
    };
    let addr = match (&config.addr, &server) {
        (Some(a), _) => a.clone(),
        (None, Some(s)) => s.addr().expect("tcp daemon has an addr").to_string(),
        (None, None) => unreachable!(),
    };

    let mut control = Client::connect(&addr)?;
    let before = control.request(r#"{"op":"stats"}"#)?;

    // --- Phase 1: sequential priming, one job per distinct substrate ---
    let mut cold = obs::hist::Hist::new();
    let mut warm = obs::hist::Hist::new();
    let mut phase_agg: std::collections::BTreeMap<String, (u64, f64)> =
        std::collections::BTreeMap::new();
    let mut phase_hists: std::collections::BTreeMap<String, obs::hist::Hist> =
        std::collections::BTreeMap::new();
    let mut bad_jobs: Vec<String> = Vec::new();
    let mut fold = |r: &JobResult| {
        if r.measured {
            if r.cache == "hit" {
                warm.record(r.server_ns);
            } else {
                cold.record(r.server_ns);
            }
        }
        for (path, count, ms) in &r.phases {
            let e = phase_agg.entry(path.clone()).or_insert((0, 0.0));
            e.0 += count;
            e.1 += ms;
            phase_hists
                .entry(path.clone())
                .or_default()
                .record((ms.max(0.0) * 1.0e6) as u64);
        }
    };
    // The measured-probe job goes first while its substrate is still
    // cold, then one cheap structural job per remaining substrate.
    let (m_sub, m_method, m_probe) = MEASURED;
    let prime: Vec<(String, bool)> =
        std::iter::once((job_line("prime-measured", m_sub, m_method, m_probe), true))
            .chain(
                SUBSTRATES
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != m_sub)
                    .map(|(i, _)| (job_line(&format!("prime-{i}"), i, 0, "structural"), false)),
            )
            .collect();
    for (line, measured) in &prime {
        let r = control.submit(line, *measured)?;
        if r.code != 0 {
            bad_jobs.push(format!("priming job exited {}", r.code));
        }
        fold(&r);
    }

    // --- Phase 2: seeded multi-client mix -------------------------------
    let results: Vec<Result<Vec<JobResult>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|c| {
                let addr = addr.clone();
                let jobs = config.jobs_per_client;
                let seed = config.seed;
                scope.spawn(move || -> Result<Vec<JobResult>, String> {
                    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37));
                    let mut client = Client::connect(&addr)?;
                    let mut out = Vec::with_capacity(jobs);
                    let (m_sub, m_method, m_probe) = MEASURED;
                    for j in 0..jobs {
                        // Each client's first job replays the measured
                        // spec warm, guaranteeing warm samples; the rest
                        // draw from the seeded mix (the measured spec
                        // can recur — still a matched warm sample).
                        let (substrate, method, probe) = if j == 0 {
                            (m_sub, m_method, m_probe)
                        } else {
                            let substrate = rng.gen_range(0..SUBSTRATES.len());
                            let method = rng.gen_range(0..METHODS.len());
                            let probe = if substrate == m_sub && rng.gen_bool(0.4) {
                                m_probe
                            } else {
                                "structural"
                            };
                            (substrate, method, probe)
                        };
                        let measured = (substrate, method, probe) == (m_sub, m_method, m_probe);
                        let line = job_line(&format!("c{c}-j{j}"), substrate, method, probe);
                        out.push(client.submit(&line, measured)?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    for r in results {
        for job in r? {
            if job.code != 0 {
                bad_jobs.push(format!("mix job exited {}", job.code));
            }
            fold(&job);
        }
    }

    // --- Phase 3: saturation sweep --------------------------------------
    // Bursts of warm structural jobs at increasing client counts; the
    // jobs/sec row per count shows where the worker pool saturates.
    // Everything here is a cache hit, so throughput measures dispatch +
    // queueing, not flow compute.
    let mut saturation: Vec<Value> = Vec::new();
    let mut sweep_total = 0u64;
    for clients in SWEEP_CLIENTS {
        let round_start = Instant::now();
        let round: Vec<Result<Vec<JobResult>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = addr.clone();
                    scope.spawn(move || -> Result<Vec<JobResult>, String> {
                        let mut client = Client::connect(&addr)?;
                        let mut out = Vec::with_capacity(SWEEP_JOBS);
                        for j in 0..SWEEP_JOBS {
                            let substrate = (c + j) % SUBSTRATES.len();
                            let line = job_line(
                                &format!("s{clients}-c{c}-j{j}"),
                                substrate,
                                0,
                                "structural",
                            );
                            out.push(client.submit(&line, false)?);
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("sweep client panicked".into()))
                })
                .collect()
        });
        let elapsed = round_start.elapsed().as_secs_f64();
        let mut done = 0u64;
        for r in round {
            for job in r? {
                if job.code != 0 {
                    bad_jobs.push(format!("sweep job exited {}", job.code));
                }
                done += 1;
                fold(&job);
            }
        }
        sweep_total += done;
        let jobs_per_sec = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        saturation.push(Value::obj([
            ("clients", clients.into()),
            ("jobs", done.into()),
            ("elapsed_ms", (elapsed * 1.0e3).into()),
            ("jobs_per_sec", jobs_per_sec.into()),
        ]));
    }

    let after = control.request(r#"{"op":"stats"}"#)?;
    if config.shutdown || server.is_some() {
        let bye = control.request(r#"{"op":"shutdown"}"#)?;
        if bye.get("ev").and_then(Value::as_str) != Some("bye") {
            return Err(format!("expected bye, got {bye}"));
        }
    }
    if let Some(server) = server {
        server.join();
    }

    // --- Phase 4: overload & backpressure (dedicated in-process daemons) -
    let overload = overload_phase(config.seed)?;
    // --- Phase 5: in-process crash recovery ------------------------------
    let recovery = recovery_phase(config.seed)?;
    // --- Phase 6: external kill-and-recover (opt-in) ---------------------
    let kill_recovered = match &config.daemon_bin {
        Some(bin) => kill_recover_phase(bin, config.seed)?,
        None => 0,
    };

    // --- Deltas, report, contract ---------------------------------------
    let delta = |block: &str, key: &str| stat(&after, block, key) - stat(&before, block, key);
    let total_jobs =
        prime.len() as u64 + (config.clients * config.jobs_per_client) as u64 + sweep_total;
    let hits = delta("cache", "hits");
    let misses = delta("cache", "misses");
    let evictions = delta("cache", "evictions");

    let work_row = |counter: &str, reference: u64, optimized: u64| {
        let reduction = if reference > 0 {
            1.0 - optimized as f64 / reference as f64
        } else {
            0.0
        };
        Value::obj([
            ("counter", counter.into()),
            ("substrate", "job mix".into()),
            ("reference", reference.into()),
            ("optimized", optimized.into()),
            ("reduction", reduction.into()),
        ])
    };
    let phases: Vec<Value> = phase_agg
        .iter()
        .map(|(path, &(count, ms))| {
            let h = phase_hists.get(path);
            Value::obj([
                ("path", path.as_str().into()),
                ("count", count.into()),
                ("ms", ms.into()),
                ("p50_ns", h.map_or(0, |h| h.quantile(0.50)).into()),
                ("p95_ns", h.map_or(0, |h| h.quantile(0.95)).into()),
                ("p99_ns", h.map_or(0, |h| h.quantile(0.99)).into()),
                ("max_ns", h.map_or(0, obs::hist::Hist::max).into()),
            ])
        })
        .collect();
    let mut mem_fields: Vec<(&'static str, Value)> = Vec::new();
    if let Some(kb) = obs::mem::rss_now_kb() {
        mem_fields.push(("rss_now_kb", kb.into()));
    }
    if let Some(kb) = obs::mem::rss_peak_kb() {
        mem_fields.push(("rss_peak_kb", kb.into()));
    }
    let mut doc = Value::obj([
        ("experiment", "serve".into()),
        ("threads", pool::threads().into()),
        (
            "elapsed_ms",
            (started.elapsed().as_secs_f64() * 1.0e3).into(),
        ),
        ("clients", config.clients.into()),
        ("jobs_per_client", config.jobs_per_client.into()),
        ("seed", config.seed.into()),
        ("phases", Value::Arr(phases)),
        ("saturation", Value::Arr(saturation)),
        (
            "hists",
            Value::obj([
                ("serve.latency_cold_ns", cold.to_json()),
                ("serve.latency_warm_ns", warm.to_json()),
            ]),
        ),
        (
            "jobs",
            Value::obj([
                ("submitted", delta("jobs", "submitted").into()),
                ("done", delta("jobs", "done").into()),
                ("failed", delta("jobs", "failed").into()),
                ("protocol_errors", delta("jobs", "protocol_errors").into()),
            ]),
        ),
        (
            "cache",
            Value::obj([
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("evictions", evictions.into()),
                ("entries", stat(&after, "cache", "entries").into()),
                ("budget", stat(&after, "cache", "budget").into()),
            ]),
        ),
        ("mem", Value::obj(mem_fields)),
        (
            "backpressure",
            Value::obj([
                ("shed", overload.shed_total.into()),
                ("shed_deterministic", overload.shed_deterministic.into()),
                ("retry_after_frames", overload.retry_after_frames.into()),
            ]),
        ),
        (
            "recovery",
            Value::obj([
                ("recovered", recovery.recovered.into()),
                ("deduped", recovery.deduped.into()),
                ("journal_pending", recovery.journal_pending.into()),
                ("journal_done", recovery.journal_done.into()),
                ("kill_recovered", kill_recovered.into()),
            ]),
        ),
        (
            "work",
            Value::Arr(vec![
                work_row("serve.cache_misses", total_jobs, misses),
                work_row("serve.cache_hits", 0, hits),
                work_row("serve.cache_evictions", 0, evictions),
                // Floor-gated rows: the overload and recovery phases are
                // constructed so these are exactly 3 on every run.
                work_row("serve.shed", 0, overload.shed_deterministic),
                work_row("serve.recovered", 0, recovery.recovered),
            ]),
        ),
    ]);
    // The contract checks read the *measured* values; the stable-ms
    // normalization only applies to what lands on disk.
    let cold_p50_ms = cold.quantile(0.50) as f64 / 1.0e6;
    let warm_p50_ms = warm.quantile(0.50) as f64 / 1.0e6;
    if stable_ms {
        report::zero_ms(&mut doc);
    }
    let report_path = report::report_dir().join("BENCH_serve.json");
    resil::atomic_write(&report_path, &format!("{doc}\n")).map_err(|e| e.to_string())?;

    if !bad_jobs.is_empty() {
        return Err(format!(
            "{} job(s) failed: {}",
            bad_jobs.len(),
            bad_jobs.join("; ")
        ));
    }
    if delta("jobs", "submitted") != total_jobs
        || delta("jobs", "done") + delta("jobs", "failed") != total_jobs
    {
        return Err(format!(
            "job accounting off: submitted {} done {} failed {} expected {total_jobs}",
            delta("jobs", "submitted"),
            delta("jobs", "done"),
            delta("jobs", "failed"),
        ));
    }
    if hits == 0 {
        return Err("serve.cache_hits did not grow — the warm cache never hit".into());
    }
    if cold.is_empty() {
        return Err(
            "no cold (miss) jobs observed — the daemon was already warm; \
             restart it for a cold measurement"
                .into(),
        );
    }
    if warm_p50_ms >= cold_p50_ms {
        return Err(format!(
            "warm p50 {warm_p50_ms:.2} ms does not beat cold p50 {cold_p50_ms:.2} ms"
        ));
    }
    Ok(LoadgenSummary {
        jobs: total_jobs,
        hits,
        misses,
        cold_p50_ms,
        warm_p50_ms,
        shed: overload.shed_deterministic,
        recovered: recovery.recovered,
        kill_recovered,
        report_path,
    })
}
