//! Serving determinism: the deterministic `report` sub-object of a
//! `done` frame must be **byte-identical** wherever the same job runs —
//! cold (cache miss), warm (cache hit), with the cache bypassed
//! (`PREBOND3D_NO_CACHE=1` semantics), on a single-worker or a
//! four-worker daemon, and for inline netlists as much as generated
//! ones. Telemetry (`ms`, `counters`, the `cache` tag) legitimately
//! differs run to run; the report must not.

// Shared across the serve suites; each binary uses a different subset.
#[allow(dead_code)]
#[path = "serve_util/mod.rs"]
mod serve_util;

use prebond3d_netlist::itc99;
use prebond3d_obs::json::Value;
use prebond3d_resilience::RunCtx;
use prebond3d_serve::ServerConfig;
use serve_util::{field, start_server, start_with, stop, test_config, Client};

const JOB: &str =
    r#"{"op":"submit","id":"det","circuit":"b11","die":0,"method":"ours","probe":"structural"}"#;

fn report_bytes(done: &Value) -> String {
    assert_eq!(done.get("code").and_then(Value::as_u64), Some(0), "{done}");
    done.get("report")
        .unwrap_or_else(|| panic!("done frame lacks report: {done}"))
        .to_string()
}

#[test]
fn cold_warm_and_bypassed_reports_are_byte_identical() {
    let (server, addr) = start_server(1);
    let mut client = Client::connect(&addr);

    let cold = client.submit(JOB);
    assert_eq!(field(&cold, "cache"), "miss");
    let warm = client.submit(JOB);
    assert_eq!(field(&warm, "cache"), "hit");
    assert_eq!(
        report_bytes(&cold),
        report_bytes(&warm),
        "a warm hit must reproduce the cold report byte for byte"
    );

    stop(server);

    // PREBOND3D_NO_CACHE semantics: a reference-mode daemon bypasses the
    // warm cache entirely and still produces the same bytes.
    let (reference, addr) = start_with(ServerConfig {
        workers: 1,
        ctx: RunCtx::default().with_reference(true),
        ..test_config()
    });
    let bypass = Client::connect(&addr).submit(JOB);
    assert_eq!(field(&bypass, "cache"), "bypass");
    assert_eq!(report_bytes(&cold), report_bytes(&bypass));
    stop(reference);
}

#[test]
fn reports_are_identical_across_worker_counts() {
    let mut reference: Option<String> = None;
    for workers in [1, 4] {
        let (server, addr) = start_server(workers);
        // Several concurrent clients replaying the same job: every done
        // frame must carry the same report regardless of which worker
        // ran it or what else was in flight.
        let reports: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let mut client = Client::connect(&addr);
                        report_bytes(&client.submit(JOB))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        stop(server);
        for r in reports {
            match &reference {
                None => reference = Some(r),
                Some(reference) => {
                    assert_eq!(reference, &r, "report drifted at {workers} worker(s)");
                }
            }
        }
    }
}

#[test]
fn inline_netlists_key_by_content_and_reproduce() {
    let spec = itc99::DieSpec {
        name: "inline_die".to_string(),
        scan_flip_flops: 6,
        gates: 80,
        inbound_tsvs: 3,
        outbound_tsvs: 3,
        primary_inputs: 2,
        primary_outputs: 2,
        seed: 11,
    };
    let text = prebond3d_netlist::format::write(&itc99::generate_die(&spec));
    let frame = Value::obj([
        ("op", "submit".into()),
        ("id", "inline".into()),
        ("netlist", text.as_str().into()),
        ("method", "ours".into()),
        ("probe", "structural".into()),
    ])
    .to_string();

    let (server, addr) = start_server(2);
    let mut client = Client::connect(&addr);
    let cold = client.submit(&frame);
    assert_eq!(field(&cold, "cache"), "miss");
    let warm = client.submit(&frame);
    assert_eq!(
        field(&warm, "cache"),
        "hit",
        "an identical inline netlist must hit its signature-keyed entry"
    );
    assert_eq!(report_bytes(&cold), report_bytes(&warm));
    stop(server);
}
