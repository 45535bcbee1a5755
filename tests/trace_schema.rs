//! Golden-file schema test for the Chrome trace-event timeline
//! (`PREBOND3D_TRACE=<path>`): a traced parallel run must produce a
//! document Perfetto can load — `displayTimeUnit` + `traceEvents` with
//! complete (`X`), instant (`i`) and thread-name metadata (`M`) events —
//! with per-worker pool tracks and chaos firings as instants.

use std::collections::BTreeSet;

use prebond3d_obs as obs;
use prebond3d_obs::json::{parse, Value};
use prebond3d_pool as pool;
use prebond3d_resilience::{chaos, RunCtx};

/// Reduce the trace document to sorted `path: type` lines. Event `args`
/// objects are keyed per event kind (`path`, `chunk`, `detail`,
/// `name`, ...), so they collapse to one `map<scalar>` entry.
fn schema_lines(path: &str, v: &Value, out: &mut BTreeSet<String>) {
    match v {
        Value::Null => {
            out.insert(format!("{path}: null"));
        }
        Value::Bool(_) => {
            out.insert(format!("{path}: bool"));
        }
        Value::Num(_) => {
            out.insert(format!("{path}: number"));
        }
        Value::Str(_) => {
            out.insert(format!("{path}: string"));
        }
        Value::Arr(items) => {
            out.insert(format!("{path}: array"));
            for item in items {
                schema_lines(&format!("{path}[]"), item, out);
            }
        }
        Value::Obj(map) => {
            if path.ends_with(".args") {
                out.insert(format!("{path}: map<scalar>"));
                for (k, v) in map {
                    assert!(
                        matches!(v, Value::Num(_) | Value::Str(_)),
                        "{path}.{k} must be a scalar, got {v:?}"
                    );
                }
                return;
            }
            out.insert(format!("{path}: object"));
            for (k, v) in map {
                schema_lines(&format!("{path}.{k}"), v, out);
            }
        }
    }
}

#[test]
fn traced_parallel_run_matches_the_golden_schema() {
    let dir = std::env::temp_dir().join(format!("prebond3d-trace-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp trace dir");
    let trace_path = dir.join("trace.json");
    obs::trace::configure(Some(trace_path.clone()));

    // Chaos armed at rate 0: never fires spontaneously, but the staged
    // note still lands on the timeline as an instant event.
    RunCtx::scope(&RunCtx::default().with_chaos(1, 0.0), || {
        chaos::note("pool.worker", chaos::ChaosKind::Panic);
        // A main-thread phase span becomes a complete event on track 1.
        let _flow = obs::span("flow");
        // Four pool workers each name their track and emit one complete
        // event per claimed chunk.
        let results = pool::with_threads(4, || {
            pool::par_chunks(8, 1, || 0u64, |_, range| range.start as u64)
        });
        assert_eq!(results.len(), 8);
    });
    obs::trace::flush();
    obs::trace::configure(None);

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let doc = parse(&text).expect("trace parses as JSON");

    // Schema: every field the viewer relies on, pinned by the golden.
    let mut lines = BTreeSet::new();
    schema_lines("$", &doc, &mut lines);
    let mut actual = lines.into_iter().collect::<Vec<_>>().join("\n");
    actual.push('\n');
    let golden = include_str!("golden/trace_event.schema.txt");
    assert!(
        actual == golden,
        "trace-event schema drifted from tests/golden.\n--- expected ---\n{golden}\n--- actual ---\n{actual}\n\
         If the change is intentional, update the golden file."
    );

    // Structure: Perfetto-loadable document with the expected tracks.
    assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let ph = |e: &Value| e.get("ph").unwrap().as_str().unwrap().to_string();
    assert!(
        events
            .iter()
            .all(|e| matches!(ph(e).as_str(), "X" | "i" | "M")),
        "only complete/instant/metadata events are emitted"
    );

    // Every pool worker names its own track before claiming work, so a
    // 4-thread run shows at least 2 distinct worker tracks even when the
    // host has a single core.
    let worker_tracks: BTreeSet<u64> = events
        .iter()
        .filter(|e| ph(e) == "M")
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .is_some_and(|n| n.starts_with("pool worker"))
        })
        .map(|e| e.get("tid").unwrap().as_u64().unwrap())
        .collect();
    assert!(
        worker_tracks.len() >= 2,
        "expected >=2 named pool-worker tracks, got {worker_tracks:?}"
    );

    // Chunk executions are complete events on worker tracks; all 8 chunks
    // must appear exactly once.
    let chunks: Vec<u64> = events
        .iter()
        .filter(|e| ph(e) == "X" && e.get("cat").unwrap().as_str() == Some("pool"))
        .map(|e| {
            e.get("args")
                .unwrap()
                .get("chunk")
                .unwrap()
                .as_u64()
                .unwrap()
        })
        .collect();
    let distinct: BTreeSet<u64> = chunks.iter().copied().collect();
    assert_eq!(distinct.len(), 8, "every chunk traced once: {chunks:?}");

    // The staged chaos note is an instant event with scope "t".
    let chaos_instant = events
        .iter()
        .find(|e| ph(e) == "i" && e.get("cat").unwrap().as_str() == Some("chaos"))
        .expect("chaos firing appears as an instant event");
    assert_eq!(chaos_instant.get("s").unwrap().as_str(), Some("t"));
    assert_eq!(
        chaos_instant.get("name").unwrap().as_str(),
        Some("pool.worker")
    );

    // The main-thread span is a complete event carrying its span path.
    let span_event = events
        .iter()
        .find(|e| ph(e) == "X" && e.get("cat").unwrap().as_str() == Some("span"))
        .expect("span complete event");
    assert_eq!(
        span_event
            .get("args")
            .unwrap()
            .get("path")
            .unwrap()
            .as_str(),
        Some("flow")
    );

    let _ = std::fs::remove_dir_all(&dir);
}
