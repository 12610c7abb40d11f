//! Full-stack observability tests: a profiled GEMV must light up every
//! instrumented layer (engine fences, controller row classification, device
//! mode transitions, bank residency), nest its spans op → batch → command,
//! export valid Chrome trace JSON — and change nothing about the simulated
//! cycles (zero observer effect).

use pim_bench::json::{self, Json};
use pim_bench::profile::{profile_gemv, render_profile};
use pim_obs::{check_nesting, names, Recorder};
use pim_runtime::{PimBlas, PimContext};

fn gemv_inputs(n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
    let w = (0..n * k).map(|i| ((i * 7 % 41) as f32 - 20.0) / 32.0).collect();
    let x = (0..k).map(|i| ((i * 3 % 17) as f32 - 8.0) / 16.0).collect();
    (w, x)
}

#[test]
fn profiled_gemv_reaches_every_layer() {
    let run = profile_gemv(96, 256).expect("gemv");
    let m = run.recorder.metrics().registry;

    // Host engine: fenced execution must stall on fences.
    assert!(m.counter(names::ENGINE_FENCES) > 0);
    assert!(m.counter(names::ENGINE_FENCE_STALL_CYCLES) > 0, "fences must cost cycles");
    assert_eq!(m.counter(names::ENGINE_FENCES), run.report.fences);

    // Controller: a multi-row GEMV reopens rows on the raw PIM path.
    assert!(m.counter(names::CTRL_RAW_COMMANDS) > 0);
    assert!(m.counter(names::CTRL_ROW_CONFLICT) > 0, "multi-row GEMV must conflict");
    assert!(m.counter(names::CTRL_ROW_HIT) > 0);

    // Device: SB -> AB -> AB-PIM round trips and triggers.
    assert!(m.counter(names::DEV_MODE_TRANSITIONS) >= 4);
    assert_eq!(m.counter(names::DEV_PIM_TRIGGERS), run.report.pim_triggers);
    assert!(m.counter(names::DEV_CRF_LOADS) > 0);

    // Banks: residency gauges cover open and closed time.
    let open = m.gauge(names::BANK_OPEN_CYCLES).expect("open gauge");
    let closed = m.gauge(names::BANK_CLOSED_CYCLES).expect("closed gauge");
    assert!(open > 0.0 && closed > 0.0);

    // The rendered table carries the acceptance-criteria lines.
    let table = render_profile(&run.recorder.metrics());
    for needle in ["row hit rate", "fence stall cycles", "bank open cycles", "bank closed cycles"] {
        assert!(table.contains(needle), "missing `{needle}` in:\n{table}");
    }
}

#[test]
fn event_stream_nests_op_kernel_command_three_deep() {
    let run = profile_gemv(64, 128).expect("gemv");
    let events = run.recorder.events().expect("vec sink retains events");
    assert!(!events.is_empty());

    // Spans balance per scope with monotone timestamps, and the deepest
    // nesting reaches op -> batch -> command (>= 3 levels).
    let depth = check_nesting(&events).expect("events must nest");
    assert!(depth >= 3, "nesting depth {depth} < 3");

    // All three categories appear in one stream.
    for cat in [names::CAT_OP, names::CAT_BATCH, names::CAT_COMMAND, names::CAT_MODE] {
        assert!(events.iter().any(|e| e.cat == cat), "no `{cat}` events");
    }
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let run = profile_gemv(32, 64).expect("gemv");
    let events = run.recorder.events().expect("events");
    let json = pim_obs::chrome::chrome_trace_json(&events);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    json::parse(&json).expect("chrome trace must be valid JSON");
}

/// Zero observer effect: the same workload must produce identical results
/// and identical cycle counts whether no recorder, a counting recorder, or
/// a retaining recorder is attached.
#[test]
fn instrumentation_has_zero_observer_effect() {
    let (n, k) = (80, 96);
    let (w, x) = gemv_inputs(n, k);

    let mut plain = PimContext::small_system();
    let (y0, r0) = PimBlas::gemv(&mut plain, &w, n, k, &x).unwrap();

    let mut counted = PimContext::small_system();
    counted.enable_profiling(Recorder::counting());
    let (y1, r1) = PimBlas::gemv(&mut counted, &w, n, k, &x).unwrap();

    let mut recorded = PimContext::small_system();
    recorded.enable_profiling(Recorder::vec());
    let (y2, r2) = PimBlas::gemv(&mut recorded, &w, n, k, &x).unwrap();

    assert_eq!(y0, y1);
    assert_eq!(y0, y2);
    assert_eq!(r0.cycles, r1.cycles, "counting sink changed cycle counts");
    assert_eq!(r0.cycles, r2.cycles, "vec sink changed cycle counts");
    assert_eq!(r0.commands, r1.commands);
    assert_eq!(plain.sys.max_now(), counted.sys.max_now());
    assert_eq!(plain.sys.max_now(), recorded.sys.max_now());
}

/// The registry table in `docs/OBSERVABILITY.md` must cover every dotted
/// name constant in `pim_obs::names` — the doc is asserted against the
/// source so it cannot silently rot.
#[test]
fn docs_registry_table_covers_every_name_constant() {
    let src = include_str!("../crates/obs/src/names.rs");
    let doc = include_str!("../docs/OBSERVABILITY.md");

    // Collect the string value of every `pub const NAME: &str = "...";`
    // whose value is a dotted metric/event name.
    let mut names: Vec<&str> = Vec::new();
    for line in src.lines() {
        let Some(rest) = line.trim_start().strip_prefix("pub const ") else { continue };
        let Some((_, value)) = rest.split_once('=') else { continue };
        let value = value.trim().trim_end_matches(';').trim();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            continue;
        };
        if value.contains('.') {
            names.push(value);
        }
    }
    assert!(names.len() >= 30, "expected a full registry, found {} names", names.len());

    // Each name must appear as `name` inside a markdown table row.
    let table_rows: Vec<&str> =
        doc.lines().filter(|l| l.starts_with('|') && l.contains('`')).collect();
    for name in names {
        let needle = format!("`{name}`");
        assert!(
            table_rows.iter().any(|row| row.contains(&needle)),
            "`{name}` (pim_obs::names) is missing from the registry table in docs/OBSERVABILITY.md"
        );
    }
}

/// Adversarially-named events must round-trip the Chrome exporter into
/// syntactically valid JSON (escaping audit for quotes, backslashes, and
/// control characters — with trace args in play).
#[test]
fn chrome_export_survives_adversarial_names_and_trace_args() {
    use pim_obs::{Event, Scope, TraceCtx};
    let nasty = [
        "quote\"inside",
        "back\\slash",
        "new\nline",
        "tab\tchar",
        "\u{1}control",
        "unicode≠ascii",
        "}]\",\"pwn\":\"",
    ];
    let mut events = Vec::new();
    for (i, name) in nasty.iter().enumerate() {
        let ts = i as u64 * 10;
        events.push(Event::begin(ts, name.to_string(), names::CAT_BATCH, Scope::channel(1)));
        events.push(
            Event::instant(ts + 1, name.to_string(), names::CAT_REQUEST, Scope::channel(1))
                .with_trace(TraceCtx::root(7, i as u64, 2)),
        );
        events.push(Event::end(ts + 2, name.to_string(), names::CAT_BATCH, Scope::channel(1)));
    }
    let json = pim_obs::chrome::chrome_trace_json(&events);
    let doc = json::parse(&json).expect("adversarial names must stay valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let parsed: Vec<&str> = events.iter().filter_map(|e| e.get("name")?.as_str()).collect();
    for name in nasty {
        assert!(parsed.contains(&name), "{name:?} did not round-trip: {parsed:?}");
    }
}
