//! Golden reports: the four default campaigns, serialized, must equal the
//! committed `BENCH_{fault,serve,cluster,chaos}.json` byte for byte under
//! every execution backend. This is the behavioural contract of the
//! campaign engine and of the serving/resilience stack beneath it — any
//! refactor that moves a cycle, a counter or a float digit fails here.

use pim_bench::json::{self, Json};
use pim_bench::{chaos, cluster, faults, serve};
use pim_host::ExecutionBackend;

/// One row per campaign: schema, the report's array key and length, the
/// committed golden file, and a runner producing the serialized default
/// report under a backend.
struct Golden {
    schema: &'static str,
    rows: (&'static str, usize),
    committed: &'static str,
    run: fn(ExecutionBackend) -> String,
}

const GOLDENS: [Golden; 4] = [
    Golden {
        schema: "pim-bench/fault-campaign-v1",
        rows: ("points", 4),
        committed: include_str!("../BENCH_fault.json"),
        run: |backend| {
            let cfg = faults::CampaignConfig { backend, ..Default::default() };
            let points = faults::run_campaign(&cfg).expect("fault campaign runs");
            json::to_string(&faults::report_json(&cfg, &points))
        },
    },
    Golden {
        schema: "pim-bench/serve-campaign-v1",
        rows: ("points", 6),
        committed: include_str!("../BENCH_serve.json"),
        run: |backend| {
            let cfg = serve::ServeCampaignConfig { backend, ..Default::default() };
            let points = serve::run_campaign(&cfg).expect("serve campaign runs");
            json::to_string(&serve::report_json(&cfg, &points))
        },
    },
    Golden {
        schema: "pim-bench/cluster-campaign-v1",
        rows: ("points", 6),
        committed: include_str!("../BENCH_cluster.json"),
        run: |backend| {
            let cfg = cluster::ClusterCampaignConfig { backend, ..Default::default() };
            let points = cluster::run_campaign(&cfg).expect("cluster campaign runs");
            json::to_string(&cluster::report_json(&cfg, &points))
        },
    },
    Golden {
        schema: "pim-bench/chaos-campaign-v1",
        rows: ("phases", 5),
        committed: include_str!("../BENCH_chaos.json"),
        run: |backend| {
            let cfg = chaos::ChaosCampaignConfig { backend, ..Default::default() };
            let report = chaos::run_campaign(&cfg).expect("chaos campaign runs");
            json::to_string(&chaos::report_json(&cfg, &report))
        },
    },
];

#[test]
fn default_campaign_reports_match_the_committed_goldens() {
    for g in &GOLDENS {
        // The bins `println!` the report, so the committed file is the
        // serialized text plus one newline.
        let want = g.committed.strip_suffix('\n').expect("golden ends with a newline");
        for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threads(2)] {
            let got = (g.run)(backend);
            assert_eq!(got, want, "{} diverged from its golden under {backend:?}", g.schema);
        }
        // The serialized text round-trips through the in-repo parser.
        let back = json::parse(want).expect("golden parses");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(g.schema));
        let (key, len) = g.rows;
        assert_eq!(back.get(key).and_then(Json::as_arr).map(<[Json]>::len), Some(len), "{key}");
    }
}
