//! The metric registry: every name and unit the benchmark reports, in the
//! order it prints them. `BENCHMARK.json` declares the same lists (a test
//! holds the two together).

use std::collections::BTreeMap;

use crate::json::Metric;

/// End-to-end metrics, reported by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("spanner_edges", "edges"),
    ("query_p50_us", "us"),
    ("batch_qps", "q/s"),
    ("wave_publish_ms", "ms"),
    ("wave_replicated_ms", "ms"),
    ("ops_ok_frac", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, reported by `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_query", "bytes"),
    ("server.wire_us", "us"),
    ("server.start_s", "s"),
    ("service.query_us", "us"),
    ("service.overhead_us", "us"),
    ("service.coalesced_frac", "ratio"),
    ("service.shed_frac", "ratio"),
    ("service.wave_barrier_ms", "ms"),
    ("service.read_stall_ms", "ms"),
    ("oracle.hit_us", "us"),
    ("oracle.miss_us", "us"),
    ("oracle.struct_bytes_per_edge", "bytes/edge"),
    ("oracle.assemble_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.trees_built", "count"),
    ("cache.bytes_per_edge", "bytes/edge"),
    ("shard.locality_rate", "ratio"),
    ("shard.lanes_rebuilt_per_wave", "count"),
    ("shard.rebuild_ms", "ms"),
    ("churn.apply_ms", "ms"),
    ("churn.candidates", "count"),
    ("churn.edges_added", "count"),
    ("churn.useful_candidate_ratio", "ratio"),
    ("churn.escalated_frac", "ratio"),
    ("verify.spot_check_ms", "ms"),
    ("greedy.build_s", "s"),
    ("greedy.lbc_calls", "count"),
    ("greedy.bfs_runs", "count"),
    ("replication.bootstrap_s", "s"),
    ("replication.apply_ms", "ms"),
    ("replication.lag_ms", "ms"),
    ("dijkstra.tree_us", "us"),
    ("dijkstra.tree_bytes", "bytes"),
    ("query_p99_us", "us"),
    ("qps_at_slo", "q/s"),
    ("load.gen_late_p99_us", "us"),
    ("load.backlog_end", "count"),
    ("trace.query_p50_us", "us"),
    ("trace.overhead_us", "us"),
];

/// The metrics of `list`, in order, with values from `values`; the name
/// of the first one missing otherwise.
pub fn select(
    list: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<Metric>, &'static str> {
    list.iter()
        .map(|&(name, unit)| {
            values
                .get(name)
                .map(|&value| Metric { name, value, unit })
                .ok_or(name)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{result_line, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        doc.get(section)
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), registry(END_TO_END));
        assert_eq!(declared("per_layer"), registry(PER_LAYER));
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["read_hot", "read_cold", "churn_replicated"]);
        for m in doc.get("end_to_end").unwrap().as_array() {
            assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
            match m.get("bound") {
                Some(Json::Number(b)) => assert!(*b > 0.0 && *b <= 0.25),
                other => panic!("bound {other:?}"),
            }
        }
        for m in doc.get("per_layer").unwrap().as_array() {
            assert_eq!(m.keys(), ["name", "unit", "better"]);
        }
    }

    #[test]
    fn output_matches_the_schema_in_both_modes() {
        for (list, section) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            let values: BTreeMap<&'static str, f64> = list
                .iter()
                .enumerate()
                .map(|(i, &(n, _))| (n, i as f64 + 0.5))
                .collect();
            let metrics = select(list, &values).unwrap();
            let line = Json::parse(&result_line(true, 3, 0, &metrics)).unwrap();
            assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
            let reported = line.get("metrics").unwrap();
            let names: Vec<(String, String)> = reported
                .keys()
                .iter()
                .map(|&k| {
                    let unit = reported
                        .get(k)
                        .and_then(|m| m.get("unit"))
                        .and_then(Json::as_str);
                    (k.to_owned(), unit.unwrap().to_owned())
                })
                .collect();
            assert_eq!(names, declared(section));
        }
        let partial: BTreeMap<&'static str, f64> = [("setup_s", 1.0)].into_iter().collect();
        assert_eq!(select(END_TO_END, &partial).unwrap_err(), "spanner_edges");
    }
}
